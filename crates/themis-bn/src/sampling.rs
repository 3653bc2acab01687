//! Forward (logic) sampling of the K BN replicates (§4.2.4).
//!
//! `GROUP BY` queries cannot be answered by a single probability lookup; the
//! paper generates `K` representative samples from the BN, uniformly scales
//! each to the population size, answers the query on each, and returns the
//! groups appearing in *all* `K` answers with the aggregate value averaged —
//! damping both variance and phantom groups (groups returned that do not
//! exist in the population). This module draws the replicates; the
//! consensus over them is `themis_core`'s, shared by every query path.
//!
//! # Exact stop thresholds
//!
//! The reference way to draw a value from a CPT row `p` is the subtract
//! scan: draw `u ∈ [0, 1)`, compute `u_i = fl(u_{i−1} − p_i)` cell by cell
//! and return the first `i` with `u_i ≤ 0`, or `card − 1` if there is none.
//! The replicates are pinned bit for bit (the consensus answers, the wire
//! goldens and the benchmark's answer error all read them), so the kernel
//! here returns exactly the scan's value for every `u` without walking the
//! chain per sampled value.
//!
//! Rounding to nearest is monotone, so `x ↦ fl(x − p)` is non-decreasing
//! in `x`, and so is each `u_i` as a function of the drawn `u`. Each stop
//! condition `u_i ≤ 0` therefore holds on a down-set `[0, T_i]` of `[0, 1)`
//! (empty, `T_i = −∞`, when it fails even at `u = 0`). The scan stops at
//! the first `i` with `u ≤ T_i`, which is the first `i` with
//! `u ≤ M_i = max_{j ≤ i} T_j`; the `M_i` never decrease, so the scan's
//! answer is the number of `M_i` strictly below `u`, and only
//! `M_0 … M_{card−2}` matter (a count of `card − 1` is the scan's
//! fall-through value). With non-negative cells the `T_i` already rise;
//! the prefix maximum is what keeps a negative cell exact too.
//!
//! Each `T_i` is found exactly over the ordered bit patterns of `[0, 1)`,
//! with the stop condition itself as the predicate: start at the running
//! sum `p_0 + … + p_i`, which is within a few ulps of `T_i` on real rows,
//! step away one ulp at a time with the step doubling, then bisect the
//! bracket, so an adversarial row costs at most about 2 × 62 predicate
//! evaluations per cell. This runs once per call, for every CPT cell; on
//! the benchmark's flights world (808 cells) it takes about 1,900
//! evaluations and 0.02 ms.
//!
//! # Draw order and layout
//!
//! The uniforms are drawn exactly as the row-at-a-time scan drew them: one
//! `gen::<f64>()` per row and node, row-major, nodes in topological order,
//! replicate after replicate. So the caller's RNG ends in the same state,
//! and a given seed names the same replicates whatever the kernel. A chunk
//! of at most `CHUNK_ROWS` (256) rows of uniforms is drawn into a buffer,
//! then the replicate is filled one column at a time: each node's parent
//! configuration is a mixed-radix sum over its parents' columns with
//! precomputed strides, and its value is a count over that configuration's
//! thresholds. The weights are written once per replicate.
//!
//! There is no thread: the replicates come from one RNG stream whose order
//! is fixed, and the simulation runs inside the first query on a world,
//! which already holds the one engine thread that query is allowed.

use crate::network::BayesianNetwork;
use rand::Rng;
use themis_data::Relation;

/// Rows of uniforms drawn per chunk before the columns are filled. Every
/// node reads the whole chunk, so it stays small and cache-resident: on the
/// benchmark's five-attribute world 256 rows draw as fast as 1,024, with a
/// quarter of the scratch.
const CHUNK_ROWS: usize = 256;

/// Bit pattern of the largest double below 1, the top of the uniform's
/// range `[0, 1)`. Bit patterns of non-negative doubles order like their
/// values.
const TOP: u64 = 0x3FEF_FFFF_FFFF_FFFF;

/// Draw one forward sample of `size` tuples (weights all 1).
pub fn forward_sample<R: Rng>(net: &BayesianNetwork, size: usize, rng: &mut R) -> Relation {
    Sampler::new(net).draw(size, 1.0, rng)
}

/// Draw `k` independent forward samples, each uniformly scaled so its total
/// weight equals `population_size`.
pub fn forward_samples<R: Rng>(
    net: &BayesianNetwork,
    k: usize,
    size: usize,
    population_size: f64,
    rng: &mut R,
) -> Vec<Relation> {
    let sampler = Sampler::new(net);
    let weight = population_size / size as f64;
    (0..k).map(|_| sampler.draw(size, weight, rng)).collect()
}

/// A network compiled for sampling: its nodes in topological order, each
/// with its parents' strides and its CPT's stop thresholds.
struct Sampler<'a> {
    net: &'a BayesianNetwork,
    nodes: Vec<Node>,
}

/// One node of a [`Sampler`].
struct Node {
    /// The node's column in the schema.
    column: usize,
    /// `(parent column, stride)`: the parent configuration of a row is
    /// `Σ value · stride`, the CPT's mixed-radix index.
    parents: Vec<(usize, usize)>,
    /// Thresholds per parent configuration: the CPT's `card − 1`.
    width: usize,
    /// `width` prefix-maximum stop thresholds per parent configuration, in
    /// configuration order (see the module docs).
    thresholds: Vec<f64>,
}

impl<'a> Sampler<'a> {
    fn new(net: &'a BayesianNetwork) -> Self {
        // themis-lint: allow(no-panic-in-libs) reason=BayesianNetwork::new rejects cyclic structures, so a topological order always exists
        let order = net.topological_order().expect("networks are DAGs");
        let nodes = order
            .into_iter()
            .map(|node| {
                let cpt = net.cpt(node);
                let parents = net
                    .parents(node)
                    .iter()
                    .enumerate()
                    .map(|(k, p)| (p.0, cpt.parent_cards[k + 1..].iter().product()))
                    .collect();
                let width = cpt.card.saturating_sub(1);
                let mut thresholds = Vec::with_capacity(cpt.configs() * width);
                for config in 0..cpt.configs() {
                    row_thresholds(cpt.row(config), &mut thresholds);
                }
                Node {
                    column: node.0,
                    parents,
                    width,
                    thresholds,
                }
            })
            .collect();
        Sampler { net, nodes }
    }

    /// One replicate of `size` rows, every weight `weight`.
    fn draw<R: Rng>(&self, size: usize, weight: f64, rng: &mut R) -> Relation {
        let arity = self.nodes.len();
        let chunk = CHUNK_ROWS.min(size);
        let mut columns: Vec<Vec<u32>> = (0..arity).map(|_| Vec::with_capacity(size)).collect();
        let mut uniforms = vec![0.0f64; chunk * arity];
        let mut configs = vec![0usize; chunk];
        for start in (0..size).step_by(CHUNK_ROWS) {
            let rows = chunk.min(size - start);
            let uniforms = &mut uniforms[..rows * arity];
            for u in uniforms.iter_mut() {
                *u = rng.gen();
            }
            let configs = &mut configs[..rows];
            for (pos, node) in self.nodes.iter().enumerate() {
                configs.fill(0);
                for &(parent, stride) in &node.parents {
                    let values = &columns[parent][start..start + rows];
                    for (config, &v) in configs.iter_mut().zip(values) {
                        *config += v as usize * stride;
                    }
                }
                let width = node.width;
                let column = &mut columns[node.column];
                column.extend(configs.iter().enumerate().map(|(row, &config)| {
                    let base = config * width;
                    pick(
                        &node.thresholds[base..base + width],
                        uniforms[row * arity + pos],
                    )
                }));
            }
        }
        Relation::from_columns(self.net.schema().clone(), columns, vec![weight; size])
    }
}

/// The value the subtract scan returns for `u ∈ [0, 1)` on a row whose
/// prefix-maximum thresholds are `thresholds`: how many lie below `u`.
#[inline]
fn pick(thresholds: &[f64], u: f64) -> u32 {
    thresholds.iter().filter(|&&t| t < u).count() as u32
}

/// Append the `row.len() − 1` prefix-maximum stop thresholds of one CPT
/// row to `out` (see the module docs).
fn row_thresholds(row: &[f64], out: &mut Vec<f64>) {
    let mut sum = 0.0;
    let mut max = f64::NEG_INFINITY;
    for i in 0..row.len().saturating_sub(1) {
        sum += row[i];
        max = max.max(stop_threshold(&row[..=i], sum));
        out.push(max);
    }
}

/// Whether the scan's stop condition holds after the cells `cells`:
/// `fl(…fl(u − p_0)… − p_i) ≤ 0`.
fn stops(u: f64, cells: &[f64]) -> bool {
    cells.iter().fold(u, |u, &p| u - p) <= 0.0
}

/// The largest `u ∈ [0, 1)` at which [`stops`] holds, or `−∞` if it holds
/// nowhere. `guess` (the running sum of `cells`) seeds the search.
fn stop_threshold(cells: &[f64], guess: f64) -> f64 {
    let holds = |bits: u64| stops(f64::from_bits(bits), cells);
    let start = if guess >= 1.0 {
        TOP
    } else if guess > 0.0 {
        guess.to_bits()
    } else {
        0
    };
    // Widen a bracket `holds(lo) && !holds(hi)` from the guess, doubling
    // the step, then bisect it.
    let mut step = 1u64;
    let (mut lo, mut hi);
    if holds(start) {
        lo = start;
        loop {
            if lo == TOP {
                return f64::from_bits(TOP);
            }
            let next = lo.saturating_add(step).min(TOP);
            if !holds(next) {
                hi = next;
                break;
            }
            lo = next;
            step = step.saturating_mul(2);
        }
    } else {
        hi = start;
        loop {
            if hi == 0 {
                return f64::NEG_INFINITY;
            }
            let next = hi.saturating_sub(step);
            if holds(next) {
                lo = next;
                break;
            }
            hi = next;
            step = step.saturating_mul(2);
        }
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if holds(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    f64::from_bits(lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inference::point_probability;
    use crate::network::Cpt;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use themis_data::paper_example::example_schema;
    use themis_data::AttrId;

    /// The subtract scan the thresholds reproduce: the reference for every
    /// test below.
    fn scan(probs: &[f64], mut u: f64) -> u32 {
        for (i, &p) in probs.iter().enumerate() {
            u -= p;
            if u <= 0.0 {
                return i as u32;
            }
        }
        (probs.len() - 1) as u32
    }

    fn thresholds(row: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        row_thresholds(row, &mut out);
        out
    }

    /// Every point the exactness tests check on a row: each threshold, its
    /// neighbours one ulp away, 0 and the largest double below 1 (those
    /// inside `[0, 1)`).
    fn probe_points(ts: &[f64]) -> Vec<f64> {
        let mut points = vec![0.0, f64::from_bits(TOP)];
        for &t in ts {
            points.extend([t, t.next_up(), t.next_down()]);
        }
        points.retain(|&u| (0.0..1.0).contains(&u));
        points
    }

    fn assert_pick_matches_scan(row: &[f64]) {
        let ts = thresholds(row);
        assert_eq!(ts.len(), row.len() - 1);
        for u in probe_points(&ts) {
            assert_eq!(
                pick(&ts, u),
                scan(row, u),
                "row {row:?} at u = {u:e} (thresholds {ts:?})"
            );
        }
    }

    #[test]
    fn a_single_cell_always_picks_it() {
        assert!(thresholds(&[1.0]).is_empty());
        assert_pick_matches_scan(&[1.0]);
        assert_pick_matches_scan(&[0.0]);
    }

    #[test]
    fn zero_cells_anywhere_match_the_scan() {
        for row in [
            &[0.0, 0.0, 0.5, 0.5][..],
            &[0.3, 0.0, 0.0, 0.7],
            &[0.5, 0.5, 0.0, 0.0],
            &[0.0, 1.0, 0.0],
            &[0.0, 0.0, 0.0],
        ] {
            assert_pick_matches_scan(row);
        }
        // u = 0 stops on the first cell even when it is zero, as the scan
        // does.
        assert_eq!(pick(&thresholds(&[0.0, 0.0, 1.0]), 0.0), 0);
    }

    #[test]
    fn rows_summing_near_one_or_not_to_one_match_the_scan() {
        let ulp_above_half = 0.5f64.next_up().next_up();
        for row in [
            vec![0.1; 10],
            vec![1.0 / 3.0; 3],
            vec![0.5, ulp_above_half],
            vec![0.5, 0.5f64.next_down().next_down()],
            vec![0.7, 0.2, 0.1],
            vec![0.3, 0.3, 0.3],
            vec![0.4, 0.4, 0.3],
            vec![0.6, 0.6, 0.1],
            vec![1.0, 0.0, 0.0],
            vec![0.05; 20],
        ] {
            assert_pick_matches_scan(&row);
        }
    }

    #[test]
    fn tiny_and_near_one_cells_match_the_scan() {
        let subnormal = f64::MIN_POSITIVE / 4.0;
        for row in [
            vec![1e-300, 0.5, 0.5],
            vec![0.5, 1e-300, 0.5 - 1e-300],
            vec![subnormal, 1.0],
            vec![5e-324, 5e-324, 1.0],
            vec![f64::from_bits(TOP), 1.0 - f64::from_bits(TOP)],
            vec![1.0 - 1e-16, 1e-16],
            vec![1e-16, 1.0 - 1e-16, 0.0],
        ] {
            assert_pick_matches_scan(&row);
        }
    }

    #[test]
    fn the_pick_matches_the_scan_on_negative_cells() {
        // Only a negative cell makes a later stop threshold fall below an
        // earlier one; the prefix maximum keeps the count exact. In
        // `[0.25, -0.25, 1.0]` the second threshold is 2^-56 while
        // its running sum is 0, so the search widens across the exponents.
        for row in [
            &[0.5, -0.2, 0.7][..],
            &[-0.1, 0.6, 0.5],
            &[0.3, 0.4, -0.5, 0.8],
            &[0.25, -0.25, 1.0],
        ] {
            assert_pick_matches_scan(row);
            assert!(thresholds(row).windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn random_rows_with_zero_cells_match_the_scan() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..300 {
            let card = rng.gen_range(1..41);
            let mut row: Vec<f64> = (0..card)
                .map(|_| if rng.gen_bool(0.3) { 0.0 } else { rng.gen() })
                .collect();
            let total: f64 = row.iter().sum();
            if total > 0.0 {
                row.iter_mut().for_each(|p| *p /= total);
            }
            assert_pick_matches_scan(&row);
            let ts = thresholds(&row);
            for _ in 0..50 {
                let u: f64 = rng.gen();
                assert_eq!(pick(&ts, u), scan(&row, u));
            }
        }
    }

    fn chain() -> BayesianNetwork {
        let schema = example_schema();
        BayesianNetwork::new(
            schema,
            vec![vec![], vec![AttrId(0)], vec![AttrId(1)]],
            vec![
                Cpt {
                    card: 2,
                    parent_cards: vec![],
                    table: vec![0.3, 0.7],
                },
                Cpt {
                    card: 3,
                    parent_cards: vec![2],
                    table: vec![0.6, 0.2, 0.2, 0.1, 0.1, 0.8],
                },
                Cpt {
                    card: 3,
                    parent_cards: vec![3],
                    table: vec![0.5, 0.25, 0.25, 0.3, 0.2, 0.5, 0.4, 0.3, 0.3],
                },
            ],
        )
    }

    #[test]
    fn empirical_marginals_match_exact() {
        let net = chain();
        let mut rng = SmallRng::seed_from_u64(5);
        let s = forward_sample(&net, 60_000, &mut rng);
        for attr in 0..3 {
            let counts = s.group_row_counts(&[AttrId(attr)]);
            for v in 0..net.schema().domain(AttrId(attr)).size() as u32 {
                let emp = counts.get(&vec![v]).copied().unwrap_or(0) as f64 / 60_000.0;
                let exact = point_probability(&net, &[AttrId(attr)], &[v]);
                assert!(
                    (emp - exact).abs() < 0.01,
                    "attr {attr} value {v}: empirical {emp} vs exact {exact}"
                );
            }
        }
    }

    #[test]
    fn scaled_samples_total_population() {
        let net = chain();
        let mut rng = SmallRng::seed_from_u64(6);
        let samples = forward_samples(&net, 3, 100, 5_000.0, &mut rng);
        assert_eq!(samples.len(), 3);
        for s in &samples {
            assert!((s.total_weight() - 5_000.0).abs() < 1e-6);
        }
    }
}
