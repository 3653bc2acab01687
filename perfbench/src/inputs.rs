//! The shared world and every operation stream, derived from the seed alone.
//!
//! All of this is harness work and stays outside every timing: the flights
//! population, the biased Corners sample, the t-cherry aggregate selection,
//! the query pools with their population truths, and the ingest batches.
//! The population itself is dropped once the inputs are made; the program
//! under test only ever receives the sample, the aggregates, the SQL text
//! and the batch rows.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use themis_aggregates::gamma::all_aggregates_of_dim;
use themis_aggregates::{select_tcherry, AggregateSet};
use themis_bench::workload::{attr_subsets, pick_point_queries, Hitter};
use themis_core::ThemisConfig;
use themis_data::datasets::flights::{FlightsConfig, FlightsDataset};
use themis_data::{AttrId, Relation};
use themis_query::{Catalog, EngineOptions, QueryResult};

/// Table 5's grouped queries Q1–Q5 (as in `fig6_sql_queries`), plus one
/// two-key `GROUP BY` that returns about 240 groups. Q6, the self-join, is
/// left out on purpose: it costs about 35 grouped scans and would turn the
/// workload into a join benchmark.
pub const GROUPED_QUERIES: [&str; 6] = [
    "SELECT origin_state, AVG(elapsed_time) FROM F GROUP BY origin_state",
    "SELECT origin_state, AVG(elapsed_time) FROM F WHERE dest_state = 'CA' GROUP BY origin_state",
    "SELECT dest_state, AVG(elapsed_time) FROM F WHERE origin_state = 'CA' GROUP BY dest_state",
    "SELECT origin_state, COUNT(*) FROM F WHERE elapsed_time < 4 GROUP BY origin_state",
    "SELECT dest_state, COUNT(*) FROM F WHERE elapsed_time < 4 GROUP BY dest_state",
    "SELECT fl_date, origin_state, COUNT(*) FROM F GROUP BY fl_date, origin_state",
];

/// The table name every query and ingest batch addresses.
pub const TABLE: &str = "F";

/// Sizes of the shared world. [`Scale::full`] is what the benchmark
/// measures; [`Scale::tiny`] keeps the package's own tests fast.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Population rows generated by `FlightsDataset::generate`.
    pub population: usize,
    /// Rows of each BN replicate (`ThemisConfig::bn_sample_size`).
    pub replicate_rows: usize,
    /// Point queries per hitter class (heavy, light, random).
    pub points_per_class: usize,
    /// Answer-cache entries on `point_cached`: a quarter of the point pool.
    pub cache_entries: usize,
    /// Rows per ingest batch.
    pub batch_rows: usize,
    /// Ingest batches the traced run replays layer by layer, on every
    /// workload: the first of the seeded batch sequence.
    pub replayed_batches: usize,
    /// Cold set-ups per run whose median is `setup_s`.
    pub setups: usize,
}

impl Scale {
    /// The measured scale.
    pub fn full() -> Scale {
        Scale {
            population: 60_000,
            replicate_rows: 20_000,
            points_per_class: 128,
            cache_entries: 96,
            batch_rows: 100,
            replayed_batches: 8,
            setups: 7,
        }
    }

    /// A seconds-long scale for the package's tests.
    #[cfg(test)]
    pub fn tiny() -> Scale {
        Scale {
            population: 6_000,
            replicate_rows: 1_000,
            points_per_class: 8,
            cache_entries: 6,
            batch_rows: 20,
            replayed_batches: 2,
            setups: 2,
        }
    }
}

/// One point query of the pool: its SQL, the tuple it pins, and its
/// population count.
#[derive(Debug, Clone, PartialEq)]
pub struct PointQuery {
    /// `SELECT COUNT(*) FROM F WHERE a = 'x' AND b = 'y'`.
    pub sql: String,
    /// The pinned attributes.
    pub attrs: Vec<AttrId>,
    /// The pinned values.
    pub values: Vec<u32>,
    /// True population count.
    pub truth: f64,
}

/// Everything a run needs, made from the seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The seed everything below derives from.
    pub seed: u64,
    /// The sizes used.
    pub scale: Scale,
    /// The 100%-biased Corners sample.
    pub sample: Relation,
    /// The four t-cherry-selected 2-D population aggregates.
    pub aggregates: AggregateSet,
    /// Population size `n`.
    pub population_size: f64,
    /// Model configuration: IPF, BB-mode BN, K = 10.
    pub config: ThemisConfig,
    /// Population truth of each [`GROUPED_QUERIES`] entry.
    pub grouped_truth: Vec<QueryResult>,
    /// The 384-query point pool, in Zipf rank order.
    pub points: Vec<PointQuery>,
    /// Label rows drawn uniformly from the population, in batch order.
    pub batch_pool: Vec<Vec<String>>,
}

/// SplitMix64: decorrelates the per-stream seeds derived from one seed.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Engine options of the server and of every in-process mirror: one
/// engine thread, so intra-query threads do not fight the client and
/// ingest threads for the two shared vCPUs.
pub fn engine() -> EngineOptions {
    EngineOptions::with_threads(1)
}

impl Inputs {
    /// Make every input of a run from `seed`. `max_batches` is the most
    /// ingest batches any workload of the run replays.
    pub fn generate(seed: u64, scale: &Scale, max_batches: usize) -> Inputs {
        let dataset = FlightsDataset::generate(FlightsConfig {
            n: scale.population,
            seed: mix(seed, 1),
            ..FlightsConfig::default()
        });
        let population = &dataset.population;
        let sample =
            dataset.sample_corners_with_bias(1.0, &mut SmallRng::seed_from_u64(mix(seed, 2)));

        let attrs: Vec<AttrId> = population.schema().attr_ids().collect();
        let candidates = all_aggregates_of_dim(population, &attrs, 2);
        let aggregates = AggregateSet::from_results(
            select_tcherry(&candidates, 4)
                .into_iter()
                .map(|i| candidates[i].clone())
                .collect(),
        );

        let mut catalog = Catalog::new();
        catalog.register(TABLE, population.clone());
        let grouped_truth = GROUPED_QUERIES
            .iter()
            .map(|sql| {
                themis_query::run_sql(&catalog, sql, &engine())
                    .unwrap_or_else(|e| panic!("population truth of {sql}: {e}"))
            })
            .collect();

        let points = point_pool(population, scale.points_per_class, mix(seed, 3));

        let mut rng = SmallRng::seed_from_u64(mix(seed, 4));
        let schema = population.schema().clone();
        let batch_pool = (0..max_batches * scale.batch_rows)
            .map(|_| {
                let row = rng.gen_range(0..population.len());
                schema
                    .attr_ids()
                    .map(|a| schema.domain(a).label(population.value(row, a)).to_string())
                    .collect()
            })
            .collect();

        Inputs {
            seed,
            scale: scale.clone(),
            sample,
            aggregates,
            population_size: population.len() as f64,
            config: ThemisConfig {
                bn_sample_size: Some(scale.replicate_rows),
                ..ThemisConfig::default()
            },
            grouped_truth,
            points,
            batch_pool,
        }
    }

    /// Ingest batch `i` (0-based) of the fixed batch sequence.
    pub fn batch(&self, i: usize) -> &[Vec<String>] {
        let rows = self.scale.batch_rows;
        &self.batch_pool[i * rows..(i + 1) * rows]
    }

    /// The sample grown by the first `batches` batches, as a cold build
    /// sees it.
    pub fn grown_sample(&self, batches: usize) -> Relation {
        let rows = &self.batch_pool[..batches * self.scale.batch_rows];
        themis_live::grow_relation(&self.sample, rows)
            .expect("batch rows come from the population's domains")
    }

    /// The operation stream of `groupby_hybrid` (and of `ingest_live`'s
    /// query connection): indices into [`GROUPED_QUERIES`], drawn uniformly
    /// in seeded blocks that hold each query once, so every run asks each
    /// query equally often and the latency percentiles do not move with
    /// the mix.
    pub fn grouped_stream(&self) -> impl Iterator<Item = usize> {
        let mut rng = SmallRng::seed_from_u64(mix(self.seed, 5));
        std::iter::repeat_with(move || {
            let mut block: Vec<usize> = (0..GROUPED_QUERIES.len()).collect();
            block.shuffle(&mut rng);
            block
        })
        .flatten()
    }

    /// The operation stream of `point_cached`: indices into
    /// [`Inputs::points`], Zipf(s = 1) over the pool's rank order.
    pub fn point_stream(&self) -> impl Iterator<Item = usize> {
        let mut rng = SmallRng::seed_from_u64(mix(self.seed, 6));
        let mut cumulative: Vec<f64> = (0..self.points.len())
            .scan(0.0, |total, k| {
                *total += 1.0 / (k as f64 + 1.0);
                Some(*total)
            })
            .collect();
        let total = cumulative.last().copied().unwrap_or(1.0);
        for c in &mut cumulative {
            *c /= total;
        }
        std::iter::repeat_with(move || {
            let u: f64 = rng.gen();
            cumulative
                .partition_point(|&c| c <= u)
                .min(cumulative.len() - 1)
        })
    }
}

/// The point pool: heavy, light and random hitters over every 2-attribute
/// set, shuffled so Zipf ranks mix the three classes.
fn point_pool(population: &Relation, per_class: usize, seed: u64) -> Vec<PointQuery> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let attrs: Vec<AttrId> = population.schema().attr_ids().collect();
    let sets = attr_subsets(&attrs, 2..=2);
    let schema = population.schema();
    let mut pool: Vec<PointQuery> = [Hitter::Heavy, Hitter::Light, Hitter::Random]
        .into_iter()
        .flat_map(|hitter| pick_point_queries(population, &sets, hitter, per_class, &mut rng))
        .map(|q| {
            let predicate: Vec<String> = q
                .attrs
                .iter()
                .zip(&q.values)
                .map(|(&a, &v)| {
                    format!(
                        "{} = '{}'",
                        schema.attr(a).name(),
                        schema.domain(a).label(v)
                    )
                })
                .collect();
            PointQuery {
                sql: format!(
                    "SELECT COUNT(*) FROM {TABLE} WHERE {}",
                    predicate.join(" AND ")
                ),
                attrs: q.attrs,
                values: q.values,
                truth: q.truth,
            }
        })
        .collect();
    pool.shuffle(&mut rng);
    pool
}
