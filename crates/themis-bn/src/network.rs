//! Bayesian networks: DAG structure plus conditional probability tables.

use std::sync::Arc;
use themis_data::{AttrId, Schema};
use themis_solver::MleReport;

/// Conditional probability table of one node.
///
/// Layout: `table[config * card + value]` where `config` is the mixed-radix
/// index of the parent assignment (first parent most significant) and `card`
/// is the node's domain size.
#[derive(Debug, Clone, PartialEq)]
pub struct Cpt {
    /// Domain size of the child.
    pub card: usize,
    /// Domain sizes of the parents, in parent order.
    pub parent_cards: Vec<usize>,
    /// Flat probability table.
    pub table: Vec<f64>,
}

impl Cpt {
    /// A uniform CPT.
    pub fn uniform(card: usize, parent_cards: Vec<usize>) -> Self {
        let configs: usize = parent_cards.iter().product::<usize>().max(1);
        Self {
            card,
            parent_cards,
            table: vec![1.0 / card as f64; configs * card],
        }
    }

    /// Number of parent configurations.
    pub fn configs(&self) -> usize {
        self.parent_cards.iter().product::<usize>().max(1)
    }

    /// Mixed-radix index of a parent assignment.
    ///
    /// # Panics
    /// Panics if `parent_values.len() != parent_cards.len()`.
    pub fn config_index(&self, parent_values: &[u32]) -> usize {
        assert_eq!(parent_values.len(), self.parent_cards.len());
        let mut idx = 0usize;
        for (&v, &c) in parent_values.iter().zip(&self.parent_cards) {
            debug_assert!((v as usize) < c, "parent value out of range");
            idx = idx * c + v as usize;
        }
        idx
    }

    /// `Pr(child = value | parents = parent_values)`.
    pub fn prob(&self, value: u32, parent_values: &[u32]) -> f64 {
        let config = self.config_index(parent_values);
        self.table[config * self.card + value as usize]
    }

    /// The probability row for one parent configuration.
    pub fn row(&self, config: usize) -> &[f64] {
        &self.table[config * self.card..(config + 1) * self.card]
    }

    /// Mutable probability row.
    pub fn row_mut(&mut self, config: usize) -> &mut [f64] {
        &mut self.table[config * self.card..(config + 1) * self.card]
    }

    /// Clamp tiny negative entries to zero and renormalize each row
    /// (footnote 7 of the paper: approximate constraint solving occasionally
    /// produces very small negative parameters).
    pub fn clamp_and_renormalize(&mut self) {
        for config in 0..self.configs() {
            let row = self.row_mut(config);
            for p in row.iter_mut() {
                if *p < 0.0 {
                    *p = 0.0;
                }
            }
            let sum: f64 = row.iter().sum();
            if sum > 0.0 {
                row.iter_mut().for_each(|p| *p /= sum);
            } else {
                let u = 1.0 / row.len() as f64;
                row.iter_mut().for_each(|p| *p = u);
            }
        }
    }

    /// Whether every row sums to 1 within `tol` and is non-negative.
    pub fn is_normalized(&self, tol: f64) -> bool {
        (0..self.configs()).all(|c| {
            let row = self.row(c);
            let sum: f64 = row.iter().sum();
            (sum - 1.0).abs() <= tol && row.iter().all(|&p| p >= -tol)
        })
    }
}

/// A discrete Bayesian network over a relation schema: one node per
/// attribute.
#[derive(Debug, Clone)]
pub struct BayesianNetwork {
    schema: Arc<Schema>,
    /// `parents[i]` — parent attributes of node `i`, in CPT order.
    parents: Vec<Vec<AttrId>>,
    /// `cpts[i]` — CPT of node `i`.
    cpts: Vec<Cpt>,
    /// `fit_reports[i]` — the solve that fitted `cpts[i]`; empty unless
    /// parameter learning built the network.
    fit_reports: Vec<MleReport>,
}

impl BayesianNetwork {
    /// A fully disconnected network with uniform marginals.
    pub fn disconnected(schema: Arc<Schema>) -> Self {
        let parents = vec![Vec::new(); schema.arity()];
        let cpts = schema
            .attr_ids()
            .map(|a| Cpt::uniform(schema.domain(a).size(), Vec::new()))
            .collect();
        Self {
            schema,
            parents,
            cpts,
            fit_reports: Vec::new(),
        }
    }

    /// Build from explicit structure and CPTs.
    ///
    /// # Panics
    /// Panics if the shapes are inconsistent or the graph has a cycle.
    pub fn new(schema: Arc<Schema>, parents: Vec<Vec<AttrId>>, cpts: Vec<Cpt>) -> Self {
        assert_eq!(parents.len(), schema.arity());
        assert_eq!(cpts.len(), schema.arity());
        for (i, (ps, cpt)) in parents.iter().zip(&cpts).enumerate() {
            assert_eq!(
                cpt.card,
                schema.domain(AttrId(i)).size(),
                "CPT cardinality mismatch at node {i}"
            );
            assert_eq!(cpt.parent_cards.len(), ps.len());
            for (p, &pc) in ps.iter().zip(&cpt.parent_cards) {
                assert_eq!(pc, schema.domain(*p).size(), "parent cardinality mismatch");
            }
            assert_eq!(cpt.table.len(), cpt.configs() * cpt.card);
        }
        let net = Self {
            schema,
            parents,
            cpts,
            fit_reports: Vec::new(),
        };
        assert!(
            net.topological_order().is_some(),
            "parent structure contains a cycle"
        );
        net
    }

    /// The schema the network models.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of nodes.
    pub fn arity(&self) -> usize {
        self.parents.len()
    }

    /// Parents of a node.
    pub fn parents(&self, node: AttrId) -> &[AttrId] {
        &self.parents[node.0]
    }

    /// CPT of a node.
    pub fn cpt(&self, node: AttrId) -> &Cpt {
        &self.cpts[node.0]
    }

    /// Mutable CPT of a node.
    pub fn cpt_mut(&mut self, node: AttrId) -> &mut Cpt {
        &mut self.cpts[node.0]
    }

    /// One report per node, in schema order, from the constrained solve
    /// that fitted its CPT ([`crate::parameters::learn_parameters`]): zero
    /// iterations for a closed-form factor, the loop's counts otherwise.
    /// Empty for networks built by hand.
    pub fn fit_reports(&self) -> &[MleReport] {
        &self.fit_reports
    }

    /// Record the per-node fit reports (see [`Self::fit_reports`]).
    pub(crate) fn set_fit_reports(&mut self, reports: Vec<MleReport>) {
        self.fit_reports = reports;
    }

    /// All directed edges `(parent, child)`.
    pub fn edges(&self) -> Vec<(AttrId, AttrId)> {
        let mut out = Vec::new();
        for (child, ps) in self.parents.iter().enumerate() {
            for &p in ps {
                out.push((p, AttrId(child)));
            }
        }
        out
    }

    /// Topological order of the nodes, or `None` if the graph has a cycle.
    pub fn topological_order(&self) -> Option<Vec<AttrId>> {
        topological_order(&self.parents)
    }

    /// Joint probability of a full assignment (one value per attribute in
    /// schema order).
    pub fn joint_prob(&self, values: &[u32]) -> f64 {
        assert_eq!(values.len(), self.arity());
        let mut p = 1.0;
        let mut parent_vals = Vec::new();
        for (i, ps) in self.parents.iter().enumerate() {
            parent_vals.clear();
            parent_vals.extend(ps.iter().map(|&pa| values[pa.0]));
            p *= self.cpts[i].prob(values[i], &parent_vals);
            if p == 0.0 {
                return 0.0;
            }
        }
        p
    }

    /// Number of free parameters `Σ_i (N_i − 1) · Π_{p ∈ Pa(i)} N_p`.
    pub fn parameter_count(&self) -> usize {
        self.cpts
            .iter()
            .map(|c| (c.card - 1) * c.configs())
            .sum()
    }

    /// Whether all CPTs are normalized within `tol`.
    pub fn is_normalized(&self, tol: f64) -> bool {
        self.cpts.iter().all(|c| c.is_normalized(tol))
    }
}

/// Kahn's algorithm over a parent-list representation.
pub(crate) fn topological_order(parents: &[Vec<AttrId>]) -> Option<Vec<AttrId>> {
    let n = parents.len();
    let mut indegree: Vec<usize> = parents.iter().map(|p| p.len()).collect();
    // children[i] = nodes that have i as a parent.
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (child, ps) in parents.iter().enumerate() {
        for p in ps {
            children[p.0].push(child);
        }
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(node) = queue.pop() {
        order.push(AttrId(node));
        for &c in &children[node] {
            indegree[c] -= 1;
            if indegree[c] == 0 {
                queue.push(c);
            }
        }
    }
    (order.len() == n).then_some(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_data::paper_example::example_schema;

    /// date → o_st → d_st chain with hand-built CPTs.
    fn chain() -> BayesianNetwork {
        let schema = example_schema();
        let cpt_date = Cpt {
            card: 2,
            parent_cards: vec![],
            table: vec![0.5, 0.5],
        };
        let cpt_o = Cpt {
            card: 3,
            parent_cards: vec![2],
            table: vec![
                0.4, 0.2, 0.4, // date = 01
                0.2, 0.6, 0.2, // date = 02
            ],
        };
        let cpt_d = Cpt {
            card: 3,
            parent_cards: vec![3],
            table: vec![
                0.5, 0.25, 0.25, // o = FL
                0.3, 0.2, 0.5, // o = NC
                0.4, 0.3, 0.3, // o = NY
            ],
        };
        BayesianNetwork::new(
            schema,
            vec![vec![], vec![AttrId(0)], vec![AttrId(1)]],
            vec![cpt_date, cpt_o, cpt_d],
        )
    }

    #[test]
    fn joint_prob_multiplies_chain_factors() {
        let net = chain();
        // Pr(01, NC, NY) = 0.5 * 0.2 * 0.5.
        let p = net.joint_prob(&[0, 1, 2]);
        assert!((p - 0.05).abs() < 1e-12);
    }

    #[test]
    fn topological_order_respects_edges() {
        let net = chain();
        let order = net.topological_order().unwrap();
        let pos = |a: AttrId| order.iter().position(|&x| x == a).unwrap();
        assert!(pos(AttrId(0)) < pos(AttrId(1)));
        assert!(pos(AttrId(1)) < pos(AttrId(2)));
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cycle_is_rejected() {
        let schema = example_schema();
        let cpts = vec![
            Cpt::uniform(2, vec![3]),
            Cpt::uniform(3, vec![2]),
            Cpt::uniform(3, vec![]),
        ];
        BayesianNetwork::new(
            schema,
            vec![vec![AttrId(1)], vec![AttrId(0)], vec![]],
            cpts,
        );
    }

    #[test]
    fn parameter_count_is_decomposable() {
        let net = chain();
        // date: 1, o_st: 2 configs × 2 free, d_st: 3 × 2.
        assert_eq!(net.parameter_count(), 1 + 4 + 6);
    }

    #[test]
    fn clamp_and_renormalize_fixes_negatives() {
        let mut cpt = Cpt {
            card: 2,
            parent_cards: vec![],
            table: vec![1.0000001, -1e-7],
        };
        cpt.clamp_and_renormalize();
        assert!(cpt.is_normalized(1e-12));
        assert_eq!(cpt.table[1], 0.0);
    }

    #[test]
    fn disconnected_network_is_uniform() {
        let net = BayesianNetwork::disconnected(example_schema());
        assert!((net.joint_prob(&[0, 0, 0]) - 0.5 / 3.0 / 3.0).abs() < 1e-12);
        assert!(net.is_normalized(1e-12));
    }

    #[test]
    fn edges_lists_parent_child_pairs() {
        let net = chain();
        let mut e = net.edges();
        e.sort();
        assert_eq!(
            e,
            vec![(AttrId(0), AttrId(1)), (AttrId(1), AttrId(2))]
        );
    }
}
