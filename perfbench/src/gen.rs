//! Seeded, untimed input generation for the push workloads, with the
//! static oracle computed alongside: after every batch the generator's
//! own mirror graph is ranked with `top_k_by_match`, so each pattern's
//! expected answer and change points are known before the program runs.

use std::collections::{BTreeMap, BTreeSet};

use gpm_core::{top_k_by_match, RankedMatch, TopKConfig};
use gpm_datagen::update_stream::{update_stream, UpdateStreamConfig};
use gpm_graph::{DeltaOp, DiGraph, DynGraph, GraphDelta, Label, NodeId};
use gpm_pattern::Pattern;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A generated update stream plus what the oracle expects of it.
pub struct Stream {
    pub batches: Vec<GraphDelta>,
    /// `expected[b][p]`: pattern `p`'s ranked answer after `b` batches
    /// (`b = 0` is the base graph).
    pub expected: Vec<Vec<Vec<RankedMatch>>>,
    /// Batches after which served answers are compared with the oracle
    /// (dethrones, head toggles and the last batch).
    pub checkpoints: Vec<bool>,
    /// The mirror after the last batch.
    pub final_graph: DiGraph,
}

/// The generator's mirror and the static oracle over it.
struct Oracle<'a> {
    mirror: DynGraph,
    patterns: &'a [Pattern],
    /// Labels each pattern can match (`None`: a predicate without a label,
    /// so every batch may touch it).
    labels: Vec<Option<BTreeSet<Label>>>,
    cfg: TopKConfig,
    current: Vec<Vec<RankedMatch>>,
    expected: Vec<Vec<Vec<RankedMatch>>>,
}

impl<'a> Oracle<'a> {
    fn new(base: &DiGraph, patterns: &'a [Pattern], k: usize) -> Self {
        let cfg = TopKConfig::new(k);
        let current: Vec<_> =
            patterns.iter().map(|q| top_k_by_match(base, q, &cfg).matches).collect();
        let labels = patterns
            .iter()
            .map(|q| {
                q.nodes().map(|u| q.predicate(u).primary_label()).collect::<Option<BTreeSet<_>>>()
            })
            .collect();
        Oracle {
            mirror: DynGraph::from_digraph(base),
            patterns,
            labels,
            cfg,
            expected: vec![current.clone()],
            current,
        }
    }

    /// Labels of every node `delta` names, read before it applies. A batch
    /// can only move the answer of a pattern that can match one of them:
    /// simulation and relevant sets range over candidate nodes only.
    fn touched_labels(&self, delta: &GraphDelta) -> BTreeSet<Label> {
        let n = self.mirror.node_count() as NodeId;
        let label = |v: NodeId| (v < n).then(|| self.mirror.label(v));
        let mut out = BTreeSet::new();
        for op in &delta.ops {
            match op {
                DeltaOp::AddNode(l) => {
                    out.insert(*l);
                }
                DeltaOp::AddEdge(s, t) | DeltaOp::RemoveEdge(s, t) => {
                    out.extend(label(*s));
                    out.extend(label(*t));
                }
                DeltaOp::RemoveNode(v)
                | DeltaOp::SetAttr { node: v, .. }
                | DeltaOp::UnsetAttr { node: v, .. } => out.extend(label(*v)),
            }
        }
        out
    }

    fn apply(&mut self, delta: &GraphDelta) {
        let touched = self.touched_labels(delta);
        self.mirror.apply(delta).expect("generated batches are valid");
        let stale: Vec<usize> = (0..self.patterns.len())
            .filter(|&p| self.labels[p].as_ref().is_none_or(|ls| !ls.is_disjoint(&touched)))
            .collect();
        if !stale.is_empty() {
            let g = self.mirror.snapshot();
            for p in stale {
                self.current[p] = top_k_by_match(&g, &self.patterns[p], &self.cfg).matches;
            }
        }
        self.expected.push(self.current.clone());
    }

    fn finish(self, batches: Vec<GraphDelta>, checkpoints: Vec<bool>) -> Stream {
        Stream {
            expected: self.expected,
            checkpoints,
            final_graph: self.mirror.snapshot(),
            batches,
        }
    }
}

/// One mixed `update_stream` batch of `batch_ops` operations followed by
/// three single-node dethrone batches, repeating (dethrone batches only
/// when `batch_ops` is 0). Three to one keeps each latency percentile
/// inside one kind of batch instead of on the boundary between two.
///
/// A dethrone batch removes one node of a pattern's top-k, chosen with
/// `top_k_by_match` on the generator's mirror, so the answer really moves.
/// The patterns take turns, from a seeded start, so every run dethrones
/// each of them equally often: diversifying one pattern can cost ten times
/// as much as another, and a random pick would make the latency
/// percentiles follow the seed. The node is the highest-ranked one with
/// at most [`MAX_DETHRONE_DEGREE`] links (else the #1). The #1 nodes are
/// hubs whose degrees differ several fold from seed to seed, and the
/// batch's cost follows the degree. The node re-joins in the same batch
/// under a fresh id with its label, attributes and links, so long runs
/// keep the graph's size and every pattern's matches instead of draining
/// them.
///
/// Mixed batches are drawn up front against the base graph. Their node
/// ids are mapped onto the live graph as it runs: a node the mixed stream
/// created gets the id the live graph assigned it, and a dethroned node
/// stands for the node that re-joined in its place.
pub fn dethrone_stream(
    base: &DiGraph,
    patterns: &[Pattern],
    k: usize,
    batches: usize,
    batch_ops: usize,
    seed: u64,
) -> Stream {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD37_4801);
    let mut turn = rng.random_range(0..patterns.len().max(1));
    let mut oracle = Oracle::new(base, patterns, k);
    let mut mixed = if batch_ops > 0 {
        update_stream(base, &UpdateStreamConfig::new(batches / 4 + 1, batch_ops, seed)).into_iter()
    } else {
        Vec::new().into_iter()
    };
    let base_n = base.node_count() as NodeId;
    let mut created: Vec<NodeId> = Vec::new();
    let mut rejoined: BTreeMap<NodeId, NodeId> = BTreeMap::new();
    let (mut out, mut checkpoints) = (Vec::with_capacity(batches), Vec::with_capacity(batches));
    for i in 0..batches {
        let mut next_id = oracle.mirror.node_count() as NodeId;
        let delta = if batch_ops > 0 && i % 4 == 0 {
            let d = mixed.next().expect("enough mixed batches");
            let mut ops = Vec::with_capacity(d.ops.len());
            for op in d.ops {
                let resolve = |v: NodeId| {
                    let mut v = if v >= base_n { created[(v - base_n) as usize] } else { v };
                    while let Some(&w) = rejoined.get(&v) {
                        v = w;
                    }
                    v
                };
                ops.push(match op {
                    DeltaOp::AddNode(l) => {
                        created.push(next_id);
                        next_id += 1;
                        DeltaOp::AddNode(l)
                    }
                    DeltaOp::AddEdge(s, t) => DeltaOp::AddEdge(resolve(s), resolve(t)),
                    DeltaOp::RemoveEdge(s, t) => DeltaOp::RemoveEdge(resolve(s), resolve(t)),
                    DeltaOp::RemoveNode(v) => DeltaOp::RemoveNode(resolve(v)),
                    DeltaOp::SetAttr { node, key, value } => {
                        DeltaOp::SetAttr { node: resolve(node), key, value }
                    }
                    DeltaOp::UnsetAttr { node, key } => {
                        DeltaOp::UnsetAttr { node: resolve(node), key }
                    }
                });
            }
            checkpoints.push(false);
            GraphDelta { ops }
        } else {
            let g = &oracle.mirror;
            let degree = |v: NodeId| g.out_degree(v) + g.predecessors(v).count();
            let ranked: Vec<usize> =
                (0..patterns.len()).filter(|&p| !oracle.current[p].is_empty()).collect();
            assert!(!ranked.is_empty(), "every answer is empty after {i} batches");
            let p = ranked[turn % ranked.len()];
            turn += 1;
            let answer = &oracle.current[p];
            let top = answer
                .iter()
                .map(|m| m.node)
                .find(|&v| degree(v) <= MAX_DETHRONE_DEGREE)
                .unwrap_or(answer[0].node);
            let mut d = GraphDelta::new().remove_node(top).add_node(g.label(top));
            for (key, value) in g.attributes(top).iter() {
                d = d.set_attr(next_id, key, value.clone());
            }
            for w in g.successors(top).filter(|&w| w != top).collect::<Vec<_>>() {
                d = d.add_edge(next_id, w);
            }
            for u in g.predecessors(top).filter(|&u| u != top).collect::<Vec<_>>() {
                d = d.add_edge(u, next_id);
            }
            rejoined.insert(top, next_id);
            checkpoints.push(true);
            d
        };
        oracle.apply(&delta);
        out.push(delta);
    }
    if let Some(last) = checkpoints.last_mut() {
        *last = true;
    }
    oracle.finish(out, checkpoints)
}

/// Largest degree of a dethroned node (see [`dethrone_stream`]).
const MAX_DETHRONE_DEGREE: usize = 32;

/// Layout of `delta_bench::bounded_workload`: one head cycle of
/// `HEAD_LEN` nodes, then short cycles of `SHORT_LEN` nodes, each with the
/// chord `(base, base + 3)`.
pub const HEAD_LEN: u32 = 128;
pub const SHORT_LEN: u32 = 50;

/// Share of short cycles each batch touches, repeating. The 2% batches are
/// the common case; the 25% and 100% batches push the condensation past
/// its churn gate. A 25% or 100% batch and the 2% batch after it are the
/// slow ones: 10 of 32, so the latency p50 falls among the fast batches
/// and the p90 among the slow ones, not on the boundary between the two.
pub const DIRTY_SCHEDULE: [f64; 32] = [
    0.02, 0.02, 0.02, 0.25, 0.02, 0.02, 0.02, 0.02, 0.02, 0.25, 0.02, 0.02, 0.02, 0.02, 0.02, 0.25,
    0.02, 0.02, 0.02, 0.02, 0.02, 0.25, 0.02, 0.02, 0.02, 0.02, 0.02, 1.0, 0.02, 0.02, 0.02, 0.02,
];

/// The region-churn stream over the bounded-refresh cycle graph. Each
/// batch toggles the chord of a seeded share of short cycles (following
/// [`DIRTY_SCHEDULE`]), and in a quarter of those cycles also breaks or
/// restores one cycle edge. Every batch also kills or revives one edge of
/// the head cycle, which holds the top-k, so the answer moves.
pub fn churn_stream(base: &DiGraph, q: &Pattern, k: usize, batches: usize, seed: u64) -> Stream {
    let shorts = (base.node_count() as u32 - HEAD_LEN) / SHORT_LEN;
    assert!(
        base.has_edge(HEAD_LEN - 1, 0) && base.has_edge(HEAD_LEN, HEAD_LEN + 3),
        "graph has the bounded-refresh layout"
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4_0C4E);
    let patterns = std::slice::from_ref(q);
    let mut oracle = Oracle::new(base, patterns, k);
    let mut chord = vec![true; shorts as usize];
    let mut broken: Vec<Option<(NodeId, NodeId)>> = vec![None; shorts as usize];
    let mut head_cut: Option<(NodeId, NodeId)> = None;
    let (mut out, mut checkpoints) = (Vec::with_capacity(batches), Vec::with_capacity(batches));
    for i in 0..batches {
        let frac = DIRTY_SCHEDULE[i % DIRTY_SCHEDULE.len()];
        let touched = ((frac * shorts as f64).round() as u32).clamp(1, shorts);
        let mut cycles: Vec<u32> = (0..shorts).collect();
        for j in 0..touched as usize {
            let r = rng.random_range(j..cycles.len());
            cycles.swap(j, r);
        }
        let mut d = GraphDelta::new();
        for &c in &cycles[..touched as usize] {
            let b = HEAD_LEN + c * SHORT_LEN;
            let c = c as usize;
            d = if chord[c] { d.remove_edge(b, b + 3) } else { d.add_edge(b, b + 3) };
            chord[c] = !chord[c];
            if let Some((s, t)) = broken[c].take() {
                d = d.add_edge(s, t);
            } else if rng.random_range(0..4u32) == 0 {
                let j = rng.random_range(0..SHORT_LEN);
                let e = (b + j, b + (j + 1) % SHORT_LEN);
                d = d.remove_edge(e.0, e.1);
                broken[c] = Some(e);
            }
        }
        d = match head_cut.take() {
            Some((s, t)) => d.add_edge(s, t),
            None => {
                let h = rng.random_range(0..HEAD_LEN);
                let e = (h, (h + 1) % HEAD_LEN);
                head_cut = Some(e);
                d.remove_edge(e.0, e.1)
            }
        };
        checkpoints.push(true);
        oracle.apply(&d);
        out.push(d);
    }
    if let Some(last) = checkpoints.last_mut() {
        *last = true;
    }
    oracle.finish(out, checkpoints)
}
