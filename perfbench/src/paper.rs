//! The paper path: a query until its `TopKResult` (or `DivResult`), through
//! the four algorithms Section 6 compares — TopK, Match, TopKDH, TopKDiv.

use std::time::Instant;

use gpm_core::{
    top_k, top_k_by_match, top_k_diversified, top_k_diversified_heuristic, DivConfig, RankedMatch,
    TopKConfig,
};
use gpm_datagen::patterns::{extract_pattern, PatternGenConfig};
use gpm_graph::{Attributes, DiGraph, GraphBuilder, Label, NodeId};
use gpm_pattern::Pattern;
use gpm_ranking::{output_upper_bounds, RelevantSets};
use gpm_simulation::{compute_simulation, CandidateSpace};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::stats::interquartile_mean;
use crate::trace::Tracer;
use crate::{Check, Fault};

/// A generated graph, kept apart from the program as plain parts.
pub struct GraphParts {
    pub labels: Vec<Label>,
    pub attrs: Vec<Option<Attributes>>,
    pub edges: Vec<(NodeId, NodeId)>,
}

impl GraphParts {
    pub fn of(g: &DiGraph) -> Self {
        GraphParts {
            labels: g.labels().to_vec(),
            attrs: g.nodes().map(|v| g.attributes(v).cloned()).collect(),
            edges: g.edges().map(|e| (e.source, e.target)).collect(),
        }
    }

    /// Loads the parts into the program: `GraphBuilder` → `DiGraph`.
    pub fn load(&self) -> DiGraph {
        let mut b = GraphBuilder::with_capacity(self.labels.len(), self.edges.len());
        for (&l, a) in self.labels.iter().zip(&self.attrs) {
            match a {
                Some(a) => b.add_node_with_attrs(l, a.clone()),
                None => b.add_node(l),
            };
        }
        for &(s, t) in &self.edges {
            b.add_edge(s, t).expect("generated edges are in range");
        }
        b.build()
    }
}

/// One query of a suite: the graph it runs on, the pattern, its shape and
/// `|Mu|` at generation time.
#[derive(Clone)]
pub struct Query {
    pub graph: usize,
    pub pattern: Pattern,
    pub shape: (usize, usize),
    pub mu: usize,
}

/// Extracts `per_shape` patterns of each shape with `|Mu| > k`, first with
/// attribute predicates (like the paper's real-life queries), then label
/// only when the graph has too few attributed embeddings of that shape.
/// `None` when the graph does not hold enough of some shape.
pub fn extract_suite(
    g: &DiGraph,
    graph: usize,
    shapes: &[(usize, usize)],
    dag: bool,
    per_shape: usize,
    k: usize,
    seed: u64,
) -> Option<Vec<Query>> {
    let mut out = Vec::new();
    for &(n, e) in shapes {
        let mut found = 0;
        'shape: for attrs in [Some(0.6), None] {
            for attempt in 0..4 * per_shape as u64 {
                if found == per_shape {
                    break 'shape;
                }
                let sub = seed.wrapping_mul(0x9E37_79B9).wrapping_add(attempt * 7919 + n as u64);
                let mut cfg = PatternGenConfig::new(n, e, dag, sub);
                cfg.min_matches = k + 1;
                cfg.max_tries = 40;
                cfg.attr_selectivity = attrs;
                if let Some(q) = extract_pattern(g, &cfg) {
                    let mu = compute_simulation(g, &q).output_matches(&q).len();
                    out.push(Query { graph, pattern: q, shape: (n, e), mu });
                    found += 1;
                }
            }
        }
        if found < per_shape {
            return None;
        }
    }
    Some(out)
}

/// What one suite pass measured.
#[derive(Default)]
pub struct PaperOut {
    /// Seconds per untraced run, by query and algorithm (TopK, Match,
    /// TopKDH, TopKDiv).
    pub secs: Vec<[Vec<f64>; 4]>,
    /// Untraced and traced per-query time (all four algorithms), for the
    /// trace overhead.
    pub untraced_query_s: Vec<f64>,
    pub traced_query_s: Vec<f64>,
    /// TopK instrumentation: waves, inspected matches, `|Mu|`, early stops.
    pub waves: u64,
    pub inspected: u64,
    pub total_matches: u64,
    pub early: u64,
    /// Σ F(TopKDH) and Σ F(TopKDiv).
    pub f_dh: f64,
    pub f_div: f64,
}

impl PaperOut {
    /// Queries per second of one algorithm over the suite: the suite's
    /// size over the sum of each query's interquartile mean time across
    /// passes, so a pass the machine slowed does not count.
    pub fn qps(&self, algo: usize) -> f64 {
        let secs: f64 = self.secs.iter().map(|q| interquartile_mean(&q[algo])).sum();
        self.secs.len() as f64 / secs
    }
}

const ALGOS: [&str; 4] = ["core.topk", "core.match", "core.topkdh", "core.topkdiv"];

fn relevances(m: &[RankedMatch]) -> Vec<u64> {
    m.iter().map(|m| m.relevance).collect()
}

/// The suite run closed-loop by one client, one pass per round, each pass
/// in an order drawn from the run's seed. Each query runs through all four
/// algorithms; TopK's relevances must equal Match's. Traced, every other
/// pass carries spans and also times the layer calls the algorithms are
/// built from (simulation, relevant sets, upper bounds) on the same query.
pub struct PaperRun<'a> {
    graphs: &'a [DiGraph],
    suite: &'a [Query],
    topk_cfg: TopKConfig,
    div_cfg: DivConfig,
    rng: StdRng,
    order: Vec<usize>,
    passes: u64,
    traced: bool,
    fault: Fault,
    pub out: PaperOut,
}

impl<'a> PaperRun<'a> {
    pub fn new(
        graphs: &'a [DiGraph],
        suite: &'a [Query],
        k: usize,
        lambda: f64,
        seed: u64,
        traced: bool,
        fault: Fault,
    ) -> Self {
        PaperRun {
            graphs,
            suite,
            topk_cfg: TopKConfig::new(k),
            div_cfg: DivConfig::new(k, lambda),
            rng: StdRng::seed_from_u64(seed ^ 0x005E_ED0F_9E12),
            order: (0..suite.len()).collect(),
            passes: 0,
            traced,
            fault,
            out: PaperOut { secs: vec![Default::default(); suite.len()], ..PaperOut::default() },
        }
    }

    pub fn pass(&mut self, tracer: &mut Tracer, check: &mut Check) {
        let spans = self.traced && self.passes % 2 == 1;
        tracer.set_enabled(spans);
        for i in (1..self.order.len()).rev() {
            self.order.swap(i, self.rng.random_range(0..i + 1));
        }
        let (topk_cfg, div_cfg) = (&self.topk_cfg, &self.div_cfg);
        for (pos, &qi) in self.order.iter().enumerate() {
            let query = &self.suite[qi];
            let (g, q) = (&self.graphs[query.graph], &query.pattern);
            let id = self.passes * self.suite.len() as u64 + qi as u64;
            let root = tracer.open("query", None, id);
            let tq = Instant::now();
            let mut secs = [0.0; 4];
            let t = Instant::now();
            let topk = tracer.scope(ALGOS[0], Some(root), id, || top_k(g, q, topk_cfg));
            secs[0] = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let by_match =
                tracer.scope(ALGOS[1], Some(root), id, || top_k_by_match(g, q, topk_cfg));
            secs[1] = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let dh = tracer
                .scope(ALGOS[2], Some(root), id, || top_k_diversified_heuristic(g, q, div_cfg));
            secs[2] = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let div = tracer.scope(ALGOS[3], Some(root), id, || top_k_diversified(g, q, div_cfg));
            secs[3] = t.elapsed().as_secs_f64();
            let query_s = tq.elapsed().as_secs_f64();
            tracer.close(root);

            let mut got = relevances(&topk.matches);
            if self.fault == Fault::PerturbStatic && self.passes == 0 && pos == 0 {
                if let Some(r) = got.first_mut() {
                    *r += 1;
                }
            }
            check.attempted += 4;
            if got != relevances(&by_match.matches) {
                check.fail(format!("query {qi}: TopK relevances {got:?} != Match's"));
            }
            let out = &mut self.out;
            if spans {
                out.traced_query_s.push(query_s);
                out.waves += topk.stats.waves as u64;
                out.inspected += topk.stats.inspected_matches as u64;
                out.total_matches += by_match.stats.total_matches.unwrap_or(0) as u64;
                out.early += u64::from(topk.stats.early_terminated);
                out.f_dh += dh.f_value;
                out.f_div += div.f_value;
                shadow_layers(tracer, g, q, topk_cfg, id);
            } else {
                out.untraced_query_s.push(query_s);
                for (a, s) in secs.into_iter().enumerate() {
                    out.secs[qi][a].push(s);
                }
            }
        }
        self.passes += 1;
        tracer.set_enabled(self.traced);
    }
}

/// Times the public layer calls the algorithms are built from, on the same
/// query, under a separate root so they never count as end-to-end time.
fn shadow_layers(tracer: &mut Tracer, g: &DiGraph, q: &Pattern, cfg: &TopKConfig, id: u64) {
    let root = tracer.open("shadow", None, id);
    let sim = tracer.scope("simulation.refine", Some(root), id, || compute_simulation(g, q));
    let sets = tracer.scope("ranking.relevant_sets", Some(root), id, || {
        RelevantSets::compute_with(g, q, &sim, &cfg.reach)
    });
    std::hint::black_box(sets.len());
    let space = CandidateSpace::compute(g, q);
    let bounds = tracer.scope("ranking.upper_bounds", Some(root), id, || {
        output_upper_bounds(g, q, &space, cfg.bounds, &cfg.bound_config)
    });
    std::hint::black_box(bounds.as_slice().len());
    tracer.close(root);
}
