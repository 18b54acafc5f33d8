//! The push path: a `GraphDelta` handed to `AnswerService` until every
//! affected subscriber can receive its `AnswerUpdate`.
//!
//! One client thread in one process. After each ingest the batch is acked
//! durably with `save_log` (append + fsync) and every subscription is
//! drained with `try_recv`, so there are no consumer threads.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use gpm_core::{top_k_diversified, DivConfig};
use gpm_graph::{DeltaOp, DiGraph, DynGraph, EffectiveOp, GraphDelta, Label, NodeId};
use gpm_incremental::{IncrementalConfig, PatternId, PatternRegistry, Telemetry};
use gpm_pattern::Pattern;
use gpm_serving::{AnswerService, DeltaLog, NotifyMode, ServiceConfig, Subscription};
use gpm_simulation::IncSimState;

use crate::gen::Stream;
use crate::stats::{median, quantile, ratio};
use crate::trace::{SpanId, Tracer};
use crate::{Check, Fault};

/// Everything a push run needs, generated before the program sees it.
pub struct PushInputs {
    pub base: DiGraph,
    /// Distinct patterns; `subs[i]` is the pattern subscription `i` watches.
    pub patterns: Vec<Pattern>,
    pub subs: Vec<usize>,
    pub cfg: IncrementalConfig,
    pub mode: NotifyMode,
    pub stream: Stream,
    /// Open-loop arrival rate, batches per second.
    pub rate: f64,
    /// Rounds between recoveries.
    pub recover_every: usize,
}

/// What a push run measured.
#[derive(Default)]
pub struct PushOut {
    pub setup_s: Vec<f64>,
    /// Open loop: due → receivable per delivered update and due → acked
    /// per batch; and how late the generator sent each batch.
    pub update_ms: Vec<f64>,
    pub ack_ms: Vec<f64>,
    pub lateness_ms: Vec<f64>,
    pub delivered: u64,
    /// Closed-loop capacity of ingest and delivery. Each batch is still
    /// saved to the log, but the save is not counted: its fsync on shared
    /// storage varies by about 40% from run to run and would swamp the
    /// rest. `ack_p50_ms` carries the durable ack's cost.
    pub closed_batches_per_s: f64,
    pub recover_s: f64,
    /// Closed-loop step time (ingest + drain, without the save) per batch,
    /// untraced and traced, for the trace overhead.
    pub untraced_step_s: Vec<f64>,
    pub traced_step_s: Vec<f64>,
    pub layers: LayerCounts,
}

/// Per-batch sums over the traced closed-loop pass; divided by `batches`
/// when reported.
#[derive(Default)]
pub struct LayerCounts {
    pub batches: u64,
    pub effective_ops: u64,
    pub dirty_pairs: u64,
    pub diversify_calls: u64,
    /// Diversification time inside ingest (diversified subscriptions only).
    pub diversify_on_path_ns: u64,
    pub sets_recomputed: u64,
    pub pruned_outputs: u64,
    pub cond_incremental: u64,
    pub cond_rebuilds: u64,
    pub bound_refolds: u64,
    pub bound_rebuilds: u64,
    pub ops_replayed: u64,
    pub ops_skipped: u64,
    pub patterns_touched: u64,
    pub pattern_rebuilds: u64,
    pub intra_splits: u64,
    pub updates_pushed: u64,
    pub suppressed: u64,
    pub coalesced: u64,
    pub log_bytes: u64,
}

struct Live {
    svc: AnswerService,
    subs: Vec<Subscription>,
}

/// The configuration every service in the benchmark runs with.
pub fn service_config() -> ServiceConfig {
    ServiceConfig::default()
}

/// `AnswerService::new` plus every `subscribe` bootstrap — the set-up time.
fn setup(inp: &PushInputs, base: &DiGraph, seq: u64) -> Live {
    let mut svc = AnswerService::at_offset(base, seq, service_config());
    let subs = inp
        .subs
        .iter()
        .map(|&p| {
            svc.subscribe(inp.patterns[p].clone(), inp.cfg.clone(), inp.mode).expect("subscribable")
        })
        .collect();
    Live { svc, subs }
}

/// Drains every subscription after batch `b` (seq `b + 1`) and checks the
/// delivered updates against the oracle: a relevance subscription gets
/// exactly one update carrying the expected answer when its pattern's
/// answer changed at this batch, and none otherwise. Returns the number of
/// updates delivered and whether all of them agreed.
fn drain(inp: &PushInputs, live: &Live, b: usize, drop_first: &mut bool) -> (u64, bool) {
    let (exp, prev) = (&inp.stream.expected[b + 1], &inp.stream.expected[b]);
    let (mut delivered, mut ok) = (0u64, true);
    for (i, sub) in live.subs.iter().enumerate() {
        let mut got = Vec::new();
        while let Some(u) = sub.try_recv() {
            got.push(u);
        }
        if *drop_first && !got.is_empty() {
            got.remove(0);
            *drop_first = false;
        }
        delivered += got.len() as u64;
        ok &= got.iter().all(|u| u.seq == b as u64 + 1);
        if inp.mode == NotifyMode::Relevance {
            let p = inp.subs[i];
            ok &= if exp[p] != prev[p] {
                got.len() == 1 && got[0].topk == exp[p]
            } else {
                got.is_empty()
            };
        }
    }
    (delivered, ok)
}

/// At a checkpoint, every pattern's served relevance answer must equal the
/// oracle's.
fn served_matches(inp: &PushInputs, live: &Live, b: usize) -> bool {
    live.subs.iter().enumerate().all(|(i, s)| {
        live.svc
            .current(s.pattern())
            .is_ok_and(|a| a.matches == inp.stream.expected[b + 1][inp.subs[i]])
    })
}

/// Bootstrap updates must carry the oracle's base answer (relevance
/// subscriptions) or at least exist (diversified ones).
fn check_bootstrap(inp: &PushInputs, live: &Live, check: &mut Check) {
    for (i, s) in live.subs.iter().enumerate() {
        check.attempted += 1;
        let ok = s.try_recv().is_some_and(|u| {
            inp.mode == NotifyMode::Diversified || u.topk == inp.stream.expected[0][inp.subs[i]]
        });
        if !ok {
            check.fail(format!("subscription {i}: bootstrap answer disagrees with the oracle"));
        }
    }
}

/// Busy-waits until `due`. A sleeping client wakes up late by an amount
/// that varies with the host's load, and that lateness would count as the
/// batch's latency; spinning sends every batch on time.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// One batch of a loop: ingest, durable ack, drain, oracle check. Returns
/// (ingest returned, acked) instants and the updates delivered.
fn step(
    inp: &PushInputs,
    live: &mut Live,
    b: usize,
    log: &Path,
    check: &mut Check,
    drop_first: &mut bool,
) -> (Instant, Instant, u64) {
    let delta = &inp.stream.batches[b];
    check.attempted += 1;
    let ingest = live.svc.ingest(delta);
    let t_ing = Instant::now();
    let saved = live.svc.save_log(log);
    let t_ack = Instant::now();
    let (delivered, agreed) = drain(inp, live, b, drop_first);
    let ok = ingest.is_ok()
        && saved.is_ok()
        && agreed
        && (!inp.stream.checkpoints[b] || served_matches(inp, live, b));
    if !ok {
        check.fail(format!(
            "batch {b}: ingest {:?}, save {:?}, updates agree {agreed}",
            ingest.err(),
            saved.err()
        ));
    }
    (t_ing, t_ack, delivered)
}

fn fresh_log(dir: &Path, name: &str) -> PathBuf {
    let p = dir.join(name);
    let _ = std::fs::remove_file(&p);
    p
}

/// Closed-loop capacity passes per run.
const CLOSED_REPS: usize = 3;

/// Batches a recovering service replays on top of its checkpoint.
const RECOVER_TAIL: u64 = 50;

/// A push pass over one workload's inputs, advanced in rounds so that its
/// samples spread over the whole run instead of one stretch of it: each
/// round runs one segment of the open loop, one chunk of each closed-loop
/// pass and, every round or every third, one recovery. Traced, the second
/// closed-loop pass carries spans and the lockstep shadows.
pub struct PushRun<'a> {
    inp: &'a PushInputs,
    dir: PathBuf,
    traced: bool,
    fault: Fault,
    drop_first: bool,
    open: (Live, PathBuf),
    closed: Vec<(Live, PathBuf)>,
    shadows: Option<Shadows>,
    /// Per closed-loop batch: step times of the untraced passes.
    steps: Vec<Vec<f64>>,
    recoveries: Vec<f64>,
    pub out: PushOut,
}

impl<'a> PushRun<'a> {
    pub fn new(
        inp: &'a PushInputs,
        dir: &Path,
        tracer: &Tracer,
        check: &mut Check,
        fault: Fault,
    ) -> Self {
        let mut out = PushOut::default();
        let n = inp.stream.batches.len();
        let mut lives: Vec<(Live, PathBuf)> = (0..1 + CLOSED_REPS)
            .map(|i| {
                let t = Instant::now();
                let mut live = setup(inp, &inp.base, 0);
                out.setup_s.push(t.elapsed().as_secs_f64());
                check_bootstrap(inp, &live, check);
                let log = fresh_log(dir, &format!("service{i}.log"));
                live.svc.save_log(&log).expect("initial log save");
                (live, log)
            })
            .collect();
        let open = lives.remove(0);
        if fault == Fault::CorruptMaintained {
            let svc = &open.0.svc;
            let corrupted =
                open.0.subs.iter().any(|s| svc.registry().corrupt_maintained_for_test(s.pattern()));
            assert!(corrupted, "no pattern had maintained state to corrupt");
        }
        PushRun {
            inp,
            dir: dir.to_path_buf(),
            traced: tracer.enabled(),
            fault,
            drop_first: fault == Fault::DropUpdate,
            open,
            closed: lives,
            shadows: tracer.enabled().then(|| Shadows::new(inp)),
            steps: vec![Vec::with_capacity(CLOSED_REPS); n],
            recoveries: Vec::new(),
            out,
        }
    }

    /// One more timed set-up, for the `setup_s` median.
    pub fn setup_rep(&mut self) {
        let t = Instant::now();
        let live = setup(self.inp, &self.inp.base, 0);
        self.out.setup_s.push(t.elapsed().as_secs_f64());
        drop(live);
    }

    /// Round `r` of `rounds`.
    pub fn round(&mut self, r: usize, rounds: usize, tracer: &mut Tracer, check: &mut Check) {
        let inp = self.inp;
        // Open loop: batch b of the segment is due at start + b / rate and is
        // sent when due or as soon as the previous one is acked, whichever
        // is later.
        let n = inp.stream.batches.len();
        let (first, last) = (r * n / rounds, (r + 1) * n / rounds);
        let start = Instant::now() + Duration::from_millis(2);
        for b in first..last {
            let due = start + Duration::from_secs_f64((b - first) as f64 / inp.rate);
            wait_until(due);
            self.out.lateness_ms.push((Instant::now() - due).as_secs_f64() * 1e3);
            let (live, log) = &mut self.open;
            let (t_ing, t_ack, delivered) = step(inp, live, b, log, check, &mut self.drop_first);
            let upd = (t_ing - due).as_secs_f64() * 1e3;
            self.out.update_ms.extend(std::iter::repeat_n(upd, delivered as usize));
            self.out.ack_ms.push((t_ack - due).as_secs_f64() * 1e3);
            self.out.delivered += delivered;
        }

        // Closed loop: the same batches as the open segment, through every
        // pass back to back.
        for (p, (live, log)) in self.closed.iter_mut().enumerate() {
            let traced_pass = self.traced && p == 1;
            for b in first..last {
                if traced_pass {
                    let shadows = self.shadows.as_mut().expect("traced runs have shadows");
                    let t = traced_step(
                        inp,
                        live,
                        b,
                        log,
                        tracer,
                        check,
                        shadows,
                        &mut self.out.layers,
                    );
                    self.out.traced_step_s.push(t);
                } else {
                    let t = Instant::now();
                    let (t_ing, t_ack, _) = step(inp, live, b, log, check, &mut false);
                    self.steps[b].push((t.elapsed() - (t_ack - t_ing)).as_secs_f64());
                }
            }
        }

        if (r + 1).is_multiple_of(inp.recover_every) || rounds < 3 {
            let secs = self.recover(r as u64, tracer, check);
            self.recoveries.push(secs);
        }

        // Differential audit, untimed: every registration's maintained
        // state must equal a from-scratch build on the current graph.
        let live = &self.open.0;
        for s in &live.subs {
            check.attempted += 1;
            if let Some(Err(e)) = live.svc.registry().audit_pattern(s.pattern()) {
                check.fail(format!("round {r}: pattern {} fails its audit: {e}", s.pattern()));
            }
        }
    }

    /// Capacity, recovery time and the untraced step times.
    pub fn finish(mut self) -> PushOut {
        let untraced: Vec<f64> = self.steps.iter().map(|t| median(t)).collect();
        self.out.closed_batches_per_s = untraced.len() as f64 / untraced.iter().sum::<f64>();
        self.out.untraced_step_s = untraced;
        self.out.recover_s = median(&self.recoveries);
        self.out
    }

    /// Writes the checkpoint a compaction of the open-loop service's log
    /// would write — the graph [`RECOVER_TAIL`] batches before head plus
    /// the entries after it — then rebuilds a service from that file:
    /// `DeltaLog::load`, `AnswerService::at_offset` on the log's base,
    /// re-subscribing, and `catch_up` to head. The recovered answers must
    /// equal the live ones.
    fn recover(&mut self, id: u64, tracer: &mut Tracer, check: &mut Check) -> f64 {
        let live = &self.open.0;
        let log = fresh_log(&self.dir, "checkpoint.log");
        let head = live.svc.seq();
        let from = head.saturating_sub(RECOVER_TAIL);
        let mut checkpoint =
            DeltaLog::at_offset(&live.svc.log().graph_at(from).expect("retained"), from);
        for e in live.svc.log().entries_after(from).expect("retained") {
            checkpoint.append(e.delta.clone());
        }
        checkpoint.save(&log).expect("checkpoint save");
        if self.fault == Fault::TornLog {
            // Lose the last entry, as a crash in the middle of an append would.
            let text = std::fs::read_to_string(&log).expect("log readable");
            let cut = text.trim_end().rfind('\n').expect("log has entries");
            std::fs::write(&log, &text[..=cut]).expect("log writable");
        }

        let inp = self.inp;
        let root = tracer.open("recover", None, id);
        let t = Instant::now();
        let loaded = tracer.scope("serving.load", Some(root), id, || DeltaLog::load(&log));
        let recovered = loaded.map(|loaded| {
            let mut rec = tracer.scope("serving.resubscribe", Some(root), id, || {
                setup(inp, loaded.base(), loaded.base_seq())
            });
            let caught =
                tracer.scope("serving.catch_up", Some(root), id, || rec.svc.catch_up(&loaded));
            (rec, caught)
        });
        let secs = t.elapsed().as_secs_f64();
        tracer.close(root);

        check.attempted += 1;
        let ok = match &recovered {
            Ok((rec, Ok(_))) => {
                rec.svc.seq() == head
                    && rec.subs.iter().zip(&live.subs).all(|(r, l)| {
                        let (a, b) = (rec.svc.current(r.pattern()), live.svc.current(l.pattern()));
                        matches!((a, b), (Ok(a), Ok(b)) if a.matches == b.matches)
                    })
            }
            _ => false,
        };
        if !ok {
            check.fail(format!("recovery at seq {head}: answers differ from the live service"));
        }
        secs
    }

    /// At the end of the stream, a diversified subscription's served answer
    /// must be the static greedy's on the final graph (equal objective
    /// value; ties may pick differently).
    pub fn check_final(&self, check: &mut Check) {
        let inp = self.inp;
        if inp.mode != NotifyMode::Diversified
            || self.open.0.svc.seq() as usize != inp.stream.batches.len()
        {
            return;
        }
        let div_cfg = DivConfig::new(inp.cfg.k, inp.cfg.lambda);
        let live = &self.open.0;
        for (i, s) in live.subs.iter().enumerate() {
            check.attempted += 1;
            let served = live.svc.registry().top_k_diversified(s.pattern()).expect("registered");
            let fresh =
                top_k_diversified(&inp.stream.final_graph, &inp.patterns[inp.subs[i]], &div_cfg);
            if (served.f_value - fresh.f_value).abs() > 1e-9 {
                check.fail(format!(
                    "subscription {i}: served F {} != static F {}",
                    served.f_value, fresh.f_value
                ));
            }
        }
    }
}

/// Lockstep shadows of the layers inside `AnswerService::ingest`, each fed
/// the same batches: a plain graph mirror, a graph mirror driving one
/// `IncSimState` per registration from its effective ops, and a registry
/// with the same registrations and threads.
struct Shadows {
    graph: DynGraph,
    sim_graph: DynGraph,
    sims: Vec<IncSimState>,
    /// Labels each registration can match; an op is replayed into a
    /// registration only when every node it names carries one of them,
    /// the way the registry's label index skips ops.
    labels: Vec<BTreeSet<Label>>,
    registry: PatternRegistry,
}

impl Shadows {
    fn new(inp: &PushInputs) -> Self {
        let cfg = service_config();
        let sim_graph = DynGraph::from_digraph(&inp.base);
        let sims = inp
            .subs
            .iter()
            .map(|&p| {
                let mut s =
                    IncSimState::new(&sim_graph, &inp.patterns[p]).expect("supported pattern");
                s.take_dirty();
                s
            })
            .collect();
        let mut registry = PatternRegistry::with_threads(&inp.base, cfg.threads);
        registry.set_telemetry(Telemetry::new(cfg.telemetry.clone()));
        for &p in &inp.subs {
            registry.register(inp.patterns[p].clone(), inp.cfg.clone()).expect("registrable");
        }
        let labels = inp
            .subs
            .iter()
            .map(|&p| {
                let q = &inp.patterns[p];
                q.nodes().filter_map(|u| q.predicate(u).primary_label()).collect()
            })
            .collect();
        Shadows { graph: DynGraph::from_digraph(&inp.base), sim_graph, sims, labels, registry }
    }

    fn step(
        &mut self,
        inp: &PushInputs,
        delta: &GraphDelta,
        tracer: &mut Tracer,
        b: u64,
        layers: &mut LayerCounts,
    ) {
        let root = tracer.open("shadow", None, b);
        let applied = tracer.scope("graph.apply", Some(root), b, || self.graph.apply(delta));
        layers.effective_ops += applied.map_or(0, |a| a.effects.len() as u64);

        // Labels of the nodes this batch removes, read before they become
        // tombstones.
        let removed: BTreeMap<NodeId, Label> = delta
            .ops
            .iter()
            .filter_map(|op| match *op {
                DeltaOp::RemoveNode(v) if (v as usize) < self.sim_graph.node_count() => {
                    Some((v, self.sim_graph.label(v)))
                }
                _ => None,
            })
            .collect();
        let (sims, labels, patterns, subs) =
            (&mut self.sims, &self.labels, &inp.patterns, &inp.subs);
        let mut replay_ns = 0u64;
        let _ = self.sim_graph.apply_with(delta, |g, op| {
            let t = Instant::now();
            let label = |v: NodeId| removed.get(&v).copied().unwrap_or_else(|| g.label(v));
            for ((s, &p), ls) in sims.iter_mut().zip(subs).zip(labels) {
                let wanted = match *op {
                    EffectiveOp::NodeAdded(_, l) => ls.contains(&l),
                    EffectiveOp::EdgeAdded(v, w) | EffectiveOp::EdgeRemoved(v, w) => {
                        ls.contains(&label(v)) && ls.contains(&label(w))
                    }
                    EffectiveOp::NodeRemoved(v)
                    | EffectiveOp::AttrSet { node: v, .. }
                    | EffectiveOp::AttrUnset { node: v, .. } => ls.contains(&label(v)),
                };
                if !wanted {
                    continue;
                }
                let q = &patterns[p];
                match *op {
                    EffectiveOp::NodeAdded(v, _) => s.on_node_added(g, q, v),
                    EffectiveOp::EdgeAdded(v, w) => s.on_edge_inserted(g, q, v, w),
                    EffectiveOp::EdgeRemoved(v, w) => s.on_edge_removed(g, q, v, w),
                    EffectiveOp::NodeRemoved(v) => s.on_node_removed(q, v),
                    EffectiveOp::AttrSet { node, ref key, .. }
                    | EffectiveOp::AttrUnset { node, ref key } => {
                        s.on_attr_changed(g, q, node, key)
                    }
                }
            }
            replay_ns += t.elapsed().as_nanos() as u64;
        });
        tracer.record("simulation.replay", root, b, replay_ns);
        layers.dirty_pairs +=
            self.sims.iter_mut().map(|s| s.take_dirty().len() as u64).sum::<u64>();

        let changes =
            tracer.scope("incremental.apply", Some(root), b, || self.registry.apply(delta));
        let touched: Vec<PatternId> =
            changes.map(|c| c.iter().map(|c| c.id).collect()).unwrap_or_default();
        // The service diversifies every touched pattern for diversified
        // subscribers only; so does the shadow.
        if inp.mode == NotifyMode::Diversified {
            let t = Instant::now();
            for &id in &touched {
                tracer.scope("core.diversify", Some(root), b, || {
                    std::hint::black_box(self.registry.top_k_diversified(id));
                });
            }
            layers.diversify_calls += touched.len() as u64;
            layers.diversify_on_path_ns += t.elapsed().as_nanos() as u64;
        }
        tracer.close(root);
    }
}

/// Sum of the per-registration `ApplyStats` counters the ranking layer
/// maintains.
fn ranking_counters(svc: &AnswerService, subs: &[Subscription]) -> [u64; 6] {
    let mut c = [0u64; 6];
    for s in subs {
        if let Some(st) = svc.registry().stats_of(s.pattern()) {
            for (slot, v) in c.iter_mut().zip([
                st.sets_recomputed,
                st.pruned_outputs,
                st.cond_incremental,
                st.cond_rebuilds,
                st.bound_refolds,
                st.bound_rebuilds,
            ]) {
                *slot += v;
            }
        }
    }
    c
}

/// One closed-loop batch with spans around the real calls, the ranking,
/// registry and serving counters read around it, and the lockstep shadows
/// stepped outside the batch's span. Returns the step time without the
/// save, as the untraced passes count it.
#[allow(clippy::too_many_arguments)]
fn traced_step(
    inp: &PushInputs,
    live: &mut Live,
    b: usize,
    log: &Path,
    tracer: &mut Tracer,
    check: &mut Check,
    shadows: &mut Shadows,
    l: &mut LayerCounts,
) -> f64 {
    let delta = &inp.stream.batches[b];
    let id = b as u64;
    let before_rank = ranking_counters(&live.svc, &live.subs);
    let before_reg = live.svc.registry_stats();
    let before_svc = live.svc.stats();
    let before_bytes = live.svc.log().persisted_bytes();

    let t = Instant::now();
    let root: SpanId = tracer.open("batch", None, id);
    check.attempted += 1;
    let ingest = tracer.scope("serving.ingest", Some(root), id, || live.svc.ingest(delta));
    let t_save = Instant::now();
    let saved = tracer.scope("serving.log_save", Some(root), id, || live.svc.save_log(log));
    let save = t_save.elapsed();
    let (_, agreed) =
        tracer.scope("serving.drain", Some(root), id, || drain(inp, live, b, &mut false));
    tracer.close(root);
    let secs = (t.elapsed() - save).as_secs_f64();
    let served = !inp.stream.checkpoints[b] || served_matches(inp, live, b);
    if ingest.is_err() || saved.is_err() || !agreed || !served {
        check.fail(format!("traced batch {b} disagrees with the oracle"));
    }

    shadows.step(inp, delta, tracer, id, l);

    let after_rank = ranking_counters(&live.svc, &live.subs);
    let d: Vec<u64> = after_rank.iter().zip(before_rank).map(|(a, b)| a - b).collect();
    l.sets_recomputed += d[0];
    l.pruned_outputs += d[1];
    l.cond_incremental += d[2];
    l.cond_rebuilds += d[3];
    l.bound_refolds += d[4];
    l.bound_rebuilds += d[5];
    let reg = live.svc.registry_stats();
    l.ops_replayed += reg.ops_replayed - before_reg.ops_replayed;
    l.ops_skipped += reg.ops_skipped - before_reg.ops_skipped;
    l.patterns_touched += reg.last_patterns_touched as u64;
    l.pattern_rebuilds += reg.last_rebuilds as u64;
    l.intra_splits += reg.intra_pattern_splits - before_reg.intra_pattern_splits;
    let st = live.svc.stats();
    l.updates_pushed += st.updates_pushed - before_svc.updates_pushed;
    l.suppressed += st.suppressed - before_svc.suppressed;
    l.coalesced += st.updates_coalesced - before_svc.updates_coalesced;
    l.log_bytes += live.svc.log().persisted_bytes() - before_bytes;
    l.batches += 1;
    secs
}

/// Open-loop update p50 and p90 and ack p50, over the whole open loop.
/// (Per-segment percentiles would depend on which kinds of batch a
/// segment happens to hold.)
pub fn summarize(out: &PushOut) -> (f64, f64, f64) {
    (quantile(&out.update_ms, 0.5), quantile(&out.update_ms, 0.9), median(&out.ack_ms))
}

/// The `notify_ratio`: updates pushed per notification decision.
pub fn notify_ratio(l: &LayerCounts) -> f64 {
    ratio(l.updates_pushed as f64, (l.updates_pushed + l.suppressed) as f64)
}
