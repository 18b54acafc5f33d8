//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span is a name, a start, an end, its parent and the batch (or query)
//! it belongs to. Spans live in memory while the benchmark runs and are
//! written out as JSON once it ends. A span's self time is its duration
//! minus the time its direct children cover; a root's self time is the
//! part of an end-to-end operation no layer call accounts for.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub batch: u64,
}

/// Span recorder. When disabled every call is a no-op, so untraced runs
/// share the traced runs' code path at the cost of one branch per call.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

/// Handle of an open span (`usize::MAX` when tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off between operations (spans opened
    /// while on must be closed before switching).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, batch: u64) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.map(|p| p.0),
            batch,
        });
        SpanId(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: SpanId) {
        if self.enabled {
            let now = self.now_ns();
            self.spans[id.0].end_ns = now;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        batch: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, batch);
        let out = f();
        self.close(id);
        out
    }

    /// Records an already measured interval as a span (used for work
    /// timed inside a callback, where the tracer cannot be borrowed).
    pub fn record(&mut self, name: &'static str, parent: SpanId, batch: u64, ns: u64) {
        if self.enabled {
            let start_ns = self.spans[parent.0].start_ns;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns + ns,
                parent: Some(parent.0),
                batch,
            });
        }
    }

    /// Per-name totals: (count, total duration ns, total self ns).
    pub fn digest(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, cov) in self.spans.iter().zip(&covered) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(*cov);
        }
        out
    }

    /// The spans plus their per-name digest as one JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"spans\":[");
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"batch\":{}}}",
                sp.name, sp.start_ns, sp.end_ns, sp.batch
            );
        }
        s.push_str("],\"digest\":{");
        for (i, (name, (n, total, own))) in self.digest().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ =
                write!(s, "\"{name}\":{{\"count\":{n},\"total_ns\":{total},\"self_ns\":{own}}}");
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let root = t.open("root", None, 0);
        t.record("child", root, 0, 10);
        std::thread::sleep(std::time::Duration::from_millis(1));
        t.close(root);
        let d = t.digest();
        let (n, total, own) = d["root"];
        assert_eq!(n, 1);
        assert_eq!(total - own, 10);
        assert_eq!(d["child"], (1, 10, 10));
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::new(false);
        let root = t.open("root", None, 0);
        t.close(root);
        assert!(t.digest().is_empty());
    }
}
