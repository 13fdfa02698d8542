//! In-memory span recorder for the traced run.
//!
//! A span wraps one call into a layer's public API and records its start and
//! end on both clocks: host wall time, and the runtime's virtual clock (when
//! a runtime is attached). Spans nest through the closure passed to
//! [`Tracer::span`]; every span of one iteration carries that iteration's
//! id. Nothing is written until the run ends ([`Tracer::dump`]).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use skelcl::SkelCl;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name (the layer call it wraps).
    pub name: &'static str,
    /// Iteration id shared by all spans of one iteration (0 = set-up).
    pub iter: u64,
    /// Index of the enclosing span in [`Tracer::spans`], if any.
    pub parent: Option<usize>,
    /// Wall-clock start, nanoseconds since the tracer was created.
    pub wall_start: u64,
    /// Wall-clock end, nanoseconds since the tracer was created.
    pub wall_end: u64,
    /// Virtual start in nanoseconds (0 when no runtime was attached).
    pub virt_start: u64,
    /// Virtual end in nanoseconds (0 when no runtime was attached).
    pub virt_end: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn wall(&self) -> u64 {
        self.wall_end - self.wall_start
    }

    /// Virtual duration in nanoseconds.
    pub fn virt(&self) -> u64 {
        self.virt_end - self.virt_start
    }
}

/// Per-name aggregate over recorded spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanStats {
    /// Number of spans with this name.
    pub count: usize,
    /// Total wall time, nanoseconds.
    pub wall_ns: u64,
    /// Total wall self time (own time minus direct children), nanoseconds.
    pub self_ns: u64,
    /// Total virtual time, nanoseconds.
    pub virt_ns: u64,
}

/// The span recorder. A disabled tracer runs the wrapped calls and records
/// nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    runtime: Option<Arc<SkelCl>>,
    spans: Vec<Span>,
    stack: Vec<usize>,
    iter: u64,
}

impl Tracer {
    /// A tracer that records spans iff `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            runtime: None,
            spans: Vec::new(),
            stack: Vec::new(),
            iter: 0,
        }
    }

    /// Attach the runtime whose virtual clock spans read.
    pub fn attach(&mut self, runtime: &Arc<SkelCl>) {
        self.runtime = Some(runtime.clone());
    }

    /// Detach the runtime (before building a new one).
    pub fn detach(&mut self) {
        self.runtime = None;
    }

    /// Set the iteration id stamped on spans opened from now on.
    pub fn set_iter(&mut self, iter: u64) {
        self.iter = iter;
    }

    fn now(&self) -> (u64, u64) {
        let wall = self.origin.elapsed().as_nanos() as u64;
        let virt = self.runtime.as_ref().map_or(0, |rt| rt.now().as_nanos());
        (wall, virt)
    }

    /// Run `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let (wall_start, virt_start) = self.now();
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            iter: self.iter,
            parent: self.stack.last().copied(),
            wall_start,
            wall_end: wall_start,
            virt_start,
            virt_end: virt_start,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        let (wall_end, virt_end) = self.now();
        let span = &mut self.spans[index];
        span.wall_end = wall_end;
        span.virt_end = virt_end.max(virt_start);
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Wall self time of every span: its duration minus its direct
    /// children's durations.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.wall();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.wall().saturating_sub(c))
            .collect()
    }

    /// Check that spans nest properly: each child lies within its parent on
    /// both clocks, and the self times of every tree sum exactly to its
    /// root's duration.
    pub fn reconcile(&self) -> Result<(), String> {
        let self_ns = self.self_times();
        let mut tree_self: BTreeMap<usize, u64> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            if let Some(p) = span.parent {
                let parent = &self.spans[p];
                let inside = parent.wall_start <= span.wall_start
                    && span.wall_end <= parent.wall_end
                    && parent.virt_start <= span.virt_start
                    && span.virt_end <= parent.virt_end;
                if !inside {
                    return Err(format!(
                        "span {i} `{}` is not inside its parent `{}`",
                        span.name, parent.name
                    ));
                }
            }
            *tree_self.entry(self.root_of(i)).or_default() += self_ns[i];
        }
        for (root, total) in tree_self {
            let wall = self.spans[root].wall();
            if total != wall {
                return Err(format!(
                    "self times under root span {root} `{}` sum to {total} ns, not {wall} ns",
                    self.spans[root].name
                ));
            }
        }
        Ok(())
    }

    fn root_of(&self, mut i: usize) -> usize {
        while let Some(p) = self.spans[i].parent {
            i = p;
        }
        i
    }

    /// Aggregate spans by name, restricted to those accepted by `keep`.
    pub fn stats(&self, keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, SpanStats> {
        let self_ns = self.self_times();
        let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_ns) {
            if !keep(span) {
                continue;
            }
            let entry = out.entry(span.name).or_default();
            entry.count += 1;
            entry.wall_ns += span.wall();
            entry.self_ns += own;
            entry.virt_ns += span.virt();
        }
        out
    }

    /// The span dump: one JSON object per line, in opening order.
    pub fn dump(&self) -> String {
        let self_ns = self.self_times();
        let mut out = String::new();
        for (i, (s, own)) in self.spans.iter().zip(self_ns).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"iter\": {}, \"parent\": {parent}, \
                 \"wall_start_ns\": {}, \"wall_end_ns\": {}, \"self_ns\": {own}, \
                 \"virt_start_ns\": {}, \"virt_end_ns\": {}}}",
                s.name, s.iter, s.wall_start, s.wall_end, s.virt_start, s.virt_end
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_reconcile_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        t.set_iter(3);
        let v = t.span("root", |t| {
            t.span("a", |t| t.span("a.inner", |_| 1)) + t.span("b", |_| 2)
        });
        assert_eq!(v, 3);
        assert_eq!(t.spans().len(), 4);
        assert!(t.spans().iter().all(|s| s.iter == 3));
        assert_eq!(t.spans()[2].parent, Some(1));
        t.reconcile().unwrap();
        let stats = t.stats(|_| true);
        assert_eq!(stats["a"].count, 1);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("root", |_| 5), 5);
        assert!(off.spans().is_empty());
    }
}
