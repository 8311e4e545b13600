//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around each call into a workspace
//! crate's public API: a name (`<layer>.<call>`), start and end, the
//! enclosing span, and the op the call belongs to. Nothing is written
//! until the run ends. A disabled tracer records nothing, so the untraced
//! run executes the same code with only a branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Name of the root span every op is recorded under.
pub const OP: &str = "op";

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// `<layer>.<call>`, or [`OP`] for an op's root.
    pub name: &'static str,
    /// The op this call belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

/// A span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch`; records nothing
    /// unless `enabled`.
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// `true` when spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            op,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`begin`](Self::begin); spans close in
    /// reverse order of opening.
    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            let end = self.now_ns();
            assert_eq!(self.stack.pop(), Some(idx), "spans must nest");
            self.spans[idx].end_ns = end;
        }
    }

    /// Records `f` as one span.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name, op);
        let r = f();
        self.end(open);
        r
    }

    /// Appends another thread's spans (same epoch), keeping parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Each span's self time: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Self time in seconds of every span named `name`, summed per op —
    /// one sample per op that made the call.
    pub fn self_s_per_op(&self, name: &str) -> Vec<f64> {
        let own = self.self_ns();
        let mut per_op: BTreeMap<u64, u64> = BTreeMap::new();
        for (s, &ns) in self.spans.iter().zip(&own) {
            if s.name == name {
                *per_op.entry(s.op).or_default() += ns;
            }
        }
        per_op.values().map(|&ns| ns as f64 * 1e-9).collect()
    }

    /// Self time in seconds of each span named `name` that sits under a
    /// span named `within`, summed per `within` span — one sample per
    /// enclosing call (e.g. phase time per objective evaluation).
    pub fn self_s_per_enclosing(&self, name: &str, within: &str) -> Vec<f64> {
        let own = self.self_ns();
        let mut per: BTreeMap<usize, u64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == within {
                per.entry(i).or_default();
            }
        }
        for (s, &ns) in self.spans.iter().zip(&own) {
            if s.name != name {
                continue;
            }
            let mut up = s.parent;
            while let Some(p) = up {
                if self.spans[p].name == within {
                    *per.entry(p).or_default() += ns;
                    break;
                }
                up = self.spans[p].parent;
            }
        }
        per.values().map(|&ns| ns as f64 * 1e-9).collect()
    }

    /// Durations in seconds of the spans named `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .collect()
    }

    /// Closure ratio: the self time of every span under an [`OP`] root,
    /// summed, over the summed op durations. 1 means the recorded layer
    /// calls account for the whole op; the shortfall is time the op spent
    /// between calls.
    pub fn closure(&self) -> f64 {
        let own = self.self_ns();
        let (mut covered, mut total) = (0u64, 0u64);
        for (s, &ns) in self.spans.iter().zip(&own) {
            if s.name == OP && s.parent.is_none() {
                covered += s.dur_ns() - ns;
                total += s.dur_ns();
            }
        }
        if total == 0 {
            f64::NAN
        } else {
            covered as f64 / total as f64
        }
    }

    /// The spans as a JSON array (self time included).
    pub fn to_json(&self) -> String {
        let own = self.self_ns();
        let mut out = String::from("[\n");
        for (i, (s, ns)) in self.spans.iter().zip(&own).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {ns}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_and_closure_subtract_children() {
        let mut t = Tracer::new(true, Instant::now());
        t.spans = vec![
            span(OP, None, 0, 100),
            span("a.outer", Some(0), 0, 90),
            span("b.inner", Some(1), 10, 40),
            span("b.inner", Some(1), 50, 80),
        ];
        assert_eq!(t.self_ns(), vec![10, 30, 30, 30]);
        assert!((t.closure() - 0.9).abs() < 1e-12);
        let per_outer = t.self_s_per_enclosing("b.inner", "a.outer");
        assert_eq!(per_outer.len(), 1);
        assert!((per_outer[0] - 60e-9).abs() < 1e-18);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let v = t.span("a.call", 0, || 7);
        assert_eq!(v, 7);
        assert!(t.spans.is_empty());
    }
}
