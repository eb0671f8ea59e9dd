//! In-memory span recording for the traced replay.
//!
//! A span is one timed call into a layer: name, start, end, the span that
//! caused it and the operation it belongs to. Spans nest the ordinary way
//! (a call inside another call is its child). Some public calls run
//! several layers without exposing them — `ArchiveWriter::write_slab`
//! runs the codec scheduler and the codecs — so the replay also times
//! those layers' own public functions on the same data right after the
//! call returns. Such a span is an *attribution probe*: it lies outside
//! its parent's interval, and its duration is subtracted from the
//! parent's self time instead of being covered by it.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Name of the span around one operation.
pub const OP: &str = "op";

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Operation (field or request) the span belongs to.
    pub op: u64,
    pub parent: Option<usize>,
    /// Set for attribution probes: the span whose hidden work this one
    /// re-times.
    pub probe_of: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// An operation: the top-level span the replay opens per field or
    /// request. Other top-level spans (probes, replay set-up) are not.
    fn is_op(&self) -> bool {
        self.parent.is_none() && self.probe_of.is_none() && self.name == OP
    }
}

/// Records spans when enabled; when disabled every method just runs the
/// closure, so the same replay code measures the tracing overhead.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    op: u64,
    stack: Vec<usize>,
    last_closed: Option<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            op: 0,
            stack: Vec::new(),
            last_closed: None,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tag the spans that follow with operation id `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, probe_of: Option<usize>) -> usize {
        let parent = if probe_of.is_some() {
            None
        } else {
            self.stack.last().copied()
        };
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent,
            probe_of,
            start_ns,
            end_ns: start_ns,
        });
        let id = self.spans.len() - 1;
        self.stack.push(id);
        id
    }

    fn close(&mut self, id: usize) {
        let end = self.now_ns();
        self.spans[id].end_ns = end;
        self.stack.pop();
        self.last_closed = Some(id);
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.open(name, None);
        let out = f(self);
        self.close(id);
        out
    }

    /// Run `f` as an attribution probe of span `of` (see the module
    /// docs). With tracing off, or no span to attribute to, `f` still
    /// runs untimed.
    pub fn probe<R>(
        &mut self,
        name: &'static str,
        of: Option<usize>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled || of.is_none() {
            return f(self);
        }
        let id = self.open(name, of);
        let out = f(self);
        self.close(id);
        out
    }

    /// Add a span timed elsewhere against [`Self::epoch`], as a child of
    /// `parent` or else of the innermost open span. Returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        let parent = parent.or(self.stack.last().copied());
        self.spans.push(Span {
            name,
            op: self.op,
            parent,
            probe_of: None,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// The instant span timestamps count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// The span closed most recently (the target for the probes that
    /// follow a call).
    pub fn last_closed(&self) -> Option<usize> {
        if self.enabled {
            self.last_closed
        } else {
            None
        }
    }

    /// Write every span as one tab-separated line.
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(
            out,
            "id\tname\top\tparent\tprobe_of\tstart_ns\tend_ns\tself_ns"
        )?;
        let selfs = self_times_ns(&self.spans);
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("-".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.name,
                s.op,
                opt(s.parent),
                opt(s.probe_of),
                s.start_ns,
                s.end_ns,
                selfs[id]
            )?;
        }
        Ok(())
    }
}

/// Whether replay pass `pass` is traced. Pass 0 warms caches and the
/// allocator untraced and is not measured (`None`); then traced and
/// untraced passes alternate T U U T so that neither side always runs
/// first and `trace.overhead_pct` is not biased by the order.
pub fn pass_kind(pass: usize) -> Option<bool> {
    (pass > 0).then(|| [true, false, false, true][(pass - 1) % 4])
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of its interval
/// its children cover (overlapping children count once) minus the
/// durations of the probes attributed to it, never below zero.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    let mut probed = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
        if let Some(p) = s.probe_of {
            probed[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let covered = covered_ns(s.start_ns, s.end_ns, &mut children[i]);
            s.dur_ns().saturating_sub(covered).saturating_sub(probed[i])
        })
        .collect()
}

/// Per span name: total self time (ns) and number of spans.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let selfs = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += own;
        e.1 += 1;
    }
    out
}

/// Share (%) of the operations' wall time that named layer spans account
/// for: everything except the operation spans' own self time.
pub fn coverage_pct(spans: &[Span]) -> f64 {
    let selfs = self_times_ns(spans);
    let (mut wall, mut unattributed) = (0u64, 0u64);
    for (s, own) in spans.iter().zip(selfs) {
        if s.is_op() {
            wall += s.dur_ns();
            unattributed += own;
        }
    }
    if wall == 0 {
        return f64::NAN;
    }
    100.0 * (1.0 - unattributed as f64 / wall as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        parent: Option<usize>,
        probe_of: Option<usize>,
        s: u64,
        e: u64,
    ) -> Span {
        Span {
            name,
            op: 0,
            parent,
            probe_of,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = vec![
            span("root", None, None, 0, 100),
            span("a", Some(0), None, 10, 30),
            span("b", Some(0), None, 50, 60),
        ];
        assert_eq!(self_times_ns(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span("root", None, None, 0, 100),
            span("a", Some(0), None, 10, 40),
            span("b", Some(0), None, 30, 60),
            // Nested inside a's interval entirely.
            span("c", Some(0), None, 15, 20),
        ];
        // Union of [10,40), [30,60), [15,20) is [10,60): 50 covered.
        assert_eq!(self_times_ns(&spans)[0], 50);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![
            span("root", None, None, 10, 50),
            span("a", Some(0), None, 0, 20),
        ];
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn grandchildren_do_not_reduce_the_root_twice() {
        let spans = vec![
            span("root", None, None, 0, 100),
            span("a", Some(0), None, 0, 50),
            span("aa", Some(1), None, 10, 40),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 30]);
    }

    #[test]
    fn probes_are_subtracted_from_their_target_and_never_below_zero() {
        let spans = vec![
            span(OP, None, None, 0, 100),
            span("write", Some(0), None, 0, 40),
            span("probe", None, Some(1), 200, 230),
            span("probe", None, Some(1), 230, 260),
            // Replay set-up outside any operation.
            span("reader.open", None, None, 300, 400),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs[1], 0, "60 ns of probes exceed the 40 ns call");
        assert_eq!(selfs[2], 30);
        // Only operations enter the coverage: 40 of their 100 ns are in
        // layer spans.
        assert!((coverage_pct(&spans) - 40.0).abs() < 1e-9);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        t.set_op(7);
        t.span(OP, |t| {
            t.span("child", |_| ());
            t.record("timed_elsewhere", 1, 2, None);
        });
        let of = t.last_closed();
        t.probe("p", of, |_| ());
        assert_eq!(t.spans.len(), 4);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        assert_eq!(t.spans[3].probe_of, Some(0));
        assert!(t.spans.iter().all(|s| s.op == 7));
        let by = self_time_by_name(&t.spans);
        assert_eq!(by["child"].1, 1);

        let mut off = Tracer::new(false);
        let v = off.span("root", |t| t.probe("p", Some(0), |_| 3));
        assert_eq!(v, 3);
        assert!(off.spans.is_empty() && off.last_closed().is_none());
    }
}
