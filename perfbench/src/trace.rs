//! In-memory spans around the benchmark's calls into each layer.
//!
//! Nothing inside the program is instrumented: a span covers one call
//! from the benchmark into a crate's public function, and each job
//! gets a parent span (`bench.job`). A span's name is
//! `<layer>.<operation>`; its layer is the part before the first dot.
//! Spans stay in memory while the benchmark runs and are written out
//! once at the end, in Chrome trace format.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Name of the parent span every job gets.
pub const JOB_SPAN: &str = "bench.job";

/// One recorded interval, in nanoseconds since the tracer's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique within one tracer.
    pub id: u32,
    /// The enclosing span (the job span for layer calls).
    pub parent: Option<u32>,
    /// `<layer>.<operation>`.
    pub name: &'static str,
    /// Index of the job within its round.
    pub job: u32,
    /// Free argument: the 1-based DIP index for `locking.find_dip`
    /// (0 for the final call that finds none).
    pub arg: u32,
    /// Start, ns since the origin.
    pub start_ns: u64,
    /// End, ns since the origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer: the name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans when enabled; otherwise every call is a plain call.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    job: u32,
    job_span: u32,
    next_id: u32,
}

impl Tracer {
    /// A tracer that records (`on`) or only forwards calls.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            job: 0,
            job_span: 0,
            next_id: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Toggles recording (the traced run alternates traced and plain
    /// rounds to measure the tracing overhead).
    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    /// Runs `f`, one call into a layer, as span `name`.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.call_arg(name, 0, f)
    }

    /// [`Tracer::call`] with a span argument.
    pub fn call_arg<T>(&mut self, name: &'static str, arg: u32, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let id = self.alloc_id();
        let span = Span {
            id,
            parent: Some(self.job_span),
            name,
            job: self.job,
            arg,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        out
    }

    /// Opens job `job`: the layer spans recorded until
    /// [`Tracer::end_job`] become its children.
    pub fn begin_job(&mut self, job: u32) {
        self.job = job;
        self.job_span = self.alloc_id();
    }

    /// Closes the current job with the interval the runner timed.
    pub fn end_job(&mut self, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let span = Span {
            id: self.job_span,
            parent: None,
            name: JOB_SPAN,
            job: self.job,
            arg: 0,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn alloc_id(&mut self) -> u32 {
        self.next_id += 1;
        self.next_id
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Self time per layer, in nanoseconds: each span's duration minus the
/// part of it its children cover (overlapping children count once).
/// The job spans' self time is the benchmark's own work, under `bench`.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        *out.entry(s.layer()).or_default() += s.dur_ns() - covered;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.clamp(lo, hi), b.clamp(lo, hi)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (a, b) in iv {
        let a = a.max(reach);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Total duration per span name, in nanoseconds.
pub fn total_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_default() += s.dur_ns();
    }
    out
}

/// The spans as a Chrome trace (`chrome://tracing`, Perfetto).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut s = String::from("[\n");
    for (i, sp) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\
             \"args\":{{\"id\":{},\"parent\":{},\"job\":{},\"arg\":{}}}}}{sep}",
            sp.name,
            sp.layer(),
            sp.start_ns as f64 / 1e3,
            sp.dur_ns() as f64 / 1e3,
            sp.id,
            sp.parent.map_or("null".to_string(), |p| p.to_string()),
            sp.job,
            sp.arg,
        );
    }
    s.push(']');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            job: 0,
            arg: 0,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_times_account_for_the_job_span() {
        let spans = vec![
            span(2, Some(1), "locking.find_dip", 10, 30),
            span(3, Some(1), "netlist.sim", 40, 70),
            span(4, Some(1), "locking.constrain", 70, 75),
            span(1, None, JOB_SPAN, 0, 100),
        ];
        let by_layer = self_time_by_layer(&spans);
        assert_eq!(by_layer["locking"], 25);
        assert_eq!(by_layer["netlist"], 30);
        assert_eq!(by_layer["bench"], 45);
        assert_eq!(by_layer.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = vec![
            span(1, None, JOB_SPAN, 0, 100),
            span(2, Some(1), "puf.eval", 10, 30),
            span(3, Some(1), "puf.eval", 20, 40),
            span(4, Some(1), "puf.eval", 90, 120),
        ];
        // Children cover [10, 40) and [90, 100) of the job.
        assert_eq!(self_time_by_layer(&spans)["bench"], 60);
    }

    #[test]
    fn nested_spans_subtract_only_their_own_children() {
        let spans = vec![
            span(1, None, JOB_SPAN, 0, 50),
            span(2, Some(1), "locking.appsat", 0, 40),
            span(3, Some(2), "sat.solve", 5, 25),
        ];
        let by_layer = self_time_by_layer(&spans);
        assert_eq!(by_layer["bench"], 10);
        assert_eq!(by_layer["locking"], 20);
        assert_eq!(by_layer["sat"], 20);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.begin_job(0);
        let start = Instant::now();
        assert_eq!(t.call("puf.eval", || 7), 7);
        t.end_job(start, Instant::now());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_parents_calls_to_the_job() {
        let mut t = Tracer::new(true);
        t.begin_job(3);
        let start = Instant::now();
        t.call_arg("locking.find_dip", 1, || ());
        t.end_job(start, Instant::now());
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert_eq!((spans[0].job, spans[0].arg), (3, 1));
        assert!(chrome_json(spans).contains("\"name\":\"bench.job\""));
    }
}
