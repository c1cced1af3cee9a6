//! In-memory spans and counters, exported as Chrome trace-event JSON.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! of the toolchain; nothing inside the toolchain is instrumented. All
//! work runs on one thread, so the recorder is thread-local. With
//! recording off, [`span`] is a plain call.

use crate::clock::thread_cpu_ns;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    run: u32,
}

#[derive(Default)]
struct Recorder {
    on: bool,
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, f64>,
    /// `(time, counter, running total)` at each counter update.
    samples: Vec<(u64, &'static str, f64)>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Switch recording on or off for this thread.
fn set_recording(on: bool) {
    REC.with(|r| r.borrow_mut().on = on);
}

/// Start a new run id: every span recorded from now on carries it (one
/// id per workflow iteration, fleet round or set-up).
fn next_run() {
    REC.with(|r| r.borrow_mut().run += 1);
}

/// Run `f` inside a span named `name`.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let Some(idx) = REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return None;
        }
        let idx = r.spans.len();
        let parent = r.open.last().copied();
        let run = r.run;
        r.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            run,
        });
        r.open.push(idx);
        Some(idx)
    }) else {
        return f();
    };
    // Read the clock outside the borrow and as close to `f` as possible.
    let start = thread_cpu_ns();
    let out = f();
    let end = thread_cpu_ns();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.spans[idx].start_ns = start;
        r.spans[idx].end_ns = end;
        r.open.pop();
    });
    out
}

/// Add `delta` to counter `name` (ignored while recording is off).
pub fn count(name: &'static str, delta: f64) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return;
        }
        let total = {
            let c = r.counts.entry(name).or_insert(0.0);
            *c += delta;
            *c
        };
        r.samples.push((thread_cpu_ns(), name, total));
    });
}

/// A position in the recording; [`summary`] aggregates between two.
#[derive(Clone)]
struct Mark {
    spans: usize,
    counts: BTreeMap<&'static str, f64>,
}

/// The current position in the recording.
fn mark() -> Mark {
    REC.with(|r| {
        let r = r.borrow();
        Mark {
            spans: r.spans.len(),
            counts: r.counts.clone(),
        }
    })
}

/// Totals of one span name: calls, inclusive and self CPU seconds.
#[derive(Clone, Copy, Default, Debug)]
pub struct Layer {
    pub calls: usize,
    pub total_s: f64,
    pub self_s: f64,
}

/// What was recorded between two marks.
#[derive(Default, Debug)]
pub struct Summary {
    /// Per span name.
    pub layers: BTreeMap<&'static str, Layer>,
    /// Counter increments.
    pub counts: BTreeMap<&'static str, f64>,
}

impl Summary {
    /// Inclusive seconds of spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.layers.get(name).map_or(0.0, |l| l.total_s)
    }

    /// Counter `name`'s increment.
    pub fn counter(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Add `other`'s spans and counter increments to these.
    pub fn merge(&mut self, other: Summary) {
        for (name, l) in other.layers {
            let e = self.layers.entry(name).or_default();
            e.calls += l.calls;
            e.total_s += l.total_s;
            e.self_s += l.self_s;
        }
        for (name, v) in other.counts {
            *self.counts.entry(name).or_insert(0.0) += v;
        }
    }
}

/// Run `f`, recorded under a new run id when `on`, and return what it
/// recorded.
pub fn recorded<R>(on: bool, f: impl FnOnce() -> R) -> (R, Summary) {
    if !on {
        return (f(), Summary::default());
    }
    next_run();
    set_recording(true);
    let from = mark();
    let out = f();
    let to = mark();
    set_recording(false);
    (out, summary(&from, &to))
}

/// Aggregate the spans and counter updates between `from` and `to`. A
/// span's self time is its duration minus that of its direct children.
fn summary(from: &Mark, to: &Mark) -> Summary {
    REC.with(|r| {
        let r = r.borrow();
        let spans = &r.spans[from.spans..to.spans];
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent.filter(|&p| p >= from.spans) {
                child_ns[p - from.spans] += s.end_ns - s.start_ns;
            }
        }
        let mut out = Summary::default();
        for (s, children) in spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let layer = out.layers.entry(s.name).or_default();
            layer.calls += 1;
            layer.total_s += dur as f64 / 1e9;
            layer.self_s += dur.saturating_sub(children) as f64 / 1e9;
        }
        for (&name, &total) in &to.counts {
            let delta = total - from.counts.get(name).copied().unwrap_or(0.0);
            if delta != 0.0 {
                out.counts.insert(name, delta);
            }
        }
        out
    })
}

/// Share of the last span named `root` that its direct children cover
/// (1.0 when every step of it ran inside a layer span).
pub fn coverage_of_last(root: &str) -> f64 {
    REC.with(|r| {
        let r = r.borrow();
        let Some(idx) = r.spans.iter().rposition(|s| s.name == root) else {
            return 0.0;
        };
        let root_ns = r.spans[idx].end_ns - r.spans[idx].start_ns;
        let covered_ns: u64 = r.spans[idx + 1..]
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        covered_ns as f64 / root_ns.max(1) as f64
    })
}

/// The whole recording in Chrome trace-event JSON (opens in Perfetto and
/// `chrome://tracing`): one complete event per span, with its id, parent
/// and run id; one counter event per counter update; and `table`, the
/// per-layer self-time table, under `otherData`.
pub fn chrome_json(table: &Summary) -> String {
    REC.with(|r| {
        let r = r.borrow();
        // Times count from the first span's start.
        let origin_ns = r.spans.first().map_or(0, |s| s.start_ns);
        let us = |ns: u64| ns.saturating_sub(origin_ns) as f64 / 1e3;
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
        };
        for (i, s) in r.spans.iter().enumerate() {
            sep(&mut out);
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{},\"dur\":{},\"args\":{{\"span\":{i},\"parent\":{parent},\"run\":{}}}}}",
                s.name,
                us(s.start_ns),
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.run
            );
        }
        for &(ts, name, total) in &r.samples {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"{name}\",\"cat\":\"counter\",\"ph\":\"C\",\"pid\":1,\"tid\":1,\"ts\":{},\"args\":{{\"value\":{total}}}}}",
                us(ts)
            );
        }
        out.push_str("\n],\"otherData\":{\"clock\":\"thread CPU time\",\"self_time\":{");
        let mut rows = table.layers.iter().collect::<Vec<_>>();
        rows.sort_by(|a, b| b.1.self_s.total_cmp(&a.1.self_s));
        for (i, (name, l)) in rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n\"{name}\":{{\"calls\":{},\"total_s\":{},\"self_s\":{}}}",
                l.calls, l.total_s, l.self_s
            );
        }
        out.push_str("\n}}}\n");
        out
    })
}
