//! In-memory spans and counters for the traced replay.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! layer crates; nothing inside the program is instrumented. Span
//! bounds are CPU time of the process since the tracer was made (see
//! [`crate::clock`]). Everything stays in memory until
//! [`Tracer::write`] puts it on disk at exit.

use crate::clock::CpuTime;
use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

/// A handle to an open span, closed by [`Tracer::exit`].
#[must_use]
pub struct Open(usize);

pub struct Tracer {
    origin: CpuTime,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: CpuTime::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
            counters: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Tags every span opened from now on with `request`.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(id);
        Open(id)
    }

    /// Closes `span` and any span still open inside it (left open when
    /// a replay returned early on an error).
    pub fn exit(&mut self, span: Open) {
        let end = self.now_ns();
        while let Some(id) = self.open.pop() {
            self.spans[id].end_ns = end;
            if id == span.0 {
                break;
            }
        }
    }

    /// Runs `f` inside a span called `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.enter(name);
        let out = f();
        self.exit(span);
        out
    }

    /// Adds `value` to counter `name`.
    pub fn count(&mut self, name: &'static str, value: f64) {
        *self.counters.entry(name).or_insert(0.0) += value;
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Self time in ns per span name: each span's duration minus the
    /// part covered by its direct children.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(covered);
        }
        out
    }

    /// Durations in ms of every span named `name`, in start order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Time in ms inside the spans directly under `engine.run` spans,
    /// over the spans recorded from index `first` on.
    pub fn run_layers_ms_since(&self, first: usize) -> f64 {
        let ns: u64 = self.spans[first..]
            .iter()
            .filter(|s| s.parent.is_some_and(|p| self.spans[p].name == "engine.run"))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        ns as f64 / 1e6
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> usize {
        self.spans.len()
    }

    /// What recording one span costs, in ns: the median of a few
    /// batches of empty spans on a scratch tracer.
    pub fn span_cost_ns() -> f64 {
        const BATCH: usize = 20_000;
        let costs: Vec<f64> = (0..5)
            .map(|_| {
                let mut probe = Tracer::new();
                let t = CpuTime::now();
                for _ in 0..BATCH {
                    probe.time("probe", || ());
                }
                t.elapsed().as_nanos() as f64 / BATCH as f64
            })
            .collect();
        crate::stats::median(&costs)
    }

    /// Writes every span and counter as JSON lines.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"span\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        for (name, value) in &self.counters {
            writeln!(w, "{{\"counter\":\"{name}\",\"value\":{value}}}")?;
        }
        w.flush()
    }
}
