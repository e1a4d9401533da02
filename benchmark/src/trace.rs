//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from outside the program: around the real path's
//! calls and around each probe of the layer chain. They stay in memory
//! until the run ends and are then written to
//! `benchmark/out/trace-<workload>.json`; the per-layer metrics are
//! aggregates over them.

use std::io::Write as _;
use std::time::Instant;

use crate::harness::ns;

/// Index of a recorded span (its `parent` link target).
pub type SpanId = u32;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Publication index (or op/cycle index) shared by one request's spans.
    pub req: u64,
}

pub struct Tracer {
    origin: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { origin: Instant::now(), enabled, spans: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a finished span from timestamps the caller took anyway.
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: ns(start.duration_since(self.origin)),
            end_ns: ns(end.duration_since(self.origin)),
            parent,
            req,
        });
        Some((self.spans.len() - 1) as SpanId)
    }

    /// Times `f` and records it as a span; returns the span and `f`'s value.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> (Option<SpanId>, R) {
        let start = Instant::now();
        let value = f();
        let end = Instant::now();
        (self.record(name, req, parent, start, end), value)
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).collect()
    }

    /// Median duration of the spans called `name` (0 if there are none).
    pub fn median(&self, name: &str) -> f64 {
        crate::harness::median_ns(self.durations(name))
    }

    /// Mean duration of the spans called `name` (0 if there are none).
    pub fn mean(&self, name: &str) -> f64 {
        crate::harness::mean(&self.durations(name))
    }

    /// Mean *self* time of the spans called `name`: duration minus what
    /// their child spans cover.
    pub fn mean_self(&self, name: &str) -> f64 {
        let mut child_time = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_time[parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let selfs: Vec<u64> = self
            .spans
            .iter()
            .zip(&child_time)
            .filter(|(s, _)| s.name == name)
            .map(|(s, children)| (s.end_ns - s.start_ns).saturating_sub(*children))
            .collect();
        crate::harness::mean(&selfs)
    }

    /// Writes the spans as one JSON array; returns the path written.
    pub fn write(&self, workload: &str) -> std::io::Result<String> {
        let dir = std::path::Path::new("benchmark/out");
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("trace-{workload}.json"));
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(out, "[")?;
        for (k, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let comma = if k + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\": {k}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"req\": {}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        writeln!(out, "]")?;
        out.flush()?;
        Ok(path.display().to_string())
    }
}
