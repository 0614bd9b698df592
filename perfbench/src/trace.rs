//! In-memory span recorder for the traced runs.
//!
//! A span covers one call the benchmark makes into the program: a name, a
//! detail (the heuristic kind or request type), start and end in
//! nanoseconds since the run's origin, the enclosing span and the op it
//! belongs to. Spans stay in memory while the run measures and are written
//! out once it ends. A disabled tracer records nothing, so the timed runs
//! pay one branch per call site.

use std::io::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub detail: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span (`None` when the tracer is disabled).
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, detail: &'static str, op: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            detail,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(index);
        Open(Some(index))
    }

    /// Closes a span; spans close in the reverse order they opened.
    pub fn end(&mut self, open: Open) {
        if let Some(index) = open.0 {
            self.spans[index].end_ns = self.now_ns();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(index), "spans must close innermost first");
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        detail: &'static str,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.begin(name, detail, op);
        let result = f();
        self.end(open);
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span called `name` (and `detail`,
    /// when given).
    pub fn durations_ms(&self, name: &str, detail: Option<&str>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && detail.is_none_or(|d| s.detail == d))
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent] += span.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }
}

/// Writes the tracer's spans as JSON lines.
pub fn write_spans(path: &std::path::Path, tracer: &Tracer) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (span, self_ns) in tracer.spans().iter().zip(tracer.self_ns()) {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"detail\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"self_ns\":{self_ns}}}",
            span.name, span.detail, span.op, span.start_ns, span.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tracer = Tracer::new(true, Instant::now());
        let outer = tracer.begin("op", "", 0);
        tracer.span("solve", "scatter", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tracer.end(outer);
        let spans = tracer.spans();
        assert_eq!(spans[1].parent, Some(0));
        let self_ns = tracer.self_ns();
        assert_eq!(self_ns[0], spans[0].duration_ns() - spans[1].duration_ns());
        assert_eq!(self_ns[1], spans[1].duration_ns());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false, Instant::now());
        let open = tracer.begin("op", "", 0);
        tracer.end(open);
        assert!(tracer.spans().is_empty());
    }
}
