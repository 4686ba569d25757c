//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, start and end (nanoseconds since the run's origin),
//! the index of the span that caused it, and an id shared by every span
//! of one query, request or batch round. Spans stay in memory and are
//! written out as JSONL when the run ends; a disabled tracer records
//! nothing.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    id: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// An in-memory span log.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

/// Handle to an open span; [`Tracer::close`] stamps its end.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

impl Tracer {
    /// A tracer whose timestamps count from `origin`.
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens span `name` for query/round `id` under `parent`.
    pub fn open(&mut self, name: &'static str, id: u64, parent: SpanId) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent: parent.0,
            start_ns,
            end_ns: start_ns,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    /// Closes an open span.
    pub fn close(&mut self, span: SpanId) {
        if let Some(i) = span.0 {
            let end = self.now_ns();
            if let Some(s) = self.spans.get_mut(i) {
                s.end_ns = end;
            }
        }
    }

    /// Records an already-measured interval ending now.
    pub fn record(&mut self, name: &'static str, id: u64, parent: SpanId, dur_ns: u64) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let start_ns = end_ns.saturating_sub(dur_ns);
        self.spans.push(Span {
            name,
            id,
            parent: parent.0,
            start_ns,
            end_ns,
        });
    }

    /// Appends another tracer's spans (same origin), re-basing parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The root (no parent) handle.
    pub fn root() -> SpanId {
        SpanId(None)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\": {i}, \"name\": \"{}\", \"id\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Where a traced run writes its spans: `e2ebench/traces/` under the
/// directory the benchmark runs from.
pub fn trace_path(workload: &str, seed: u64) -> std::path::PathBuf {
    Path::new("e2ebench")
        .join("traces")
        .join(format!("{workload}-seed{seed}.jsonl"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialise() {
        let mut t = Tracer::new(true, Instant::now());
        let round = t.open("round", 7, Tracer::root());
        let child = t.open("exec", 7, round);
        t.close(child);
        t.close(round);
        let mut other = Tracer::new(true, t.origin);
        let r2 = other.open("round", 8, Tracer::root());
        other.record("request", 8, r2, 10);
        t.absorb(other);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("test-{}", std::process::id()));
        let path = dir.join("t.jsonl");
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].contains("\"name\": \"exec\", \"id\": 7, \"parent\": 0"));
        assert!(lines[3].contains("\"name\": \"request\", \"id\": 8, \"parent\": 2"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let s = t.open("round", 1, Tracer::root());
        t.close(s);
        assert!(t.spans.is_empty());
    }
}
