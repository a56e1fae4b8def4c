//! In-memory spans recorded by the benchmark around its calls into
//! each layer. Spans of one request share its id and point at their
//! parent; they are kept in memory and written out once, at the end.

use crate::util::now;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub type SpanId = usize;

struct Span {
    name: &'static str,
    request: u64,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, request: u64, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now();
    }

    /// Records a span whose bounds were taken elsewhere (another
    /// thread's timestamps).
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let (start_ns, end_ns) = (at(start), at(end));
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        self.spans.len() - 1
    }

    pub fn duration_ns(&self, id: SpanId) -> u64 {
        let s = &self.spans[id];
        s.end_ns - s.start_ns
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its children cover. Children of one span run on
    /// one thread, one after another, so their clipped durations add.
    fn self_times(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                covered[p] += hi.saturating_sub(lo);
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Writes every span as one JSON line: name, request id, own id,
    /// parent id, start and end (ns since the tracer started), and
    /// self time.
    pub fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, (s, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"span\":{id},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}\n",
                s.name, s.request, s.start_ns, s.end_ns
            ));
        }
        let mut file =
            std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        file.write_all(out.as_bytes())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        file.flush().map_err(|e| format!("{}: {e}", path.display()))
    }
}
