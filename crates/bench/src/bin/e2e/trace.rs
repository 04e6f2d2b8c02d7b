//! In-memory spans, written out as JSON when the benchmark ends.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::json;

pub type SpanId = u32;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one. Constituent re-executions in the
    /// layer replay are parented to the `session.step.*` span whose work
    /// they repeat, and start after it ends.
    pub parent: Option<SpanId>,
    /// Frame (terminal) id shared by every span of one request.
    pub frame: Option<u64>,
    /// Modeled completion cycle, on `frame.done` stamps.
    pub modeled_cycle: Option<u64>,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        frame: Option<u64>,
    ) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            frame,
            modeled_cycle: None,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Closes the span and returns its duration in nanoseconds.
    pub fn end(&mut self, id: SpanId) -> u64 {
        let now = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        now - span.start_ns
    }

    /// A zero-length span marking a finished frame.
    pub fn stamp(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        frame: u64,
        modeled_cycle: u64,
    ) {
        let id = self.begin(name, parent, Some(frame));
        self.spans[id as usize].modeled_cycle = Some(modeled_cycle);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes `{"workload": .., "spans": [..]}`, one span per line.
    pub fn write(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = String::with_capacity(96 * self.spans.len() + 64);
        out.push_str("{\"workload\": ");
        let _ = json::write_str(&mut out, workload);
        out.push_str(", \"spans\": [\n");
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = write!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {}, \"frame\": {}, \"modeled_cycle\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(u64::from)),
                opt(s.frame),
                opt(s.modeled_cycle),
            );
            out.push_str(if id + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// `<target dir>/e2e/<workload>.trace.json`, honouring `CARGO_TARGET_DIR`.
pub fn trace_path(workload: &str) -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("e2e").join(format!("{workload}.trace.json"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialise_as_json() {
        let mut t = Tracer::new();
        let frame = t.begin("frame", None, Some(9));
        let step = t.begin("session.step.ofdm.capture", Some(frame), Some(9));
        assert!(t.end(step) <= t.end(frame));
        t.stamp("frame.done.ofdm", Some(frame), 9, 12_345);
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[1].parent, Some(frame));

        let path = std::env::temp_dir().join(format!("e2e-trace-test-{}.json", std::process::id()));
        t.write(&path, "unit").unwrap();
        let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        let Some(json::Json::Arr(spans)) = doc.get("spans") else {
            panic!("no spans array");
        };
        assert_eq!(spans.len(), 3);
        assert_eq!(
            spans[2].get("modeled_cycle").and_then(json::Json::as_f64),
            Some(12_345.0)
        );
        assert_eq!(spans[0].get("parent"), Some(&json::Json::Null));
    }
}
