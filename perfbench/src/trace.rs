//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only from the benchmark's own code, around calls
//! into the library crates. A span is a name, a start and an end (relative
//! to the tracer's epoch), the span that caused it, and an operation id
//! shared by every span of one task or request. Spans are kept in memory
//! and written out as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use mini_json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub op: u64,
    /// The span's extent was attributed from a cold-minus-warm difference
    /// rather than observed directly (placed at its parent's start).
    pub derived: bool,
}

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

    /// Records a finished span and returns its index (usable as a parent).
    pub fn record(
        &mut self,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        self.push(Span {
            name: name.into(),
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
            parent,
            op,
            derived: false,
        })
    }

    /// Records an attributed child of `parent` lasting `secs`, clamped to
    /// the parent's own extent.
    pub fn attribute(&mut self, name: impl Into<String>, parent: usize, secs: f64) -> usize {
        let p = self.spans[parent].clone();
        let len = Duration::from_secs_f64(secs.max(0.0)).min(p.end - p.start);
        self.push(Span {
            name: name.into(),
            start: p.start,
            end: p.start + len,
            parent: Some(parent),
            op: p.op,
            derived: true,
        })
    }

    fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: each span's duration minus the time its
    /// direct children cover, summed over spans of that name.
    pub fn self_times(&self) -> BTreeMap<String, f64> {
        let mut child = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += (s.end - s.start).as_secs_f64();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end - s.start).as_secs_f64() - child[i];
            *out.entry(s.name.clone()).or_insert(0.0) += own.max(0.0);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let line = Json::object([
                ("id", Json::num(i as f64)),
                ("name", Json::str(s.name.clone())),
                ("start_us", Json::num(s.start.as_secs_f64() * 1e6)),
                ("end_us", Json::num(s.end.as_secs_f64() * 1e6)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::num(p as f64)),
                ),
                ("op", Json::num(s.op as f64)),
                ("derived", Json::Bool(s.derived)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new();
        let t0 = Instant::now();
        let ms = |n| t0 + Duration::from_millis(n);
        let root = t.record("root", ms(0), ms(100), None, 0);
        let a = t.record("task", ms(10), ms(50), Some(root), 1);
        t.attribute("sim", a, 0.030);
        t.record("task", ms(50), ms(90), Some(root), 2);
        let st = t.self_times();
        assert!((st["root"] - 0.020).abs() < 1e-9);
        assert!((st["task"] - 0.050).abs() < 1e-9);
        assert!((st["sim"] - 0.030).abs() < 1e-9);
        let total: f64 = st.values().sum();
        assert!(
            (total - 0.100).abs() < 1e-9,
            "self times add up to the root"
        );
    }
}
