//! In-memory spans around the calls the benchmark itself makes.
//!
//! The program is not instrumented, so two kinds of attribution exist:
//!
//! * **nested spans** (a pass containing its requests) — self time is the
//!   span's duration minus the part of it its children cover;
//! * **the onion** — one request replayed at each successive public
//!   boundary (serve ⊃ exec ⊃ search); the replays run one after another,
//!   so a layer's self time is its duration minus the duration one
//!   boundary in.
//!
//! Spans stay in memory for the whole run and are written once, at exit.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json::{num, obj, str, Value};

/// One span. `id` is its index in the trace; `parent` refers to another id.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub request_id: u64,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The clock every span of a run is read from.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Self {
        Clock(Instant::now())
    }

    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Self time of every span of a nested trace: its duration minus the union
/// of its direct children's intervals, each clipped to the parent (two
/// overlapping children — pipelined requests — are not subtracted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span
            .parent
            .and_then(|p| spans.get(p as usize).map(|s| (p, s)))
        {
            let (lo, hi) = (
                span.start_ns.max(parent.1.start_ns),
                span.end_ns.min(parent.1.end_ns),
            );
            if lo < hi {
                children[parent.0 as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut frontier = span.start_ns;
            for (lo, hi) in intervals {
                let lo = lo.max(frontier);
                if hi > lo {
                    covered += hi - lo;
                    frontier = hi;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Onion subtraction over one request's durations, outermost boundary
/// first: `self[i] = d[i] - d[i+1]`, the innermost keeps its whole
/// duration. A negative self time means the inner replay ran slower than
/// the boundary that contains it (noise, or parallelism the sequential
/// replay cannot see); it is kept signed so the sum still telescopes to
/// the outer duration and the caller can count how often it happens.
pub fn onion_self(durations_ns: &[u64]) -> Vec<i64> {
    durations_ns
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let inner = durations_ns.get(i + 1).copied().unwrap_or(0);
            *d as i64 - inner as i64
        })
        .collect()
}

fn span_json(id: usize, span: &Span) -> Value {
    obj([
        ("id", num(id as f64)),
        ("name", str(span.name)),
        ("request_id", num(span.request_id as f64)),
        (
            "parent",
            span.parent.map_or(Value::Null, |p| num(f64::from(p))),
        ),
        ("start_ns", num(span.start_ns as f64)),
        ("end_ns", num(span.end_ns as f64)),
    ])
}

/// Writes one JSON object per line.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, span) in spans.iter().enumerate() {
        writeln!(out, "{}", span_json(id, span).compact())?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            request_id: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let spans = [
            span(None, 0, 100),     // 0: pass
            span(Some(0), 10, 40),  // 1
            span(Some(0), 30, 60),  // 2: overlaps 1 (pipelined)
            span(Some(0), 90, 130), // 3: runs past the parent, clipped
            span(Some(1), 15, 20),  // 4: grandchild, only its parent pays
            span(Some(0), 35, 38),  // 5: nested inside covered time
        ];
        let own = self_times(&spans);
        // pass: 100 - ([10,60) = 50) - ([90,100) = 10) = 40
        assert_eq!(own[0], 40);
        assert_eq!(own[1], 30 - 5);
        assert_eq!(own[2], 30);
        assert_eq!(own[3], 40);
        assert_eq!(own[4], 5);
    }

    #[test]
    fn a_dangling_parent_is_ignored() {
        let own = self_times(&[span(Some(7), 0, 10)]);
        assert_eq!(own, [10]);
    }

    #[test]
    fn onion_telescopes_to_the_outer_span() {
        let d = [1000u64, 700, 450];
        let own = onion_self(&d);
        assert_eq!(own, [300, 250, 450]);
        assert_eq!(own.iter().sum::<i64>(), 1000);
        // An inner replay slower than its container stays signed.
        let own = onion_self(&[500, 600]);
        assert_eq!(own, [-100, 600]);
        assert_eq!(own.iter().sum::<i64>(), 500);
        assert!(onion_self(&[]).is_empty());
    }

    #[test]
    fn jsonl_is_one_object_per_span() {
        let dir = crate::env::out_dir().join(format!("trace-test-{}", std::process::id()));
        let path = dir.join("t.jsonl");
        write_jsonl(&path, &[span(None, 0, 5), span(Some(0), 1, 2)]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let second = crate::json::parse(lines[1]).unwrap();
        assert_eq!(second.get("parent").and_then(Value::as_f64), Some(0.0));
        assert_eq!(second.get("end_ns").and_then(Value::as_f64), Some(2.0));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
