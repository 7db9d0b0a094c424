//! Cluster-wide trace merging: spans shipped home from remote worker
//! processes, re-timed onto the coordinator's clock, and serialized as one
//! multi-process chrome://tracing / Perfetto JSON trace.
//!
//! [`SpanRecord`] borrows its name from the process's static strings, so it
//! cannot cross a process boundary; [`RemoteSpan`] is the owned twin that
//! the wire codec moves between ranks. Each contributing process becomes a
//! [`ProcessSpans`] with its rank as the Perfetto `pid` and the clock
//! offset estimated during the transport handshake; the merge adds the
//! offset to every timestamp so spans from different machines nest
//! correctly in one timeline.

use crate::export::json_escape;
use crate::SpanRecord;
use std::fmt::Write as _;

/// An owned span record, safe to ship between processes.
#[derive(Clone, Debug, PartialEq)]
pub struct RemoteSpan {
    /// Phase name (dotted, e.g. `matvec.horizontal`).
    pub name: String,
    /// Optional instance label (e.g. `rank=2`).
    pub label: Option<String>,
    /// Recording thread's id inside its own process.
    pub tid: u64,
    /// Start, ns since the *recording process's* epoch.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
    /// Nesting depth on its thread (outermost = 1).
    pub depth: u32,
    /// Trace id (0 = untraced).
    pub trace: u64,
}

impl From<&SpanRecord> for RemoteSpan {
    fn from(s: &SpanRecord) -> Self {
        RemoteSpan {
            name: s.name.to_string(),
            label: s.label.clone(),
            tid: s.tid,
            start_ns: s.start_ns,
            dur_ns: s.dur_ns,
            depth: s.depth,
            trace: s.trace,
        }
    }
}

impl RemoteSpan {
    /// End timestamp on the recording process's clock.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// One process's contribution to a merged cluster trace.
#[derive(Clone, Debug)]
pub struct ProcessSpans {
    /// Perfetto pid — by convention the rank (coordinator = `shards`).
    pub pid: u32,
    /// Human label for the process row (e.g. `worker rank 0`).
    pub name: String,
    /// Estimated `reference_clock − process_clock` in ns: adding it to a
    /// `start_ns` expresses the span on the reference (coordinator) clock.
    pub offset_ns: i64,
    /// The process's spans, on its own clock.
    pub spans: Vec<RemoteSpan>,
}

/// Merges per-process span sets into one chrome://tracing JSON trace:
/// `"ph":"X"` complete events with `pid` = rank and timestamps shifted by
/// each process's clock offset, plus a `process_name` metadata event per
/// process so Perfetto labels the rows.
pub fn cluster_trace_json(procs: &[ProcessSpans]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for p in procs {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
             \"args\":{{\"name\":\"{}\"}}}}",
            p.pid,
            json_escape(&p.name)
        );
        for s in &p.spans {
            let ts_ns = (s.start_ns as i128 + p.offset_ns as i128).max(0) as u64;
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"cat\":\"h2\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":{},\"tid\":{}",
                json_escape(&s.name),
                ts_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                p.pid,
                s.tid
            );
            let mut args = Vec::new();
            if let Some(l) = &s.label {
                args.push(format!("\"label\":\"{}\"", json_escape(l)));
            }
            if s.trace != 0 {
                args.push(format!("\"trace\":{}", s.trace));
            }
            let _ = write!(out, ",\"args\":{{{}}}}}", args.join(","));
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, dur_ns: u64, trace: u64) -> RemoteSpan {
        RemoteSpan {
            name: name.to_string(),
            label: None,
            tid: 1,
            start_ns,
            dur_ns,
            depth: 1,
            trace,
        }
    }

    #[test]
    fn cluster_trace_shifts_by_offset_and_tags_pids() {
        let procs = vec![
            ProcessSpans {
                pid: 2,
                name: "coordinator".to_string(),
                offset_ns: 0,
                spans: vec![span("net.roundtrip", 1_000, 9_000, 7)],
            },
            ProcessSpans {
                pid: 0,
                name: "worker rank 0".to_string(),
                offset_ns: -500,
                spans: vec![span("matvec", 2_500, 4_000, 7)],
            },
        ];
        let json = cluster_trace_json(&procs);
        assert!(json.contains("\"pid\":2"));
        assert!(json.contains("\"pid\":0"));
        assert!(json.contains("\"name\":\"process_name\""));
        // 2500ns − 500ns offset = 2000ns = 2.000µs on the reference clock.
        assert!(json.contains("\"ts\":2.000"), "{json}");
        assert!(json.contains("\"trace\":7"));
    }

    #[test]
    fn negative_offsets_clamp_at_the_epoch() {
        let procs = vec![ProcessSpans {
            pid: 0,
            name: "w".to_string(),
            offset_ns: -10_000,
            spans: vec![span("a", 100, 50, 0)],
        }];
        let json = cluster_trace_json(&procs);
        assert!(json.contains("\"ts\":0.000"), "{json}");
    }
}
