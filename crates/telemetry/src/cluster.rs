//! Cluster-wide trace merging: spans shipped home from remote worker
//! processes, re-timed onto the coordinator's clock, and serialized as one
//! multi-process chrome://tracing / Perfetto JSON trace.
//!
//! Each contributing process becomes a [`ProcessSpans`] with its rank as
//! the Perfetto `pid` and the clock offset estimated during the transport
//! handshake; the merge adds the offset to every timestamp so spans from
//! different machines nest correctly in one timeline.

use crate::export::{json_escape, write_span_event};
use crate::SpanRecord;
use std::fmt::Write as _;

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
    pub spans: Vec<SpanRecord>,
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
            out.push(',');
            let ts_ns = (s.start_ns as i128 + p.offset_ns as i128).max(0) as u64;
            write_span_event(&mut out, s, p.pid, ts_ns);
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, dur_ns: u64, trace: u64) -> SpanRecord {
        SpanRecord {
            name: name.into(),
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

    /// Golden test: the merged trace of two processes, byte for byte — a
    /// reference row, and a worker row with a negative clock offset, one
    /// labelled and traced span and one bare span.
    #[test]
    fn cluster_trace_golden() {
        let procs = vec![
            ProcessSpans {
                pid: 2,
                name: "coordinator".to_string(),
                offset_ns: 0,
                spans: vec![span("net.roundtrip", 1_000, 9_000, 7)],
            },
            ProcessSpans {
                pid: 0,
                name: "rank0".to_string(),
                offset_ns: -500,
                spans: vec![
                    SpanRecord {
                        label: Some("rank=0".to_string()),
                        tid: 3,
                        ..span("net.roundtrip", 2_500, 4_000, 7)
                    },
                    SpanRecord {
                        tid: 3,
                        depth: 2,
                        ..span("matvec.upward", 2_600, 1_250, 0)
                    },
                ],
            },
        ];
        assert_eq!(
            cluster_trace_json(&procs),
            "{\"traceEvents\":[\
             {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,\
             \"args\":{\"name\":\"coordinator\"}},\
             {\"name\":\"net.roundtrip\",\"cat\":\"h2\",\"ph\":\"X\",\"ts\":1.000,\"dur\":9.000,\
             \"pid\":2,\"tid\":1,\"args\":{\"trace\":7}},\
             {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
             \"args\":{\"name\":\"rank0\"}},\
             {\"name\":\"net.roundtrip\",\"cat\":\"h2\",\"ph\":\"X\",\"ts\":2.000,\"dur\":4.000,\
             \"pid\":0,\"tid\":3,\"args\":{\"label\":\"rank=0\",\"trace\":7}},\
             {\"name\":\"matvec.upward\",\"cat\":\"h2\",\"ph\":\"X\",\"ts\":2.100,\"dur\":1.250,\
             \"pid\":0,\"tid\":3,\"args\":{}}\
             ],\"displayTimeUnit\":\"ms\"}"
        );
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
