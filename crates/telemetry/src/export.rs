//! Exporters: chrome://tracing JSON, and the snapshot as a source of the
//! Prometheus exposition writer ([`crate::expo`]).
//!
//! Both operate on a [`TelemetrySnapshot`], so any tool that can take a
//! snapshot (benches, the serving CLI, tests) gets both formats for free.
//! The JSON writer is hand-rolled (this crate has zero dependencies); the
//! emitted trace uses `"ph": "X"` *complete* events, which Perfetto and
//! `about:tracing` nest purely by `(tid, ts, dur)` containment — exactly
//! the relationship the span guards guarantee. [`write_span_event`] writes
//! those events for this process's trace and for the merged cluster trace.

use crate::{Exposition, SpanRecord, TelemetrySnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Aggregate of all spans sharing one `(name, label)` key.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanTotal {
    /// Number of spans recorded under the key.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
}

impl SpanTotal {
    /// Summed duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }

    /// Summed duration in milliseconds.
    pub fn millis(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }
}

impl TelemetrySnapshot {
    /// Aggregates spans by `(name, label)` (label empty when absent),
    /// sorted by key.
    pub fn span_totals(&self) -> BTreeMap<(String, String), SpanTotal> {
        let mut out: BTreeMap<(String, String), SpanTotal> = BTreeMap::new();
        for s in &self.spans {
            let key = (s.name.to_string(), s.label.clone().unwrap_or_default());
            let t = out.entry(key).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns;
        }
        out
    }

    /// Serializes the snapshot's spans as a chrome://tracing /
    /// Perfetto-loadable JSON object (`traceEvents` of `"ph": "X"` complete
    /// events; timestamps and durations in fractional microseconds). Spans
    /// carrying a trace id expose it as `args.trace`; if the process
    /// dropped spans at the store cap, one trailing `"ph":"I"` instant
    /// event surfaces the `telemetry.spans_dropped` count.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (k, s) in self.spans.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            write_span_event(&mut out, s, 1, s.start_ns);
        }
        let dropped = self.counter("telemetry.spans_dropped");
        if dropped > 0 {
            if !self.spans.is_empty() {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"telemetry.spans_dropped\",\"cat\":\"h2\",\"ph\":\"I\",\
                 \"ts\":0.000,\"s\":\"g\",\"pid\":1,\"tid\":0,\
                 \"args\":{{\"dropped\":{dropped}}}}}"
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }

    /// Describes the snapshot to `out`: one `counter` family per registered
    /// counter (`h2_<name>`), plus per-`(name, label)` span aggregates as
    /// `h2_span_seconds_total` / `h2_span_count_total`.
    pub fn expose(&self, out: &mut Exposition) {
        for (name, value) in &self.counters {
            out.counter(name).sample(&[], value);
        }
        let totals = self.span_totals();
        if totals.is_empty() {
            return;
        }
        for (family, seconds) in [
            ("h2_span_seconds_total", true),
            ("h2_span_count_total", false),
        ] {
            let mut family = out.counter(family);
            for ((name, label), t) in &totals {
                // `label` is part of the series only when the span had one.
                let labels = [("span", name.as_str()), ("label", label.as_str())];
                let labels = &labels[..if label.is_empty() { 1 } else { 2 }];
                if seconds {
                    family.sample(labels, format_args!("{:.9}", t.seconds()));
                } else {
                    family.sample(labels, t.count);
                }
            }
        }
    }

    /// [`Self::expose`] as a standalone Prometheus text body.
    pub fn prometheus_text(&self) -> String {
        let mut out = Exposition::new();
        self.expose(&mut out);
        out.finish()
    }
}

/// Appends `s` as one `"ph":"X"` complete event of process `pid` starting
/// at `ts_ns` (nanoseconds on the trace's clock; written in microseconds).
/// The label and a nonzero trace id go into `args`.
pub(crate) fn write_span_event(out: &mut String, s: &SpanRecord, pid: u32, ts_ns: u64) {
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"cat\":\"h2\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
         \"pid\":{pid},\"tid\":{}",
        json_escape(&s.name),
        ts_ns as f64 / 1e3,
        s.dur_ns as f64 / 1e3,
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

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn span_totals_aggregate_by_name_and_label() {
        let mk = |name: &'static str, label: Option<&str>, dur: u64| SpanRecord {
            name: name.into(),
            label: label.map(str::to_string),
            tid: 1,
            start_ns: 0,
            dur_ns: dur,
            depth: 1,
            trace: 0,
        };
        let snap = TelemetrySnapshot {
            counters: Default::default(),
            spans: vec![
                mk("a", None, 10),
                mk("a", None, 20),
                mk("a", Some("rank=0"), 5),
            ],
        };
        let totals = snap.span_totals();
        assert_eq!(
            totals[&("a".to_string(), String::new())],
            SpanTotal {
                count: 2,
                total_ns: 30
            }
        );
        assert_eq!(
            totals[&("a".to_string(), "rank=0".to_string())],
            SpanTotal {
                count: 1,
                total_ns: 5
            }
        );
    }
}
