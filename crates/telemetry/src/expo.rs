//! The one Prometheus text-exposition writer.
//!
//! Every metrics source in the stack keeps its own data and describes it to
//! an [`Exposition`] through an inherent `expose(&self, out: &mut
//! Exposition)`; nothing else in the workspace writes a `# TYPE` line, a
//! `{label="…"}` set or a `_bucket{le=…}` series. A family's `# TYPE` line
//! is written when the family is opened — exactly once, also for a family
//! that ends up with no samples — and label values are escaped here and only
//! here, straight into the output string. This is a writer, not a registry:
//! whoever wants a body calls the `expose` methods it has, in its order.

use crate::hist::LogLinearHistogram;
use std::fmt::{Display, Write as _};

/// A Prometheus text-format body under construction.
pub struct Exposition {
    out: String,
    /// Sanitised name of the open family; the buffer is reused across them.
    family: String,
}

impl Default for Exposition {
    fn default() -> Self {
        Self::new()
    }
}

impl Exposition {
    /// An empty body, pre-sized for a full multi-tenant `/metrics` scrape
    /// (a few KiB) so one allocation usually serves it.
    pub fn new() -> Self {
        Exposition {
            out: String::with_capacity(8 << 10),
            family: String::new(),
        }
    }

    /// Opens a `counter` family; see [`Self::gauge`] for the name rule.
    pub fn counter(&mut self, name: &str) -> Family<'_> {
        self.open(name, "counter")
    }

    /// Opens a `gauge` family. The name is sanitised: `h2_` is prefixed
    /// unless already there, and every byte outside `[a-zA-Z0-9_]` becomes
    /// `_` (so `dist.bytes_sent` is exposed as `h2_dist_bytes_sent`).
    pub fn gauge(&mut self, name: &str) -> Family<'_> {
        self.open(name, "gauge")
    }

    /// Writes `hist` as a native histogram family: one cumulative
    /// `_bucket{le=…}` sample per *occupied* bucket, the `+Inf` bucket,
    /// `_sum` and `_count`.
    pub fn histogram(&mut self, name: &str, hist: &LogLinearHistogram) {
        let Exposition { out, family } = self.open(name, "histogram").0;
        for (le, cum) in hist.cumulative_buckets() {
            let _ = writeln!(out, "{family}_bucket{{le=\"{le}\"}} {cum}");
        }
        let (sum, count) = (hist.sum(), hist.count());
        let _ = writeln!(out, "{family}_bucket{{le=\"+Inf\"}} {count}");
        let _ = writeln!(out, "{family}_sum {sum}");
        let _ = writeln!(out, "{family}_count {count}");
    }

    /// The finished body.
    pub fn finish(self) -> String {
        self.out
    }

    fn open(&mut self, name: &str, kind: &str) -> Family<'_> {
        self.family.clear();
        if !name.starts_with("h2_") {
            self.family.push_str("h2_");
        }
        let ok = |c: char| c.is_ascii_alphanumeric() || c == '_';
        if name.chars().all(ok) {
            self.family.push_str(name);
        } else {
            let sanitised = name.chars().map(|c| if ok(c) { c } else { '_' });
            self.family.extend(sanitised);
        }
        let _ = writeln!(self.out, "# TYPE {} {kind}", self.family);
        Family(self)
    }
}

/// An open counter or gauge family: its `# TYPE` line is already written,
/// samples are appended until it is dropped.
pub struct Family<'a>(&'a mut Exposition);

impl Family<'_> {
    /// Appends one sample. `labels` are written in the given order with
    /// their values escaped; `value` is written as it displays, so callers
    /// choose float precision with `format_args!("{:.3}", v)`.
    pub fn sample(&mut self, labels: &[(&str, &str)], value: impl Display) -> &mut Self {
        self.put(labels.iter().copied(), value);
        self
    }

    /// One sample per entity: `{key="names[i]"} value(i)`.
    pub fn per<V: Display>(&mut self, key: &str, names: &[&str], value: impl Fn(usize) -> V) {
        for (i, name) in names.iter().enumerate() {
            self.put([(key, *name)].into_iter(), value(i));
        }
    }

    /// The `quantile`-labelled pair dashboards pin: a distribution's p50
    /// and p99, each after `labels`.
    pub fn quantiles(&mut self, labels: &[(&str, &str)], p50_p99: [u64; 2]) {
        for (text, value) in ["0.5", "0.99"].into_iter().zip(p50_p99) {
            let labels = labels.iter().copied().chain([("quantile", text)]);
            self.put(labels, value);
        }
    }

    fn put<'l>(&mut self, labels: impl Iterator<Item = (&'l str, &'l str)>, value: impl Display) {
        let Exposition { out, family } = &mut *self.0;
        out.push_str(family);
        let mut open = '{';
        for (key, val) in labels {
            out.push(open);
            open = ',';
            out.push_str(key);
            out.push_str("=\"");
            // The three characters that may not appear raw in `label="…"`.
            for c in val.chars() {
                match c {
                    '\\' => out.push_str("\\\\"),
                    '"' => out.push_str("\\\""),
                    '\n' => out.push_str("\\n"),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        let close = if open == ',' { "}" } else { "" };
        let _ = writeln!(out, "{close} {value}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_declare_once_names_are_sanitised_values_escaped() {
        let mut out = Exposition::new();
        out.counter("kernel_evals").sample(&[], 3);
        out.gauge("dist.bytes_sent")
            .sample(&[("rank", "0")], 1)
            .sample(&[("rank", "1"), ("dir", "up")], format_args!("{:.3}", 2.5));
        out.counter("h2_already").per("k", &["a", "b"], |i| i * 2);
        out.gauge("weird name!");
        out.gauge("g").sample(&[("k", "x\"y\\z\n} 1\nforged 2")], 0);
        assert_eq!(
            out.finish(),
            "# TYPE h2_kernel_evals counter\n\
             h2_kernel_evals 3\n\
             # TYPE h2_dist_bytes_sent gauge\n\
             h2_dist_bytes_sent{rank=\"0\"} 1\n\
             h2_dist_bytes_sent{rank=\"1\",dir=\"up\"} 2.500\n\
             # TYPE h2_already counter\n\
             h2_already{k=\"a\"} 0\n\
             h2_already{k=\"b\"} 2\n\
             # TYPE h2_weird_name_ gauge\n\
             # TYPE h2_g gauge\n\
             h2_g{k=\"x\\\"y\\\\z\\n} 1\\nforged 2\"} 0\n"
        );
    }

    #[test]
    fn histograms_list_occupied_buckets_then_inf_sum_count() {
        let mut h = LogLinearHistogram::new();
        h.record_n(10, 4);
        h.record_n(12, 6);
        let mut out = Exposition::new();
        out.histogram("h2_lat_us", &h);
        out.histogram("h2_idle_us", &LogLinearHistogram::new());
        out.gauge("h2_lat").quantiles(&[("t", "a")], [11, 12]);
        assert_eq!(
            out.finish(),
            "# TYPE h2_lat_us histogram\n\
             h2_lat_us_bucket{le=\"10\"} 4\n\
             h2_lat_us_bucket{le=\"12\"} 10\n\
             h2_lat_us_bucket{le=\"+Inf\"} 10\n\
             h2_lat_us_sum 112\n\
             h2_lat_us_count 10\n\
             # TYPE h2_idle_us histogram\n\
             h2_idle_us_bucket{le=\"+Inf\"} 0\n\
             h2_idle_us_sum 0\n\
             h2_idle_us_count 0\n\
             # TYPE h2_lat gauge\n\
             h2_lat{t=\"a\",quantile=\"0.5\"} 11\n\
             h2_lat{t=\"a\",quantile=\"0.99\"} 12\n"
        );
    }
}
