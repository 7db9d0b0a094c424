//! The benchmark's own span recorder.
//!
//! Spans are opened in benchmark code around each call into a layer's public
//! function, kept in memory (bounded), and written out when the run ends. A
//! span's *self time* is its duration minus the part its children cover, so
//! summing self time by layer attributes every nanosecond of an operation to
//! exactly one layer. The program's own `h2-telemetry` spans are not read:
//! they are free to move in later changes, these are not.

use std::time::Instant;

/// Spans kept per recorder; later ones are counted in `dropped`.
const SPAN_CAP: usize = 1 << 18;

#[derive(Clone, Debug, PartialEq)]
pub struct SpanRec {
    /// Layer = the crate whose public function the span wraps (`bench` for
    /// the harness's own root spans).
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<u32>,
    /// Spans of one operation share this id (0 = set-up, replays, probes).
    pub op: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    enabled: bool,
    t0: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<u32>,
    op: u64,
    pub dropped: u64,
}

impl Recorder {
    /// A recorder measuring from `t0`; recorders sharing `t0` can be merged
    /// with [`Recorder::absorb`].
    pub fn new(enabled: bool, t0: Instant) -> Self {
        Recorder {
            enabled,
            t0,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            dropped: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn t0(&self) -> Instant {
        self.t0
    }

    /// Sets the operation id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span; with recording off this is just `f(self)`.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        if self.spans.len() >= SPAN_CAP {
            self.dropped += 1;
            return f(self);
        }
        let id = self.spans.len() as u32;
        self.spans.push(SpanRec {
            layer,
            name,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id as usize].end_ns = self.t0.elapsed().as_nanos() as u64;
        out
    }

    /// Appends another thread's finished spans (their parent links stay
    /// internal to that thread).
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len() as u32;
        self.dropped += other.dropped;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Durations (ms) of every finished span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// The trace as a JSON document (one object per span, self time included).
    pub fn to_json(&self) -> String {
        let selfs = self_times_ns(&self.spans);
        let mut out = String::from("{\"dropped\": ");
        out.push_str(&self.dropped.to_string());
        out.push_str(", \"spans\": [\n");
        for (i, (s, self_ns)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {i}, \"layer\": \"{}\", \"name\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"self_ns\": {self_ns}, \"parent\": {parent}, \"op\": {}}}{}\n",
                s.layer,
                s.name,
                s.start_ns,
                s.end_ns,
                s.op,
                if i + 1 == self.spans.len() { "" } else { "," },
            ));
        }
        out.push_str("]}\n");
        out
    }
}

/// Self time of every span: its duration minus the part of its interval that
/// its direct children cover (overlapping children are counted once).
pub fn self_times_ns(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Total self time (ms) per layer over the spans selected by `keep`.
pub fn self_ms_by_layer(
    spans: &[SpanRec],
    keep: impl Fn(&SpanRec) -> bool,
) -> Vec<(&'static str, f64)> {
    let selfs = self_times_ns(spans);
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    for (s, ns) in spans.iter().zip(selfs) {
        if !keep(s) {
            continue;
        }
        match out.iter_mut().find(|(l, _)| *l == s.layer) {
            Some((_, ms)) => *ms += ns as f64 / 1e6,
            None => out.push((s.layer, ns as f64 / 1e6)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(layer: &'static str, start: u64, end: u64, parent: Option<u32>) -> SpanRec {
        SpanRec {
            layer,
            name: "x",
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
        }
    }

    /// op [0,100) ── a [10,40) ── c [15,25)
    ///            └─ b [30,70)   (overlaps a on [30,40))
    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            sp("bench", 0, 100, None),
            sp("h2-core", 10, 40, Some(0)),
            sp("h2-linalg", 30, 70, Some(0)),
            sp("h2-kernels", 15, 25, Some(1)),
        ];
        // Root: children cover [10,70) = 60 -> self 40. a: 30 - 10 = 20.
        assert_eq!(self_times_ns(&spans), vec![40, 20, 40, 10]);
        let by_layer = self_ms_by_layer(&spans, |_| true);
        let total: f64 = by_layer.iter().map(|(_, ms)| ms).sum();
        // 110 ns, not 100: a and b overlap by 10 ns and each keeps its own.
        assert!((total - 110e-6).abs() < 1e-12, "{total}");
    }

    #[test]
    fn child_outside_parent_is_clipped() {
        let spans = vec![sp("bench", 10, 20, None), sp("h2-core", 5, 15, Some(0))];
        assert_eq!(self_times_ns(&spans), vec![5, 10]);
    }

    #[test]
    fn recorder_nests_and_disables() {
        let mut rec = Recorder::new(true, Instant::now());
        rec.set_op(7);
        let v = rec.span("bench", "op", |r| r.span("h2-core", "matvec", |_| 42));
        assert_eq!(v, 42);
        assert_eq!(rec.spans().len(), 2);
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert_eq!(rec.spans()[1].op, 7);
        assert!(rec.spans()[0].end_ns >= rec.spans()[1].end_ns);

        rec.set_enabled(false);
        rec.span("bench", "op", |_| ());
        assert_eq!(rec.spans().len(), 2);
    }

    #[test]
    fn absorb_rebases_parents() {
        let t0 = Instant::now();
        let mut a = Recorder::new(true, t0);
        a.span("bench", "op", |_| ());
        let mut b = Recorder::new(true, t0);
        b.span("h2-serve", "drain", |r| r.span("h2-core", "matmat", |_| ()));
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert!(serde_json::from_str(&a.to_json()).is_ok());
    }
}
