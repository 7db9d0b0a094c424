//! # h2-telemetry
//!
//! Unified, dependency-free telemetry substrate for the whole H² stack:
//! process-wide **counters** (monotonic `u64`s such as `kernel_evals` or
//! `dist.bytes_sent`) and **spans** (RAII guards recording nested,
//! thread-aware wall time with phase names), plus exporters that turn a
//! [`TelemetrySnapshot`] into a chrome://tracing JSON trace
//! ([`TelemetrySnapshot::chrome_trace_json`]) or describe it to the one
//! Prometheus text-exposition writer ([`expo::Exposition`], through
//! [`TelemetrySnapshot::expose`]) that every metrics source in the stack
//! shares.
//!
//! The design goal is *cheap enough to leave on in release builds*:
//!
//! - counter increments are one relaxed atomic add through a cached handle
//!   (use [`counter_add!`] for a zero-lookup static cache at the call site);
//! - span guards buffer finished records in a thread-local vector and only
//!   take the registry lock when the outermost span of a thread ends (or
//!   the buffer fills), so deeply nested phases cost two `Instant::now()`
//!   calls and a `Vec` push each;
//! - the global span store is capped ([`MAX_SPANS`]); past the cap new
//!   records are dropped and counted in the `telemetry.spans_dropped`
//!   counter rather than growing without bound in a long-running server.
//!
//! Recording is always compiled in; no feature or flag turns it off.
//! [`Span::finish`] returns the recorded wall time, so code that derives
//! its own statistics from span durations (e.g. `h2-dist`'s per-phase
//! times) reads the number the trace holds.
//!
//! ## Scoped counting (test isolation)
//!
//! Process-wide counters are shared by every test in a binary, so
//! "reset, run, read" is racy under the default parallel test runner. A
//! [`LocalScope`] instead reads *this thread's* contribution: every
//! increment is mirrored into a thread-local table while at least one scope
//! is active, and [`LocalScope::count`] returns the delta since the scope
//! opened. Work executed on the calling thread is captured exactly,
//! regardless of what other tests do concurrently. Code that fans work out
//! to helper threads keeps a scope exact by tallying on the helpers and
//! adding the sums from the thread that started them, as the H² sweep
//! engine and the builders do for their block counters.
//!
//! ```
//! let scope = h2_telemetry::local_scope();
//! h2_telemetry::counter_add!("doc_example_evals", 3);
//! h2_telemetry::counter_add!("doc_example_evals", 4);
//! let mine = scope.count("doc_example_evals"); // 7 — this thread only
//! let _span = h2_telemetry::span("doc_example.phase");
//! drop(_span);
//! let snap = h2_telemetry::snapshot();
//! assert!(snap.counter("doc_example_evals") >= mine);
//! ```

mod cluster;
pub mod expo;
mod export;
mod flight;
pub mod hist;

pub use cluster::{cluster_trace_json, ProcessSpans};
pub use expo::Exposition;
pub use export::SpanTotal;
pub use flight::{
    flight_dump_json, flight_dump_to, flight_enable, flight_enabled, flight_event, flight_reset,
    install_flight_panic_hook, FLIGHT_CAPACITY,
};
pub use hist::LogLinearHistogram;

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default cap on buffered span records; beyond it, spans are dropped and
/// counted in `telemetry.spans_dropped`. See [`set_span_cap`].
pub const MAX_SPANS: usize = 1 << 20;

/// Current span-store cap (defaults to [`MAX_SPANS`]).
static SPAN_CAP: AtomicUsize = AtomicUsize::new(MAX_SPANS);

/// Overrides the global span-store cap. Records past the cap are dropped
/// and counted in `telemetry.spans_dropped`; lowering the cap lets tests
/// exercise the overflow path without recording a million spans. Affects
/// the whole process — call from single-process tests only.
pub fn set_span_cap(cap: usize) {
    SPAN_CAP.store(cap, Ordering::Relaxed);
}

/// Thread-local span buffers are flushed into the registry when they reach
/// this many records, even if a span is still open.
const FLUSH_AT: usize = 1024;

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

struct Registry {
    counters: Mutex<Vec<(&'static str, Arc<AtomicU64>)>>,
    spans: Mutex<Vec<SpanRecord>>,
    spans_dropped: AtomicU64,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(Vec::new()),
        spans: Mutex::new(Vec::new()),
        spans_dropped: AtomicU64::new(0),
    })
}

/// Process epoch all span timestamps are relative to.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since this process's telemetry epoch — the clock every
/// [`SpanRecord`] timestamp is expressed in. Public so transports can
/// exchange epoch readings during their handshake and estimate per-peer
/// clock offsets for merged cluster traces.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Trace ids
// ---------------------------------------------------------------------------

static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);

/// Allocates a fresh nonzero trace id (process-local; coordinators hand
/// theirs to workers over the wire so one id spans the whole cluster).
pub fn next_trace_id() -> u64 {
    NEXT_TRACE.fetch_add(1, Ordering::Relaxed)
}

/// The trace id spans opened on the calling thread currently adopt
/// (0 = none).
pub fn current_trace() -> u64 {
    THREAD.with(|t| t.trace.get())
}

/// RAII guard from [`trace_scope`]: restores the previous trace id on drop.
pub struct TraceScope {
    prev: u64,
    _not_send: PhantomData<*const ()>,
}

/// Tags every span opened on the calling thread while the guard lives with
/// `trace` (nesting restores the outer id when the inner guard drops).
pub fn trace_scope(trace: u64) -> TraceScope {
    THREAD.with(|t| {
        let prev = t.trace.get();
        t.trace.set(trace);
        TraceScope {
            prev,
            _not_send: PhantomData,
        }
    })
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        THREAD.with(|t| t.trace.set(self.prev));
    }
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// Handle to one registered monotonic counter. Cloning is cheap; the fast
/// path of [`Counter::add`] is a single relaxed atomic add.
#[derive(Clone)]
pub struct Counter {
    name: &'static str,
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds `delta` to the counter.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.cell.fetch_add(delta, Ordering::Relaxed);
        local_record(self.name, delta);
    }

    /// Current value (exact once the counted work has completed).
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    /// The registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// Returns (registering on first use) the counter named `name`. Callers on
/// hot paths should cache the handle — see [`counter_add!`].
pub fn counter(name: &'static str) -> Counter {
    let mut g = registry().counters.lock().unwrap();
    if let Some((_, cell)) = g.iter().find(|(n, _)| *n == name) {
        return Counter {
            name,
            cell: cell.clone(),
        };
    }
    let cell = Arc::new(AtomicU64::new(0));
    g.push((name, cell.clone()));
    Counter { name, cell }
}

/// Adds to a named counter through a call-site-cached handle: the registry
/// lookup happens once per call site, every later hit is one relaxed atomic
/// add.
#[macro_export]
macro_rules! counter_add {
    ($name:literal, $delta:expr) => {{
        static CACHED: std::sync::OnceLock<$crate::Counter> = std::sync::OnceLock::new();
        CACHED
            .get_or_init(|| $crate::counter($name))
            .add($delta as u64);
    }};
}

// ---------------------------------------------------------------------------
// Thread-local state: scoped counts and span buffers
// ---------------------------------------------------------------------------

struct ThreadState {
    tid: u64,
    depth: Cell<u32>,
    trace: Cell<u64>,
    buf: RefCell<Vec<SpanRecord>>,
    scopes_active: Cell<usize>,
    local_counts: RefCell<HashMap<&'static str, u64>>,
}

impl ThreadState {
    fn flush(&self) {
        let mut buf = self.buf.borrow_mut();
        if buf.is_empty() {
            return;
        }
        flight::record_spans(&buf);
        let reg = registry();
        let mut spans = reg.spans.lock().unwrap();
        let room = SPAN_CAP.load(Ordering::Relaxed).saturating_sub(spans.len());
        if buf.len() > room {
            reg.spans_dropped
                .fetch_add((buf.len() - room) as u64, Ordering::Relaxed);
            buf.truncate(room);
        }
        spans.append(&mut buf);
    }
}

impl Drop for ThreadState {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static THREAD: ThreadState = {
        static NEXT_TID: AtomicU64 = AtomicU64::new(1);
        ThreadState {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            depth: Cell::new(0),
            trace: Cell::new(0),
            buf: RefCell::new(Vec::new()),
            scopes_active: Cell::new(0),
            local_counts: RefCell::new(HashMap::new()),
        }
    };
}

#[inline]
fn local_record(name: &'static str, delta: u64) {
    THREAD.with(|t| {
        if t.scopes_active.get() > 0 {
            *t.local_counts.borrow_mut().entry(name).or_insert(0) += delta;
        }
    });
}

/// The calling thread's small telemetry id (1-based, assignment order).
pub(crate) fn current_tid() -> u64 {
    THREAD.with(|t| t.tid)
}

/// Flushes the calling thread's buffered span records into the registry.
/// [`snapshot`] does this automatically for the snapshotting thread; other
/// threads flush when their outermost span ends and when they exit.
pub fn flush_thread() {
    THREAD.with(|t| t.flush());
}

/// Reads this thread's contribution to the process-wide counters — exact
/// per-test isolation under a parallel test runner. See the module docs.
pub struct LocalScope {
    baseline: HashMap<&'static str, u64>,
    _not_send: PhantomData<*const ()>,
}

/// Opens a [`LocalScope`] capturing counter deltas on the calling thread.
pub fn local_scope() -> LocalScope {
    THREAD.with(|t| {
        t.scopes_active.set(t.scopes_active.get() + 1);
        LocalScope {
            baseline: t.local_counts.borrow().clone(),
            _not_send: PhantomData,
        }
    })
}

impl LocalScope {
    /// This thread's increments of `name` since the scope opened.
    pub fn count(&self, name: &str) -> u64 {
        THREAD.with(|t| {
            t.local_counts.borrow().get(name).copied().unwrap_or(0)
                - self.baseline.get(name).copied().unwrap_or(0)
        })
    }
}

impl Drop for LocalScope {
    fn drop(&mut self) {
        THREAD.with(|t| {
            let left = t.scopes_active.get() - 1;
            t.scopes_active.set(left);
            if left == 0 {
                t.local_counts.borrow_mut().clear();
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One finished span: a named, thread-attributed wall-time interval. The
/// one span type of the telemetry plane: the span store, the flight ring,
/// worker span reports on the wire and merged cluster traces all hold it.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Phase name (dotted, e.g. `matvec.horizontal`): the recording site's
    /// static string in process, owned once decoded off the wire.
    pub name: Cow<'static, str>,
    /// Optional instance label (e.g. `rank=2`); a flight event's detail.
    pub label: Option<String>,
    /// Small per-thread id (1-based, assignment order).
    pub tid: u64,
    /// Start, nanoseconds since the recording process's epoch.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
    /// Nesting depth on its thread (outermost = 1; 0 marks a point event
    /// of the flight recorder, see [`flight_event`]).
    pub depth: u32,
    /// Trace id the span belongs to (0 = untraced). See [`trace_scope`].
    pub trace: u64,
}

impl SpanRecord {
    /// End timestamp, nanoseconds since the process epoch.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// RAII span guard: measures from creation to drop (or [`Span::finish`])
/// and records a [`SpanRecord`] attributed to the creating thread.
pub struct Span {
    name: &'static str,
    label: Option<String>,
    start: Instant,
    start_ns: u64,
    depth: u32,
    trace: u64,
    armed: bool,
    _not_send: PhantomData<*const ()>,
}

/// Opens a span named `name` on the calling thread.
#[inline]
pub fn span(name: &'static str) -> Span {
    span_inner(name, None)
}

/// Opens a span with an instance label (e.g. `rank=0`) kept alongside the
/// name in trace exports.
pub fn span_labeled(name: &'static str, label: impl Into<String>) -> Span {
    span_inner(name, Some(label.into()))
}

fn span_inner(name: &'static str, label: Option<String>) -> Span {
    let (depth, trace) = THREAD.with(|t| {
        let d = t.depth.get() + 1;
        t.depth.set(d);
        (d, t.trace.get())
    });
    Span {
        name,
        label,
        start: Instant::now(),
        start_ns: now_ns(),
        depth,
        trace,
        armed: true,
        _not_send: PhantomData,
    }
}

impl Span {
    /// Ends the span now and returns its duration in seconds — for callers
    /// that also feed their own statistics (e.g. per-phase breakdowns).
    /// The returned value is exactly the recorded duration.
    pub fn finish(mut self) -> f64 {
        self.record() as f64 / 1e9
    }

    /// The span's label, if any.
    pub fn label(&self) -> Option<&str> {
        self.label.as_deref()
    }

    fn record(&mut self) -> u64 {
        let dur_ns = self.start.elapsed().as_nanos() as u64;
        if !self.armed {
            return dur_ns;
        }
        self.armed = false;
        THREAD.with(|t| {
            t.buf.borrow_mut().push(SpanRecord {
                name: Cow::Borrowed(self.name),
                label: self.label.take(),
                tid: t.tid,
                start_ns: self.start_ns,
                dur_ns,
                depth: self.depth,
                trace: self.trace,
            });
            let d = t.depth.get() - 1;
            t.depth.set(d);
            if d == 0 || t.buf.borrow().len() >= FLUSH_AT {
                t.flush();
            }
        });
        dur_ns
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.record();
    }
}

/// Records a span measured elsewhere on the calling thread, inside its
/// open spans: work that helper threads timed in plain integers (they
/// record no spans of their own), recorded by the thread that joined them.
pub fn record_span(name: &'static str, label: impl Into<String>, start_ns: u64, dur_ns: u64) {
    THREAD.with(|t| {
        t.buf.borrow_mut().push(SpanRecord {
            name: Cow::Borrowed(name),
            label: Some(label.into()),
            tid: t.tid,
            start_ns,
            dur_ns,
            depth: t.depth.get() + 1,
            trace: t.trace.get(),
        });
        if t.depth.get() == 0 || t.buf.borrow().len() >= FLUSH_AT {
            t.flush();
        }
    });
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// Point-in-time copy of every registered counter and every flushed span.
#[derive(Clone, Debug, Default)]
pub struct TelemetrySnapshot {
    /// Counter values by name, sorted.
    pub counters: BTreeMap<String, u64>,
    /// Finished spans, ordered by start time then thread.
    pub spans: Vec<SpanRecord>,
}

impl TelemetrySnapshot {
    /// A counter's value (0 if never registered).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The spans named `name`, in start order.
    pub fn spans_named<'a>(&'a self, name: &str) -> impl Iterator<Item = &'a SpanRecord> + 'a {
        let name = name.to_string();
        self.spans.iter().filter(move |s| s.name == name)
    }
}

/// Snapshots the registry: flushes the calling thread's span buffer, then
/// copies all counters and flushed spans. Threads that are still inside an
/// open outermost span have not flushed yet; their finished nested spans
/// appear once that span closes (or the thread exits).
pub fn snapshot() -> TelemetrySnapshot {
    flush_thread();
    let reg = registry();
    let counters = reg
        .counters
        .lock()
        .unwrap()
        .iter()
        .map(|(n, c)| (n.to_string(), c.load(Ordering::Relaxed)))
        .collect();
    let mut snap = TelemetrySnapshot {
        counters,
        spans: reg.spans.lock().unwrap().clone(),
    };
    let dropped = reg.spans_dropped.load(Ordering::Relaxed);
    if dropped > 0 {
        snap.counters
            .insert("telemetry.spans_dropped".to_string(), dropped);
    }
    snap.spans.sort_by_key(|s| (s.start_ns, s.tid));
    snap
}

/// Flushes the calling thread's buffer, then drains and returns every
/// flushed span (counters are untouched). Shard workers use this to ship
/// their span buffers to the coordinator after a sweep without the store
/// growing across sweeps. Spans are returned sorted by `(start_ns, tid)`.
///
/// This steals spans recorded by *every* thread in the process — only call
/// it from processes whose telemetry registry you own outright (a dedicated
/// worker process), never from a library running inside someone else's.
pub fn take_spans() -> Vec<SpanRecord> {
    flush_thread();
    let mut spans = std::mem::take(&mut *registry().spans.lock().unwrap());
    spans.sort_by_key(|s| (s.start_ns, s.tid));
    spans
}

/// Zeroes every counter and discards all flushed spans (plus the calling
/// thread's buffer). Other threads' unflushed buffers are untouched —
/// call between phases of a single-threaded driver, not mid-flight.
pub fn reset() {
    THREAD.with(|t| t.buf.borrow_mut().clear());
    let reg = registry();
    for (_, c) in reg.counters.lock().unwrap().iter() {
        c.store(0, Ordering::Relaxed);
    }
    reg.spans.lock().unwrap().clear();
    reg.spans_dropped.store(0, Ordering::Relaxed);
}
