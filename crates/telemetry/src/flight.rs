//! Crash flight recorder: a fixed-size ring of the most recent spans and
//! point events, dumped to a postmortem JSON file when a process dies.
//! Both are [`SpanRecord`]s: a point event is a record of depth 0 and
//! duration 0 whose label is the event's detail.
//!
//! The ring is disabled by default (zero overhead); a process that wants a
//! black box calls [`flight_enable`]. Once enabled, every span flushed to
//! the registry is mirrored into the ring, and code can drop breadcrumbs
//! with [`flight_event`]. [`flight_dump_to`] writes the ring as JSON;
//! [`install_flight_panic_hook`] chains a dump onto the process panic
//! handler. Shard workers additionally dump after every sweep, because
//! `kill_worker` fault injection is SIGKILL — no hook runs, only the file
//! from the last completed sweep survives.

use crate::export::json_escape;
use crate::{now_ns, SpanRecord};
use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Ring capacity: entries beyond this evict the oldest and count as
/// overwritten in the dump header.
pub const FLIGHT_CAPACITY: usize = 4096;

struct FlightRing {
    entries: Mutex<VecDeque<SpanRecord>>,
    overwritten: AtomicU64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);

fn ring() -> &'static FlightRing {
    static RING: OnceLock<FlightRing> = OnceLock::new();
    RING.get_or_init(|| FlightRing {
        entries: Mutex::new(VecDeque::with_capacity(FLIGHT_CAPACITY)),
        overwritten: AtomicU64::new(0),
    })
}

/// Turns the flight recorder on for this process.
pub fn flight_enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Whether the flight recorder is recording.
pub fn flight_enabled() -> bool {
    ENABLED.load(Ordering::SeqCst)
}

/// Clears the ring and re-disables recording (tests).
pub fn flight_reset() {
    ENABLED.store(false, Ordering::SeqCst);
    let r = ring();
    r.entries.lock().unwrap().clear();
    r.overwritten.store(0, Ordering::Relaxed);
}

fn push(entry: SpanRecord) {
    let r = ring();
    let mut entries = r.entries.lock().unwrap();
    if entries.len() == FLIGHT_CAPACITY {
        entries.pop_front();
        r.overwritten.fetch_add(1, Ordering::Relaxed);
    }
    entries.push_back(entry);
}

/// Mirrors freshly flushed span records into the ring (no-op when off).
pub(crate) fn record_spans(spans: &[SpanRecord]) {
    if !flight_enabled() {
        return;
    }
    for s in spans {
        push(s.clone());
    }
}

/// Drops a breadcrumb into the ring: a named point event with free-form
/// detail, stamped with the current thread and time (no-op when off).
pub fn flight_event(name: &str, detail: impl Into<String>) {
    if !flight_enabled() {
        return;
    }
    push(SpanRecord {
        name: Cow::Owned(name.to_string()),
        label: Some(detail.into()),
        tid: crate::current_tid(),
        start_ns: now_ns(),
        dur_ns: 0,
        depth: 0,
        trace: crate::current_trace(),
    });
}

/// Serializes the ring as a JSON object:
/// `{"capacity":…,"overwritten":…,"entries":[…]}`. An entry's `kind` is
/// `"event"` for a depth-0 record and `"span"` otherwise; its `detail` is
/// the label, empty when absent.
pub fn flight_dump_json() -> String {
    crate::flush_thread();
    let r = ring();
    let entries = r.entries.lock().unwrap();
    let mut out = format!(
        "{{\"capacity\":{},\"overwritten\":{},\"entries\":[",
        FLIGHT_CAPACITY,
        r.overwritten.load(Ordering::Relaxed)
    );
    for (k, e) in entries.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"kind\":\"{}\",\"name\":\"{}\",\"detail\":\"{}\",\"tid\":{},\
             \"start_ns\":{},\"dur_ns\":{},\"trace\":{}}}",
            if e.depth == 0 { "event" } else { "span" },
            json_escape(&e.name),
            json_escape(e.label.as_deref().unwrap_or_default()),
            e.tid,
            e.start_ns,
            e.dur_ns,
            e.trace
        );
    }
    out.push_str("]}");
    out
}

/// Writes [`flight_dump_json`] to `path` (parent directories are created).
pub fn flight_dump_to(path: &Path) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, flight_dump_json())
}

/// Chains a flight-recorder dump to `path` onto the process panic hook
/// (the previous hook still runs). Also enables recording.
pub fn install_flight_panic_hook(path: PathBuf) {
    flight_enable();
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        flight_event("panic", info.to_string());
        let _ = flight_dump_to(&path);
        prev(info);
    }));
}
