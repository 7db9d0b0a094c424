//! Overflow, span-draining, and flight-recorder behaviour.
//!
//! These tests mutate process-global state (the span-store cap, the
//! drained span store, the flight ring), so they live in their own test
//! binary — a separate process from the main `telemetry` suite — and run
//! as one sequential test function.

use h2_telemetry::{
    flight_dump_json, flight_dump_to, flight_enable, flight_enabled, flight_event, flight_reset,
    next_trace_id, reset, set_span_cap, snapshot, span, take_spans, trace_scope, FLIGHT_CAPACITY,
    MAX_SPANS,
};

#[test]
fn overflow_is_counted_taken_spans_drain_and_the_flight_ring_is_bounded() {
    // --- Overflow: spans past the cap are dropped and counted. ---
    reset();
    set_span_cap(8);
    for _ in 0..20 {
        let _s = span("overflow_test.phase");
    }
    let snap = snapshot();
    assert_eq!(
        snap.spans_named("overflow_test.phase").count(),
        8,
        "store holds exactly the cap"
    );
    assert_eq!(snap.counter("telemetry.spans_dropped"), 12);
    assert!(
        snap.prometheus_text()
            .contains("h2_telemetry_spans_dropped 12"),
        "dropped counter surfaces in the Prometheus exposition"
    );
    assert!(
        snap.chrome_trace_json().contains("\"dropped\":12"),
        "dropped counter surfaces in the chrome trace"
    );

    // --- take_spans drains the store and makes room again. ---
    let taken = take_spans();
    assert_eq!(taken.len(), 8);
    assert!(taken.iter().all(|s| s.name == "overflow_test.phase"));
    assert!(take_spans().is_empty(), "second take finds the store empty");
    {
        let _s = span("overflow_test.after_drain");
    }
    assert_eq!(
        snapshot().spans_named("overflow_test.after_drain").count(),
        1,
        "draining restored room under the cap"
    );

    set_span_cap(MAX_SPANS);
    reset();

    // --- Flight recorder: off by default, bounded once on. ---
    flight_reset();
    assert!(!flight_enabled());
    flight_event("ignored", "recorder is off");
    assert!(!flight_dump_json().contains("ignored"));

    flight_enable();
    let trace_id = next_trace_id();
    {
        let _t = trace_scope(trace_id);
        let _s = span("flight_test.sweep");
    }
    flight_event("flight_test.marker", "sweep 3 done");
    let dump = flight_dump_json();
    assert!(dump.contains("\"kind\":\"span\""));
    assert!(dump.contains("\"name\":\"flight_test.sweep\""));
    assert!(dump.contains(&format!("\"trace\":{trace_id}")));
    assert!(dump.contains("\"kind\":\"event\""));
    assert!(dump.contains("\"detail\":\"sweep 3 done\""));
    // Exact shape: one span entry and one event entry, keys in order.
    let keys = [
        "kind", "name", "detail", "tid", "start_ns", "dur_ns", "trace",
    ];
    let span_entry = entry(&dump, "{\"kind\":\"span\",\"name\":\"flight_test.sweep\"");
    let event_entry = entry(&dump, "{\"kind\":\"event\",\"name\":\"flight_test.marker\"");
    for fields in [&span_entry, &event_entry] {
        let names: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, keys, "{fields:?}");
        for (_, v) in &fields[3..6] {
            v.parse::<u64>().unwrap();
        }
    }
    assert_eq!(
        span_entry[2].1, "\"\"",
        "an unlabelled span dumps an empty detail"
    );
    assert_eq!(span_entry[6].1, trace_id.to_string());
    assert_eq!(event_entry[2].1, "\"sweep 3 done\"");
    assert_eq!(event_entry[5].1, "0", "an event has no duration");
    assert_eq!(
        event_entry[6].1, "0",
        "the event was marked outside the trace scope"
    );

    // Overfill the ring: capacity entries survive, the rest are counted.
    for k in 0..FLIGHT_CAPACITY + 10 {
        flight_event("flight_test.fill", format!("k={k}"));
    }
    let dump = flight_dump_json();
    let entries = dump.matches("\"kind\":").count();
    assert_eq!(entries, FLIGHT_CAPACITY, "ring is bounded at capacity");
    let overwritten: u64 = dump
        .split("\"overwritten\":")
        .nth(1)
        .and_then(|s| s.split(',').next())
        .and_then(|s| s.parse().ok())
        .unwrap();
    assert!(overwritten >= 10, "evicted entries are counted");
    assert!(
        dump.contains(&format!("k={}", FLIGHT_CAPACITY + 9)),
        "the newest entry survives"
    );

    // --- Dump goes to disk, creating parent directories. ---
    let dir = std::env::temp_dir().join(format!("h2-flight-test-{}", std::process::id()));
    let path = dir.join("sub").join("h2-flight-rank0.json");
    flight_dump_to(&path).unwrap();
    let on_disk = std::fs::read_to_string(&path).unwrap();
    assert_eq!(on_disk, flight_dump_json());
    std::fs::remove_dir_all(&dir).unwrap();

    flight_reset();
}

/// The `(key, raw value)` pairs, in order, of the dump entry that starts
/// with `head` (flat objects whose values hold no `,` or `}`).
fn entry(dump: &str, head: &str) -> Vec<(String, String)> {
    let start = dump
        .find(head)
        .unwrap_or_else(|| panic!("no {head} in {dump}"));
    let end = start + dump[start..].find('}').unwrap();
    dump[start + 1..end]
        .split(',')
        .map(|kv| {
            let (k, v) = kv.split_once(':').unwrap();
            (k.trim_matches('"').to_string(), v.to_string())
        })
        .collect()
}
