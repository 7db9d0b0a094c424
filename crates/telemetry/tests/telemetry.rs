//! Telemetry-core behaviour: nested span containment, multi-thread counter
//! aggregation, scoped isolation, and exporter golden output.
//!
//! Every test uses its own counter/span names — the registry is process
//! wide and the default test runner is parallel, which is exactly the
//! situation the scoped API exists for.

use h2_telemetry::{
    counter, counter_add, current_trace, local_scope, next_trace_id, snapshot, span, span_labeled,
    trace_scope, SpanRecord, TelemetrySnapshot,
};
use std::collections::BTreeMap;
use std::time::Duration;

#[test]
fn nested_spans_are_contained_in_their_parent() {
    {
        let _outer = span("nest_test.outer");
        std::thread::sleep(Duration::from_millis(2));
        {
            let _inner = span("nest_test.inner");
            std::thread::sleep(Duration::from_millis(2));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let snap = snapshot();
    let outer = snap
        .spans_named("nest_test.outer")
        .next()
        .expect("outer recorded")
        .clone();
    let inner = snap
        .spans_named("nest_test.inner")
        .next()
        .expect("inner recorded")
        .clone();
    assert_eq!(inner.tid, outer.tid, "same thread");
    assert_eq!(inner.depth, outer.depth + 1, "inner nests one deeper");
    assert!(
        inner.start_ns >= outer.start_ns,
        "child starts within parent"
    );
    assert!(inner.end_ns() <= outer.end_ns(), "child ends within parent");
    assert!(inner.dur_ns < outer.dur_ns, "child is strictly shorter");
}

#[test]
fn multi_thread_counter_aggregation_is_exact() {
    let threads = 8;
    let per_thread = 10_000u64;
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            std::thread::spawn(move || {
                let c = counter("mt_test.adds");
                for _ in 0..per_thread {
                    c.add(3);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(
        counter("mt_test.adds").get(),
        threads as u64 * per_thread * 3
    );
}

#[test]
fn local_scope_isolates_from_other_threads() {
    // A rival thread hammers the same counter the whole time; the scope
    // must still see exactly this thread's contribution.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let rival = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let c = counter("scope_test.evals");
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                c.add(1);
            }
        })
    };
    let scope = local_scope();
    counter_add!("scope_test.evals", 5);
    counter_add!("scope_test.evals", 7);
    assert_eq!(scope.count("scope_test.evals"), 12);
    assert_eq!(scope.count("scope_test.never_touched"), 0);
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    rival.join().unwrap();
    // The global total includes the rival; the scoped count does not.
    assert!(counter("scope_test.evals").get() >= 12);
}

#[test]
fn nested_scopes_count_independently() {
    let outer = local_scope();
    counter_add!("nested_scope.k", 2);
    {
        let inner = local_scope();
        counter_add!("nested_scope.k", 3);
        assert_eq!(inner.count("nested_scope.k"), 3);
    }
    counter_add!("nested_scope.k", 1);
    assert_eq!(outer.count("nested_scope.k"), 6);
}

#[test]
fn span_finish_reports_duration_and_records() {
    let sp = span_labeled("finish_test.phase", "rank=3");
    std::thread::sleep(Duration::from_millis(2));
    let secs = sp.finish();
    assert!(secs >= 0.002, "finish returns the measured duration");
    let snap = snapshot();
    let rec = snap
        .spans_named("finish_test.phase")
        .next()
        .expect("recorded");
    assert_eq!(rec.label.as_deref(), Some("rank=3"));
    let want_ns = (secs * 1e9).round() as u64;
    assert!(
        rec.dur_ns.abs_diff(want_ns) <= 1_000,
        "finish() returns the recorded duration: {} vs {}",
        rec.dur_ns,
        want_ns
    );
}

/// Golden test: the chrome trace emitted for a hand-built snapshot, byte
/// for byte. Guards the schema Perfetto/about:tracing parses.
#[test]
fn chrome_trace_golden() {
    let snap = TelemetrySnapshot {
        counters: BTreeMap::new(),
        spans: vec![
            SpanRecord {
                name: "build.tree".into(),
                label: None,
                tid: 1,
                start_ns: 1_500,
                dur_ns: 2_250,
                depth: 1,
                trace: 0,
            },
            SpanRecord {
                name: "dist.upward".into(),
                label: Some("rank=0".to_string()),
                tid: 2,
                start_ns: 4_000,
                dur_ns: 1_000,
                depth: 1,
                trace: 0,
            },
        ],
    };
    assert_eq!(
        snap.chrome_trace_json(),
        "{\"traceEvents\":[\
         {\"name\":\"build.tree\",\"cat\":\"h2\",\"ph\":\"X\",\"ts\":1.500,\"dur\":2.250,\
         \"pid\":1,\"tid\":1,\"args\":{}},\
         {\"name\":\"dist.upward\",\"cat\":\"h2\",\"ph\":\"X\",\"ts\":4.000,\"dur\":1.000,\
         \"pid\":1,\"tid\":2,\"args\":{\"label\":\"rank=0\"}}\
         ],\"displayTimeUnit\":\"ms\"}"
    );
}

#[test]
fn trace_scopes_tag_spans_and_restore_on_drop() {
    assert_eq!(current_trace(), 0, "threads start untraced");
    let outer_id = next_trace_id();
    let inner_id = next_trace_id();
    assert_ne!(outer_id, inner_id);
    {
        let _outer = trace_scope(outer_id);
        assert_eq!(current_trace(), outer_id);
        {
            let _s = span("trace_test.outer_phase");
        }
        {
            let _inner = trace_scope(inner_id);
            assert_eq!(current_trace(), inner_id);
            let _s = span("trace_test.inner_phase");
        }
        assert_eq!(current_trace(), outer_id, "inner scope restores outer id");
    }
    assert_eq!(current_trace(), 0, "scope restores untraced on drop");
    let snap = snapshot();
    assert_eq!(
        snap.spans_named("trace_test.outer_phase")
            .next()
            .unwrap()
            .trace,
        outer_id
    );
    assert_eq!(
        snap.spans_named("trace_test.inner_phase")
            .next()
            .unwrap()
            .trace,
        inner_id
    );
}

/// Spans carrying a trace id expose it as `args.trace`; a nonzero
/// `telemetry.spans_dropped` counter appends one instant event.
#[test]
fn chrome_trace_surfaces_trace_ids_and_dropped_spans() {
    let mut counters = BTreeMap::new();
    counters.insert("telemetry.spans_dropped".to_string(), 12u64);
    let snap = TelemetrySnapshot {
        counters,
        spans: vec![SpanRecord {
            name: "serve.sweep".into(),
            label: Some("k=4".to_string()),
            tid: 1,
            start_ns: 1_000,
            dur_ns: 500,
            depth: 1,
            trace: 9,
        }],
    };
    assert_eq!(
        snap.chrome_trace_json(),
        "{\"traceEvents\":[\
         {\"name\":\"serve.sweep\",\"cat\":\"h2\",\"ph\":\"X\",\"ts\":1.000,\"dur\":0.500,\
         \"pid\":1,\"tid\":1,\"args\":{\"label\":\"k=4\",\"trace\":9}},\
         {\"name\":\"telemetry.spans_dropped\",\"cat\":\"h2\",\"ph\":\"I\",\"ts\":0.000,\
         \"s\":\"g\",\"pid\":1,\"tid\":0,\"args\":{\"dropped\":12}}\
         ],\"displayTimeUnit\":\"ms\"}"
    );
}

#[test]
fn snapshot_sees_counters_and_sorted_spans() {
    counter_add!("snap_test.a", 1);
    {
        let _s1 = span("snap_test.first");
    }
    {
        let _s2 = span("snap_test.second");
    }
    let snap = snapshot();
    assert!(snap.counter("snap_test.a") >= 1);
    assert_eq!(snap.counter("snap_test.absent"), 0);
    let (f, s) = (
        snap.spans_named("snap_test.first").next().unwrap(),
        snap.spans_named("snap_test.second").next().unwrap(),
    );
    assert!(f.start_ns <= s.start_ns);
    // Sorted by start time globally.
    for w in snap.spans.windows(2) {
        assert!(w[0].start_ns <= w[1].start_ns);
    }
}
