//! **Profile harness** — end-to-end phase breakdown of the whole stack with
//! the telemetry layer on: instrumented construction, stored-mode and
//! on-the-fly matvecs, a fused multi-RHS sweep, a sharded distributed
//! matvec, and a small serving workload, all captured in one process-wide
//! telemetry snapshot.
//!
//! Outputs:
//!
//! - `--trace PATH`  chrome://tracing JSON (load in Perfetto / about:tracing);
//!   the file is re-parsed before the harness exits, so a zero exit status
//!   guarantees a loadable trace.
//! - `--json PATH`   machine-readable summary (phase times, work counters,
//!   measured telemetry overhead).
//! - stdout          span aggregate table, Prometheus text exposition
//!   (service latency series + process-wide registry), overhead estimate.
//!
//! The harness also asserts that every span family the instrumentation
//! contract promises (construction phases, all five matvec sweeps,
//! per-rank dist phases, serve sweeps) actually appears in the snapshot,
//! making it a cheap CI gate for "nobody silently dropped a span".
//! Construction phases that only one builder emits (`build.id` for
//! anchor-net; `build.sketch` / `build.adaptive_rank` for the sketched
//! pipeline, selected with `--builder sketched`) are exempt from the hard
//! contract: the build-phase table lists all of them and renders `—` for
//! the ones the chosen builder legitimately skipped.

use h2_bench::{json_record, median_ms, write_json, Args, Table, Value};
use h2_core::diagnostics::counters;
use h2_core::{BasisMethod, BuilderStrategy, H2Config, H2Matrix, H2MatrixS, MemoryMode};
use h2_dist::ShardedH2;
use h2_kernels::{paper_kernels, Coulomb};
use h2_linalg::{panel, Matrix, MatrixS, Scalar};
use h2_points::gen;
use h2_serve::MatvecService;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

json_record! {
    /// One precision mode of the stored-mode operator: apply time, resident
    /// bytes, and accuracy against the `f64` apply.
    #[derive(Clone, Debug)]
    struct PrecisionRow {
        precision: String,
        stored_matvec_ms: f64,
        operator_bytes: u64,
        rel_err_vs_f64: f64,
    }
}

json_record! {
    /// One paper kernel's blocked evaluation against its scalar reference,
    /// over the operator's nearfield pairs on one thread.
    #[derive(Clone, Debug)]
    struct KernelEvalRow {
        kernel: String,
        /// `Kernel::apply_block`: the scalar `phi(dist2)` loop.
        scalar_ns_per_entry: f64,
        /// `Kernel::eval_block_into`: the tiled, vectorised evaluation.
        block_ns_per_entry: f64,
        scalar_over_block: f64,
    }
}

json_record! {
    /// The panel kernels against `k` one-column applies, per storage /
    /// accumulator scalar pair, over the stored operator's coupling and
    /// nearfield blocks on one thread; every time is ns per entry·column.
    #[derive(Clone, Debug)]
    struct PanelApplyRow {
        /// `S/A`, e.g. `f32/f64`.
        scalars: String,
        k: usize,
        /// `k × matvec_acc` and `matmat_acc` (`Y += B X`).
        matvec_ns: f64,
        matmat_ns: f64,
        /// `k × matvec_t_acc` and `matmat_t_acc` (`Y += Bᵀ X`).
        matvec_t_ns: f64,
        matmat_t_ns: f64,
        /// `matmat_bi_acc`: both products in one walk over each block.
        bi_ns: f64,
    }
}

json_record! {
    /// Machine-readable run summary written to `--json`.
    #[derive(Clone, Debug)]
    struct ProfileSummary {
        n: usize,
        tol: f64,
        /// Construction wall (ms) and its per-phase breakdown from spans.
        build_ms: f64,
        build_phase_ms: Value,
        /// Median single-vector apply times (ms).
        stored_matvec_ms: f64,
        otf_matvec_ms: f64,
        /// Fused panel sweep (`matmat_k` columns, ms).
        matmat_k: usize,
        matmat_ms: f64,
        /// Sharded run: shard count and wall (ms).
        dist_shards: usize,
        dist_matvec_ms: f64,
        /// Work counters over the whole run.
        kernel_evals: u64,
        coupling_blocks: u64,
        nearfield_blocks: u64,
        dist_bytes_sent: u64,
        /// Telemetry unit costs and the derived matvec overhead estimates.
        span_unit_ns: f64,
        counter_unit_ns: f64,
        stored_overhead_pct: f64,
        otf_overhead_pct: f64,
        /// Spans in the exported trace.
        trace_events: usize,
        /// Per-precision apply time / footprint / accuracy (f64, f32, mixed).
        precision: Vec<PrecisionRow>,
        /// Blocked kernel evaluation against the scalar reference.
        kernel_eval: Vec<KernelEvalRow>,
        /// Panel applies against `k` one-column applies.
        panel_apply: Vec<PanelApplyRow>,
        /// Share of the `f64` operator's stored block bytes in blocks with
        /// fewer than 8 and fewer than 32 rows.
        bytes_frac_rows_lt8: f64,
        bytes_frac_rows_lt32: f64,
    }
}

/// One [`PanelApplyRow`]: `k`-column panels applied to every block of
/// `blocks`, as `k` one-column applies and as one panel apply, each
/// direction timed on its own, then both directions in one call.
fn panel_apply_row<S: Scalar, A: Scalar>(
    blocks: &[&MatrixS<S>],
    k: usize,
    reps: usize,
) -> PanelApplyRow {
    let ns = |apply: fn(&MatrixS<S>, usize, &[A], &mut [A])| panel_ns(blocks, k, reps, apply);
    PanelApplyRow {
        scalars: format!("{}/{}", S::NAME, A::NAME),
        k,
        matvec_ns: ns(|b, k, x, y| {
            let (m, n) = b.shape();
            for c in 0..k {
                b.matvec_acc(&x[c * n..(c + 1) * n], &mut y[c * m..(c + 1) * m]);
            }
        }),
        matmat_ns: ns(|b, k, x, y| b.matmat_acc(k, &x[..b.ncols() * k], &mut y[..b.nrows() * k])),
        matvec_t_ns: ns(|b, k, x, y| {
            let (m, n) = b.shape();
            for c in 0..k {
                b.matvec_t_acc(&x[c * m..(c + 1) * m], &mut y[c * n..(c + 1) * n]);
            }
        }),
        matmat_t_ns: ns(|b, k, x, y| {
            b.matmat_t_acc(k, &x[..b.nrows() * k], &mut y[..b.ncols() * k])
        }),
        bi_ns: ns(|b, k, x, y| {
            let (m, n) = b.shape();
            let (yf, yt) = y.split_at_mut(m * k);
            let (xf, xt) = (&x[..n * k], &x[..m * k]);
            panel::matmat_bi_acc(b.as_slice(), m, n, k, xf, yf, xt, &mut yt[..n * k]);
        }),
    }
}

/// ns per entry·column of `apply(block, k, x, y)` over every block, median
/// of `reps`; `x` has no zero entry, so no term is skipped, and `y` holds
/// a forward and a transposed output panel side by side.
fn panel_ns<S: Scalar, A: Scalar>(
    blocks: &[&MatrixS<S>],
    k: usize,
    reps: usize,
    apply: fn(&MatrixS<S>, usize, &[A], &mut [A]),
) -> f64 {
    let len = blocks.iter().map(|b| b.nrows().max(b.ncols())).max();
    let len = len.unwrap_or(0) * k;
    let x: Vec<A> = (0..len)
        .map(|e| A::from_f64((e % 7) as f64 * 0.25 + 0.5))
        .collect();
    let mut y = vec![A::ZERO; 2 * len];
    let entries: usize = blocks.iter().map(|b| b.nrows() * b.ncols()).sum();
    let ms = median_ms(reps, || {
        for b in blocks {
            apply(b, k, &x, &mut y);
        }
        black_box(&mut y);
    });
    ms * 1e6 / (entries * k).max(1) as f64
}

/// The coupling and nearfield blocks of a stored operator.
fn stored_blocks<S: Scalar>(h2: &H2MatrixS<S>) -> Vec<&MatrixS<S>> {
    let coupling = h2.coupling_store().blocks().unwrap_or_default();
    let nearfield = h2.nearfield_store().blocks().unwrap_or_default();
    coupling.iter().chain(nearfield).collect()
}

/// Share of the bytes of `blocks` in blocks with fewer than `rows` rows.
fn bytes_frac_under<S: Scalar>(blocks: &[&MatrixS<S>], rows: usize) -> f64 {
    let bytes = |b: &&MatrixS<S>| b.nrows() * b.ncols();
    let small: usize = blocks.iter().filter(|b| b.nrows() < rows).map(bytes).sum();
    small as f64 / blocks.iter().map(bytes).sum::<usize>().max(1) as f64
}

/// Average cost of one `f()` call over `iters` iterations, nanoseconds.
fn unit_cost_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

fn main() {
    let args = Args::parse();
    let n = if args.full { 40_000 } else { 6_000 };
    let n = args.sizes.as_ref().map_or(n, |s| s[0]);
    let tol = args.tol_or(1e-6);
    let reps = if args.full { 5 } else { 3 };
    let shards = args.threads.as_ref().map_or(2, |t| t[0]).max(1);
    let matmat_k = 8;

    // Single-threaded driver, nothing in flight: safe point to zero the
    // process-wide registry so the trace contains exactly this run.
    h2_telemetry::reset();

    let pts = gen::uniform_cube(n, 3, args.seed);
    let b = h2_core::error_est::probe_vector(n, args.seed ^ 0xbeef);
    let builder = match args.builder.as_str() {
        "anchor" | "anchor-net" => BuilderStrategy::AnchorNet,
        "sketched" | "sketch" => BuilderStrategy::sketched_for_tol(tol, 3),
        other => {
            eprintln!("unknown --builder '{other}' (anchor|sketched)");
            std::process::exit(2);
        }
    };
    println!(
        "Profile: n={n}, cube, Coulomb, tol={tol:.0e}, {shards} shards, {} builder\n",
        builder.name()
    );

    // Construction (span-instrumented: build.tree/lists/sampling/id/... for
    // anchor-net, build.sketch/adaptive_rank for the sketched pipeline).
    let mk = |mode| {
        let cfg = H2Config {
            basis: BasisMethod::data_driven_for_tol(tol, 3),
            builder: builder.clone(),
            mode,
            seed: args.seed,
            ..H2Config::default()
        };
        Arc::new(H2Matrix::build(&pts, Arc::new(Coulomb), &cfg))
    };
    let stored = mk(MemoryMode::Normal);
    let otf = mk(MemoryMode::OnTheFly);
    let build_ms = stored.stats().total_ms;

    // Single-vector applies, both memory modes. Count the on-the-fly
    // block regenerations on this thread for the overhead model below.
    let time_mv = |h2: &H2Matrix| median_ms(reps, || drop(h2.matvec(&b)));
    let stored_matvec_ms = time_mv(&stored);
    let scope = counters::scope();
    let otf_matvec_ms = time_mv(&otf);
    let otf_blocks_per_mv =
        (scope.count("coupling_blocks") + scope.count("nearfield_blocks")) / reps as u64;
    drop(scope);

    // Precision study: the same stored-mode operator in f32 storage, applied
    // in pure f32 and in mixed mode (f32 storage, f64 accumulation). The
    // builder factors in f64 either way, so the f32 operator is the
    // entrywise rounding of the f64 one; the footprint gate below is the
    // CI check that f32 storage really (more than) halves the scalar-
    // dominated resident bytes.
    let stored32 = {
        let cfg = H2Config {
            basis: BasisMethod::data_driven_for_tol(tol, 3),
            builder: builder.clone(),
            mode: MemoryMode::Normal,
            seed: args.seed,
            ..H2Config::default()
        };
        Arc::new(H2MatrixS::<f32>::build(&pts, Arc::new(Coulomb), &cfg))
    };
    let b32: Vec<f32> = b.iter().map(|&v| v as f32).collect();
    let y64 = stored.matvec(&b);
    let f32_matvec_ms = median_ms(reps, || drop(stored32.as_ref().matvec::<f32>(&b32)));
    let mixed_matvec_ms = median_ms(reps, || drop(stored32.matvec_f64(&b)));
    let bytes64 = stored.memory_report().total() as u64;
    let bytes32 = stored32.memory_report().total() as u64;
    let footprint_ratio = bytes32 as f64 / bytes64 as f64;
    let y32_wide: Vec<f64> = stored32
        .as_ref()
        .matvec::<f32>(&b32)
        .into_iter()
        .map(f64::from)
        .collect();
    let precision_rows = vec![
        PrecisionRow {
            precision: "f64".into(),
            stored_matvec_ms,
            operator_bytes: bytes64,
            rel_err_vs_f64: 0.0,
        },
        PrecisionRow {
            precision: "f32".into(),
            stored_matvec_ms: f32_matvec_ms,
            operator_bytes: bytes32,
            rel_err_vs_f64: h2_linalg::vec_ops::rel_err(&y32_wide, &y64),
        },
        PrecisionRow {
            precision: "mixed-f32".into(),
            stored_matvec_ms: mixed_matvec_ms,
            operator_bytes: bytes32,
            rel_err_vs_f64: h2_linalg::vec_ops::rel_err(&stored32.matvec_f64(&b), &y64),
        },
    ];
    println!(
        "precision: f64 {stored_matvec_ms:.2} ms/mv ({bytes64} B),          f32 {f32_matvec_ms:.2} ms/mv, mixed {mixed_matvec_ms:.2} ms/mv          ({bytes32} B, {footprint_ratio:.3}x footprint)"
    );
    for r in &precision_rows[1..] {
        println!("  {} rel err vs f64: {:.2e}", r.precision, r.rel_err_vs_f64);
    }
    println!();
    if footprint_ratio > 0.55 {
        eprintln!(
            "FAIL: f32 stored footprint {bytes32} B is {footprint_ratio:.3}x the f64              footprint {bytes64} B (gate: <= 0.55x)"
        );
        std::process::exit(1);
    }

    // Fused panel sweep (the amortization path the serving layer uses).
    let panel = Matrix::from_fn(n, matmat_k, |i, j| ((i * 7 + j) % 5) as f64 - 2.0);
    let t0 = Instant::now();
    let _ = otf.matmat(&panel);
    let matmat_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Sharded distributed matvec (per-rank phase spans + transport bytes).
    let dist_matvec_ms = match ShardedH2::new(stored.clone(), shards) {
        Ok(sh) => {
            let (_, stats) = sh.matvec_with_stats(&b);
            stats.wall * 1e3
        }
        Err(e) => {
            eprintln!("skip sharded stage: {e}");
            0.0
        }
    };

    // Small serving workload so serve.sweep spans and the service's own
    // latency series are part of the snapshot.
    let svc = MatvecService::new(stored.clone(), 4);
    let tickets: Vec<_> = (0..16)
        .map(|s| {
            let rhs = h2_core::error_est::probe_vector(n, args.seed ^ (s as u64) << 8);
            svc.submit(rhs).expect("length checked")
        })
        .collect();
    svc.drain();
    for t in tickets {
        let _ = t.wait().expect("serving a local operator cannot fail");
    }

    // Snapshot before the overhead probe loops so the trace holds only the
    // real workload.
    let snap = h2_telemetry::snapshot();

    // Contract check: every span family the instrumentation promises must
    // be present — construction, all five matvec sweeps plus gather/scatter,
    // per-rank dist phases, and serve sweeps. Builder-specific phases
    // (`build.id`, `build.sketch`, `build.adaptive_rank`) are deliberately
    // NOT in this list: a builder that legitimately skips a phase renders
    // `—` in the build-phase table below instead of failing the contract.
    let mut required: Vec<&str> = vec![
        "build",
        "build.tree",
        "build.lists",
        "build.sampling",
        "build.transfers",
        "build.basis",
        "build.blocks",
        "matvec",
        "matvec.gather",
        "matvec.upward",
        "matvec.horizontal",
        "matvec.downward",
        "matvec.leaf",
        "matvec.scatter",
        "serve.sweep",
    ];
    if dist_matvec_ms > 0.0 {
        required.extend(["dist.matvec", "dist.coord", "dist.shard", "dist.exchange"]);
    }
    let missing: Vec<&str> = required
        .into_iter()
        .filter(|name| snap.spans_named(name).next().is_none())
        .collect();
    if !missing.is_empty() {
        eprintln!("FAIL: spans missing from snapshot: {missing:?}");
        std::process::exit(1);
    }

    // Build-phase table over the union of both builders' phases. A phase
    // the chosen builder never entered renders `—` (anchor-net never
    // sketches; the sketched pipeline has no interpolative-decomposition
    // pass of its own, and `build.adaptive_rank` only fires on rank
    // retries) — absence is information here, not an error.
    let totals = snap.span_totals();
    let known_phases = [
        "build.tree",
        "build.lists",
        "build.sampling",
        "build.id",
        "build.sketch",
        "build.adaptive_rank",
        "build.transfers",
        "build.basis",
        "build.blocks",
        "build.cache",
    ];
    let mut phase_table = Table::new(&["build phase", "count", "total ms"]);
    for phase in known_phases {
        let mut count = 0u64;
        let mut ms = 0.0;
        for ((name, _), t) in &totals {
            if name == phase {
                count += t.count;
                ms += t.millis();
            }
        }
        let (c, m) = if count == 0 {
            ("—".into(), "—".into())
        } else {
            (count.to_string(), format!("{ms:.3}"))
        };
        phase_table.row(vec![phase.into(), c, m]);
    }
    phase_table.print();
    println!();

    // Span aggregate table.
    let mut table = Table::new(&["span", "label", "count", "total ms"]);
    for ((name, label), t) in &totals {
        table.row(vec![
            name.clone(),
            label.clone(),
            t.count.to_string(),
            format!("{:.3}", t.millis()),
        ]);
    }
    table.print();
    println!();

    // Telemetry unit costs → estimated per-matvec overhead. A stored-mode
    // matvec records 7 spans (outer + 6 phases) and no counters; an
    // on-the-fly matvec additionally issues 2 counter adds per regenerated
    // block (block count + kernel-eval total).
    // Probe spans run nested inside an outer guard, like real phase spans
    // inside their sweep: buffered, flushed every 1024 records, not per drop.
    let span_unit_ns = {
        let outer = h2_telemetry::span("overhead.outer");
        let v = unit_cost_ns(100_000, || {
            let _s = h2_telemetry::span("overhead.probe");
        });
        drop(outer);
        v
    };
    let counter_unit_ns = unit_cost_ns(1_000_000, || {
        h2_telemetry::counter_add!("overhead.counter", 1);
    });
    let pct = |events_span: f64, events_counter: f64, wall_ms: f64| {
        (events_span * span_unit_ns + events_counter * counter_unit_ns) / (wall_ms * 1e6) * 100.0
    };
    let stored_overhead_pct = pct(7.0, 0.0, stored_matvec_ms);
    let otf_overhead_pct = pct(7.0, 2.0 * otf_blocks_per_mv as f64, otf_matvec_ms);
    println!("telemetry unit costs: span {span_unit_ns:.0} ns, counter {counter_unit_ns:.1} ns");
    println!(
        "estimated matvec overhead: stored {stored_overhead_pct:.4}% \
         ({stored_matvec_ms:.2} ms/mv), otf {otf_overhead_pct:.4}% \
         ({otf_matvec_ms:.2} ms/mv, {otf_blocks_per_mv} blocks regenerated)\n"
    );

    // The kernel layer against its reference, on the real block shapes and
    // index sets: every nearfield pair of the operator, one thread. The
    // scalar side is `apply_block` with unit weights (the `phi(dist2)` loop
    // plus one multiply-add per entry). Information only.
    let (tree, pairs) = (otf.tree(), &otf.lists().nearfield_pairs);
    let block_of = |&(i, j): &(usize, usize)| (tree.node_indices(i), tree.node_indices(j));
    let entries: usize = pairs
        .iter()
        .map(block_of)
        .map(|(rows, cols)| rows.len() * cols.len())
        .sum();
    let ns_per_entry = |ms: f64| ms * 1e6 / entries as f64;
    let ones = vec![1.0; n];
    let (mut block, mut y) = (Vec::new(), vec![0.0; n]);
    let mut kernel_table = Table::new(&["kernel", "scalar ns/entry", "block ns/entry", "ratio"]);
    let mut kernel_rows = Vec::new();
    for (name, k) in paper_kernels() {
        let scalar = ns_per_entry(median_ms(reps, || {
            for (rows, cols) in pairs.iter().map(block_of) {
                k.apply_block(
                    tree.points(),
                    rows,
                    cols,
                    &ones[..cols.len()],
                    &mut y[..rows.len()],
                );
            }
            black_box(&mut y);
        }));
        let blocked = ns_per_entry(median_ms(reps, || {
            for (rows, cols) in pairs.iter().map(block_of) {
                block.clear();
                block.resize(rows.len() * cols.len(), 0.0);
                k.eval_block_into(tree.points(), rows, cols, &mut block);
                black_box(&mut block);
            }
        }));
        let ratio = scalar / blocked;
        kernel_table.row(vec![
            name.into(),
            format!("{scalar:.2}"),
            format!("{blocked:.2}"),
            format!("{ratio:.2}"),
        ]);
        kernel_rows.push(KernelEvalRow {
            kernel: name.into(),
            scalar_ns_per_entry: scalar,
            block_ns_per_entry: blocked,
            scalar_over_block: ratio,
        });
    }
    println!(
        "kernel evaluation over {} nearfield pairs ({entries} entries):",
        pairs.len()
    );
    kernel_table.print();
    println!();

    // The panel kernels against the one-column applies they replace, on
    // the stored operators' real block shapes, one thread. Information only.
    let (blocks64, blocks32) = (stored_blocks(&stored), stored_blocks(&stored32));
    let mut panel_rows = Vec::new();
    for k in [1, 4, 8] {
        panel_rows.push(panel_apply_row::<f64, f64>(&blocks64, k, reps));
        panel_rows.push(panel_apply_row::<f32, f64>(&blocks32, k, reps));
        panel_rows.push(panel_apply_row::<f32, f32>(&blocks32, k, reps));
    }
    let mut panel_table = Table::new(&[
        "S/A",
        "k",
        "k × matvec",
        "matmat",
        "k × matvec_t",
        "matmat_t",
        "k × (matvec + matvec_t)",
        "matmat_bi",
    ]);
    for r in &panel_rows {
        panel_table.row(vec![
            r.scalars.clone(),
            r.k.to_string(),
            format!("{:.3}", r.matvec_ns),
            format!("{:.3}", r.matmat_ns),
            format!("{:.3}", r.matvec_t_ns),
            format!("{:.3}", r.matmat_t_ns),
            format!("{:.3}", r.matvec_ns + r.matvec_t_ns),
            format!("{:.3}", r.bi_ns),
        ]);
    }
    println!(
        "panel apply over {} stored blocks, ns per entry·column:",
        blocks64.len()
    );
    panel_table.print();
    let (lt8, lt32) = (
        bytes_frac_under(&blocks64, 8),
        bytes_frac_under(&blocks64, 32),
    );
    println!(
        "stored block bytes in blocks under 8 rows: {:.1} %, under 32 rows: {:.1} %",
        lt8 * 100.0,
        lt32 * 100.0
    );
    println!();

    // Prometheus exposition: service latency series, then the registry.
    print!("{}", svc.metrics().prometheus_text());
    print!("{}", snap.prometheus_text());

    // Trace export; re-parse to guarantee the artifact loads.
    if let Some(p) = &args.trace {
        let trace = snap.chrome_trace_json();
        let parsed: serde_json::Value =
            serde_json::from_str(&trace).expect("exported trace must be valid JSON");
        let events = parsed["traceEvents"]
            .as_array()
            .expect("traceEvents must be an array");
        assert_eq!(events.len(), snap.spans.len(), "one event per span");
        std::fs::write(p, &trace).unwrap_or_else(|e| panic!("write {p}: {e}"));
        eprintln!("wrote {} trace events to {p}", events.len());
    }

    if args.json.is_some() {
        // Keyed by `name` or `name[label]`, in the keys' sorted order.
        let build_phase_ms: BTreeMap<String, f64> = totals
            .iter()
            .filter(|((name, _), _)| name.starts_with("build."))
            .map(|((name, label), t)| {
                let key = if label.is_empty() {
                    name.clone()
                } else {
                    format!("{name}[{label}]")
                };
                (key, t.millis())
            })
            .collect();
        let summary = ProfileSummary {
            n,
            tol,
            build_ms,
            build_phase_ms: build_phase_ms.into_iter().collect(),
            stored_matvec_ms,
            otf_matvec_ms,
            matmat_k,
            matmat_ms,
            dist_shards: shards,
            dist_matvec_ms,
            kernel_evals: snap.counter("kernel_evals"),
            coupling_blocks: snap.counter("coupling_blocks"),
            nearfield_blocks: snap.counter("nearfield_blocks"),
            dist_bytes_sent: snap.counter("dist.bytes_sent"),
            span_unit_ns,
            counter_unit_ns,
            stored_overhead_pct,
            otf_overhead_pct,
            trace_events: snap.spans.len(),
            precision: precision_rows,
            kernel_eval: kernel_rows,
            panel_apply: panel_rows,
            bytes_frac_rows_lt8: lt8,
            bytes_frac_rows_lt32: lt32,
        };
        write_json(&args.json, summary);
    }
}
