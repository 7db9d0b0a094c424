//! **`paper profile`**: the §VI phase breakdown of the whole stack with the
//! telemetry layer on. One process-wide snapshot holds an instrumented
//! construction, stored-mode and on-the-fly products, a fused multi-column
//! sweep, a 2-shard product and a small serving workload.
//!
//! It prints the span aggregate, the build phases, the telemetry overhead
//! estimate, blocked kernel evaluation against its scalar reference, the
//! panel kernels against one-column applies, and the Prometheus exposition.
//! `--trace PATH` writes a chrome://tracing file, re-parsed before it is
//! written, so a zero exit status guarantees a loadable trace.
//!
//! Two gates fail the run: every span family the instrumentation promises
//! (construction phases, the five sweeps, per-rank dist phases, serve
//! sweeps) is in the snapshot, and the `f32` operator takes at most 0.55×
//! the `f64` one's bytes. The phases only one builder emits (`build.id` for
//! anchor-net; `build.sketch` and `build.adaptive_rank` for
//! `--builder sketched`) render `—` when absent instead.

use crate::{json_record, median_ms, run_config, Args, Case, Table, Value};
use h2_core::{BasisMethod, BlockKind, BuilderStrategy, H2Config, H2Matrix, H2MatrixS, MemoryMode};
use h2_dist::ShardedH2;
use h2_kernels::{paper_kernels, Coulomb};
use h2_linalg::{panel, vec_ops::rel_err, Matrix, MatrixS, Scalar};
use h2_points::gen::Distribution3d;
use h2_serve::MatvecService;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Shards of the sharded stage.
const SHARDS: usize = 2;
/// Columns of the fused panel sweep.
const MATMAT_K: usize = 8;

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
        /// `Kernel::eval` entry by entry into a block: the scalar `phi(dist2)`.
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
    /// The run's summary, written to `--json`.
    #[derive(Clone, Debug)]
    struct ProfileSummary {
        n: usize,
        tol: f64,
        /// The radial tile's compile and the commit the run came from.
        simd: String,
        commit: String,
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

/// Runs the profile at `n` points and `tol`, `reps` timings per median,
/// and returns its `--json` summary; `Err` names the gate that failed.
pub fn run(args: &Args, n: usize, tol: f64, reps: usize) -> Result<Value, String> {
    // Nothing is in flight: zero the process-wide registry so the trace
    // holds exactly this run.
    h2_telemetry::reset();
    let builder = match args.builder.as_str() {
        "sketched" => BuilderStrategy::sketched_for_tol(tol, 3),
        _ => BuilderStrategy::AnchorNet,
    };
    println!("{SHARDS} shards, {} builder\n", builder.name());
    let cfg = |mode| H2Config {
        basis: BasisMethod::data_driven_for_tol(tol, 3),
        builder: builder.clone(),
        mode,
        seed: args.seed,
        ..H2Config::default()
    };
    let salt = 0xbeef;
    let case = |mode| Case {
        salt,
        ..Case::new(vec![], n, cfg(mode))
    };
    let b = h2_core::error_est::probe_vector(n, args.seed ^ salt);
    let (_, stored, y64) = run_config(&case(MemoryMode::Normal), args.seed);
    let (_, otf, _) = run_config(&case(MemoryMode::OnTheFly), args.seed);
    let (stored, otf) = (Arc::new(stored), Arc::new(otf));
    let build_ms = stored.stats().total_ms;

    // Single-vector applies, both memory modes. Count the on-the-fly block
    // regenerations on this thread for the overhead model below.
    let time_mv = |h2: &H2Matrix| median_ms(reps, || drop(h2.matvec(&b)));
    let stored_matvec_ms = time_mv(&stored);
    let scope = h2_telemetry::local_scope();
    let otf_matvec_ms = time_mv(&otf);
    let otf_blocks_per_mv =
        (scope.count("coupling_blocks") + scope.count("nearfield_blocks")) / reps as u64;
    drop(scope);

    // The stored operator in f32 storage, applied in f32 and mixed (f32
    // storage, f64 accumulation). The builder factors in f64 either way, so
    // it is the entrywise rounding of the f64 operator, and f32 storage
    // must (more than) halve the scalar-dominated resident bytes.
    let pts = Distribution3d::Cube.generate(n, args.seed);
    let stored32 = H2MatrixS::<f32>::build(&pts, Arc::new(Coulomb), &cfg(MemoryMode::Normal));
    let b32: Vec<f32> = b.iter().map(|&v| v as f32).collect();
    let f32_mv = || stored32.matvec::<f32>(&b32);
    let f32_matvec_ms = median_ms(reps, || drop(f32_mv()));
    let mixed_matvec_ms = median_ms(reps, || drop(stored32.matvec_f64(&b)));
    let (bytes64, bytes32) = (
        stored.memory_report().total(),
        stored32.memory_report().total(),
    );
    let footprint = bytes32 as f64 / bytes64 as f64;
    let y32: Vec<f64> = f32_mv().into_iter().map(f64::from).collect();
    let row = |precision: &str, ms, bytes, err| PrecisionRow {
        precision: precision.into(),
        stored_matvec_ms: ms,
        operator_bytes: bytes as u64,
        rel_err_vs_f64: err,
    };
    let precision = vec![
        row("f64", stored_matvec_ms, bytes64, 0.0),
        row("f32", f32_matvec_ms, bytes32, rel_err(&y32, &y64)),
        row(
            "mixed-f32",
            mixed_matvec_ms,
            bytes32,
            rel_err(&stored32.matvec_f64(&b), &y64),
        ),
    ];
    println!(
        "precision: f64 {stored_matvec_ms:.2} ms/mv ({bytes64} B), f32 {f32_matvec_ms:.2} ms/mv, \
         mixed {mixed_matvec_ms:.2} ms/mv ({bytes32} B, {footprint:.3}x footprint)"
    );
    for r in &precision[1..] {
        println!("  {} rel err vs f64: {:.2e}", r.precision, r.rel_err_vs_f64);
    }
    println!();
    if footprint > 0.55 {
        return Err(format!(
            "f32 stored footprint {bytes32} B is {footprint:.3}x the f64 footprint \
             {bytes64} B (gate: <= 0.55x)"
        ));
    }

    // Fused panel sweep (the amortization path the serving layer uses).
    let x = Matrix::from_fn(n, MATMAT_K, |i, j| ((i * 7 + j) % 5) as f64 - 2.0);
    let t0 = Instant::now();
    drop(otf.matmat(&x));
    let matmat_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Sharded product (per-rank phase spans and transport bytes).
    let sharded = ShardedH2::new(stored.clone(), SHARDS).map_err(|e| format!("shard: {e}"))?;
    let dist_matvec_ms = sharded.matvec_with_stats(&b).1.wall * 1e3;

    // A small serving workload: serve.sweep spans and the service's own
    // latency series.
    let svc = MatvecService::new(stored.clone(), 4);
    let probe = |s: u64| h2_core::error_est::probe_vector(n, args.seed ^ s << 8);
    let submit = |s| svc.submit(probe(s)).expect("length checked");
    let tickets: Vec<_> = (0..16).map(submit).collect();
    svc.drain();
    for t in tickets {
        t.wait().expect("serving a local operator cannot fail");
    }

    // The snapshot precedes the overhead probe loops, so the trace holds
    // only the workload.
    let snap = h2_telemetry::snapshot();
    let required = [
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
        "dist.matvec",
        "dist.coord",
        "dist.shard",
        "dist.exchange",
    ];
    let missing: Vec<&str> = required
        .into_iter()
        .filter(|name| snap.spans_named(name).next().is_none())
        .collect();
    if !missing.is_empty() {
        return Err(format!("spans missing from snapshot: {missing:?}"));
    }

    // Build phases over both builders; `—` marks one this builder skips
    // (anchor-net never sketches, the sketched pipeline has no ID pass,
    // and `build.adaptive_rank` fires only on rank retries).
    let totals = snap.span_totals();
    let mut phases = Table::new(&["build phase", "count", "total ms"]);
    for phase in [
        "build.tree",
        "build.lists",
        "build.sampling",
        "build.id",
        "build.sketch",
        "build.adaptive_rank",
        "build.transfers",
        "build.basis",
        "build.blocks",
    ] {
        let of_phase = || totals.iter().filter(|((name, _), _)| name == phase);
        let count: u64 = of_phase().map(|(_, t)| t.count).sum();
        let ms: f64 = of_phase().map(|(_, t)| t.millis()).sum();
        let (count, ms) = match count {
            0 => ("—".into(), "—".into()),
            _ => (count.to_string(), format!("{ms:.3}")),
        };
        phases.row(vec![phase.into(), count, ms]);
    }
    phases.print();
    println!();
    let mut spans = Table::new(&["span", "label", "count", "total ms"]);
    for ((name, label), t) in &totals {
        let (count, ms) = (t.count.to_string(), format!("{:.3}", t.millis()));
        spans.row(vec![name.clone(), label.clone(), count, ms]);
    }
    spans.print();
    println!();

    // Telemetry unit costs → estimated overhead per product. A stored-mode
    // product records 7 spans (outer + 6 phases); an on-the-fly one also
    // adds 2 counters per regenerated block (block count, kernel evals).
    // The probe spans nest in an outer guard, like phase spans in their
    // sweep: buffered and flushed every 1024 records, not per drop.
    let outer = h2_telemetry::span("overhead.outer");
    let span_unit_ns = unit_cost_ns(100_000, || drop(h2_telemetry::span("overhead.probe")));
    drop(outer);
    let counter_unit_ns = unit_cost_ns(1_000_000, || {
        h2_telemetry::counter_add!("overhead.counter", 1);
    });
    let pct = |spans: f64, counters: f64, wall_ms: f64| {
        (spans * span_unit_ns + counters * counter_unit_ns) / (wall_ms * 1e6) * 100.0
    };
    let stored_overhead_pct = pct(7.0, 0.0, stored_matvec_ms);
    let otf_overhead_pct = pct(7.0, 2.0 * otf_blocks_per_mv as f64, otf_matvec_ms);
    println!("telemetry unit costs: span {span_unit_ns:.0} ns, counter {counter_unit_ns:.1} ns");
    println!(
        "estimated matvec overhead: stored {stored_overhead_pct:.4}% \
         ({stored_matvec_ms:.2} ms/mv), otf {otf_overhead_pct:.4}% \
         ({otf_matvec_ms:.2} ms/mv, {otf_blocks_per_mv} blocks regenerated)\n"
    );

    let kernel_eval = kernel_eval(&otf, reps);
    // The panel kernels against the one-column applies they replace, on
    // the stored operators' block shapes, one thread. Information only.
    let (blocks64, blocks32) = (stored_blocks(&stored), stored_blocks(&stored32));
    let mut panel_apply = Vec::new();
    for k in [1, 4, 8] {
        panel_apply.push(panel_apply_row::<f64, f64>(&blocks64, k, reps));
        panel_apply.push(panel_apply_row::<f32, f64>(&blocks32, k, reps));
        panel_apply.push(panel_apply_row::<f32, f32>(&blocks32, k, reps));
    }
    let headers = "S/A,k,k × matvec,matmat,k × matvec_t,matmat_t,k × (matvec + matvec_t),matmat_bi";
    let mut table = Table::new(&headers.split(',').collect::<Vec<_>>());
    for r in &panel_apply {
        let ns = [r.matvec_ns, r.matmat_ns, r.matvec_t_ns, r.matmat_t_ns];
        let ns = ns.into_iter().chain([r.matvec_ns + r.matvec_t_ns, r.bi_ns]);
        let cells = [r.scalars.clone(), r.k.to_string()];
        table.row(
            cells
                .into_iter()
                .chain(ns.map(|v| format!("{v:.3}")))
                .collect(),
        );
    }
    println!(
        "panel apply over {} stored blocks, ns per entry·column:",
        blocks64.len()
    );
    table.print();
    let (lt8, lt32) = (
        bytes_frac_under(&blocks64, 8),
        bytes_frac_under(&blocks64, 32),
    );
    let (p8, p32) = (lt8 * 100.0, lt32 * 100.0);
    println!("stored block bytes in blocks under 8 rows: {p8:.1} %, under 32 rows: {p32:.1} %\n");

    print!("{}", svc.metrics().prometheus_text());
    print!("{}", snap.prometheus_text());

    if let Some(p) = &args.trace {
        let trace = snap.chrome_trace_json();
        let parsed: Value =
            serde_json::from_str(&trace).expect("exported trace must be valid JSON");
        let events = parsed["traceEvents"]
            .as_array()
            .expect("traceEvents is an array");
        assert_eq!(events.len(), snap.spans.len(), "one event per span");
        std::fs::write(p, &trace).unwrap_or_else(|e| panic!("write {p}: {e}"));
        eprintln!("wrote {} trace events to {p}", events.len());
    }

    // Keyed by `name` or `name[label]`, in the keys' sorted order.
    let build_phase_ms: BTreeMap<String, f64> = totals
        .iter()
        .filter(|((name, _), _)| name.starts_with("build."))
        .map(|((name, label), t)| match label.as_str() {
            "" => (name.clone(), t.millis()),
            label => (format!("{name}[{label}]"), t.millis()),
        })
        .collect();
    Ok(ProfileSummary {
        n,
        tol,
        simd: h2_linalg::simd::widest().into(),
        commit: crate::commit(),
        build_ms,
        build_phase_ms: build_phase_ms.into_iter().collect(),
        stored_matvec_ms,
        otf_matvec_ms,
        matmat_k: MATMAT_K,
        matmat_ms,
        dist_shards: SHARDS,
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
        precision,
        kernel_eval,
        panel_apply,
        bytes_frac_rows_lt8: lt8,
        bytes_frac_rows_lt32: lt32,
    }
    .into())
}

/// Every paper kernel's blocked evaluation against its scalar reference
/// (entrywise `Kernel::eval` into the same column-major block) over `h2`'s
/// nearfield pairs, one thread. Information only.
fn kernel_eval(h2: &H2Matrix, reps: usize) -> Vec<KernelEvalRow> {
    let (tree, pairs) = (h2.tree(), &h2.lists().nearfield_pairs);
    let blocks: Vec<_> = pairs
        .iter()
        .map(|&(i, j)| (tree.node_indices(i), tree.node_indices(j)))
        .collect();
    let entries: usize = blocks.iter().map(|(r, c)| r.len() * c.len()).sum();
    let ns_per_entry = |ms: f64| ms * 1e6 / entries as f64;
    let (pts, mut block) = (tree.points(), Vec::new());
    let mut table = Table::new(&["kernel", "scalar ns/entry", "block ns/entry", "ratio"]);
    let mut rows = Vec::new();
    for (name, k) in paper_kernels() {
        let scalar = ns_per_entry(median_ms(reps, || {
            for (r, c) in &blocks {
                let entries = c.iter().flat_map(|&cj| r.iter().map(move |&ri| (ri, cj)));
                block.clear();
                block.extend(entries.map(|(ri, cj)| k.eval(pts.point(ri), pts.point(cj))));
                black_box(&mut block);
            }
        }));
        let blocked = ns_per_entry(median_ms(reps, || {
            for (r, c) in &blocks {
                block.clear();
                block.resize(r.len() * c.len(), 0.0);
                k.eval_block_into(pts, r, c, &mut block);
                black_box(&mut block);
            }
        }));
        let ratio = scalar / blocked;
        let cells = [scalar, blocked, ratio].map(|v| format!("{v:.2}"));
        table.row([name.to_string()].into_iter().chain(cells).collect());
        rows.push(KernelEvalRow {
            kernel: name.into(),
            scalar_ns_per_entry: scalar,
            block_ns_per_entry: blocked,
            scalar_over_block: ratio,
        });
    }
    let count = pairs.len();
    println!("kernel evaluation over {count} nearfield pairs ({entries} entries):");
    table.print();
    println!();
    rows
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
    let table = h2.table();
    let stored = |kind| table.stored_blocks(kind).unwrap_or_default();
    [BlockKind::Coupling, BlockKind::Nearfield]
        .into_iter()
        .flat_map(stored)
        .collect()
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
