//! **h2-cache study** — the memory/time continuum between the paper's two
//! memory modes (§II-B, §VI-B).
//!
//! Sweeps the block-cache budget from 0 (pure on-the-fly) to the full block
//! footprint (normal-mode residency) on one on-the-fly operator and
//! measures, per budget: resident bytes, per-matvec regeneration (cache
//! misses), and the median matvec time. There is one reference: every
//! budget, 0 and unbounded included, must reproduce the normal-mode product
//! *bitwise* (a block not held is materialized as normal mode stores it and
//! applied with the same routine).
//!
//! Two more rows take the 50% operator through churn (rounds of insert 2 +
//! remove 2 + one product) and measure it again, beside the same operator
//! freshly budgeted: every update re-plans the cached tier, so the two rows
//! hold the same blocks and hit and miss alike.
//!
//! `--check` runs a small deterministic smoke: every row bitwise equal to
//! its reference, the byte-budget invariant at every point, per-matvec miss
//! counts strictly between the endpoints for intermediate budgets, and the
//! churned row equal to the re-planned one — then prints
//! `CACHE_SWEEP_CHECK_OK`. The process-wide telemetry registry (including
//! the `h2_cache_*` counters) is printed at the end either way.

use h2_bench::{json_record, median_ms, table, write_json, Args, Table};
use h2_core::{BasisMethod, CacheBudget, H2Config, H2Matrix, MemoryMode};
use h2_kernels::Coulomb;
use h2_points::gen;
use std::sync::Arc;

json_record! {
    /// One measured budget point.
    #[derive(Clone, Debug)]
    struct BudgetPoint {
        /// Budget spelling (`off`, a ratio, or `full`; `churned` and
        /// `re-planned` mark the two after-churn rows).
        label: String,
        /// Resolved byte budget (0 = no cache installed).
        budget_bytes: usize,
        /// Bytes resident.
        resident_bytes: usize,
        /// Cache hits during one matvec.
        hits_per_mv: u64,
        /// Cache misses (block regenerations) during one matvec.
        misses_per_mv: u64,
        /// Cache hit rate of one matvec (0 without a cache).
        hit_rate: f64,
        /// Median matvec time over the measured repetitions, ms.
        t_mv_ms: f64,
        /// Bitwise identical to the normal-mode product (the two
        /// after-churn rows to each other).
        bitwise: bool,
    }
}

/// Measures `h2` as it stands: one product compared with `reference`, the
/// cache traffic of a second, then the timed repetitions.
fn measure(label: &str, h2: &H2Matrix, b: &[f64], reps: usize, reference: &[f64]) -> BudgetPoint {
    let y = h2.matvec(b);
    let before = h2.cache_stats().unwrap_or_default();
    assert_eq!(y, h2.matvec(b), "matvec must be deterministic at {label}");
    let after = h2.cache_stats().unwrap_or_default();
    let t_mv_ms = median_ms(reps, || drop(h2.matvec(b)));
    assert!(
        after.resident_bytes <= after.budget_bytes,
        "budget invariant violated at {label}"
    );
    let (hits_per_mv, misses_per_mv) = (after.hits - before.hits, after.misses - before.misses);
    BudgetPoint {
        label: label.into(),
        budget_bytes: after.budget_bytes,
        resident_bytes: after.resident_bytes,
        hits_per_mv,
        misses_per_mv,
        hit_rate: hits_per_mv as f64 / (hits_per_mv + misses_per_mv).max(1) as f64,
        t_mv_ms,
        bitwise: y == reference,
    }
}

fn main() {
    let args = Args::parse();
    let check = args.check;

    let n = if check {
        1200
    } else if args.full {
        60_000
    } else {
        8_000
    };
    let n = args.sizes.as_ref().map_or(n, |s| s[0]);
    let tol = args.tol_or(1e-6);
    let reps = if check { 2 } else { 5 };
    let pts = gen::uniform_cube(n, 3, args.seed);
    let kernel = Arc::new(Coulomb);
    let cfg = |mode: MemoryMode| H2Config {
        basis: BasisMethod::data_driven_for_tol(tol, 3),
        mode,
        ..H2Config::default()
    };

    println!("Cache budget sweep: n={n}, cube, Coulomb, tol={tol:.0e}, {reps} reps\n");

    // The operator to re-budget, and the normal-mode reference.
    let mut otf = H2Matrix::build(&pts, kernel.clone(), &cfg(MemoryMode::OnTheFly));
    let normal = H2Matrix::build(&pts, kernel, &cfg(MemoryMode::Normal));
    let b = h2_core::error_est::probe_vector(n, args.seed ^ 0xCACE);
    let y_normal = normal.matvec(&b);
    let full_bytes = otf.full_block_bytes();
    println!(
        "full block footprint: {:.1} KiB ({} interaction + nearfield blocks)\n",
        full_bytes as f64 / 1024.0,
        otf.lists().interaction_pairs.len() + otf.lists().nearfield_pairs.len(),
    );

    // Budget 0 → the two binary modes → full, with the continuum between.
    let budgets: Vec<(String, CacheBudget)> = std::iter::once(("off".into(), CacheBudget::Off))
        .chain(
            [0.05, 0.1, 0.25, 0.5, 0.75]
                .into_iter()
                .map(|r| (format!("{:.0}%", r * 100.0), CacheBudget::Ratio(r))),
        )
        .chain(std::iter::once(("full".into(), CacheBudget::Unbounded)))
        .collect();

    let mut rows: Vec<BudgetPoint> = Vec::new();
    for (label, budget) in &budgets {
        // One operator, re-budgeted in place: the basis/skeleton work is
        // shared, only the cached tier changes between points.
        otf.set_cache_budget(*budget);
        rows.push(measure(label, &otf, &b, reps, &y_normal));
    }

    // The 50% operator after churn, beside itself freshly budgeted.
    let churn_rounds = if check { 3 } else { 20 };
    let mut churned = otf.clone();
    churned.set_cache_budget(CacheBudget::Ratio(0.5));
    for round in 0..churn_rounds {
        let arriving = gen::uniform_cube(2, 3, args.seed + 1 + round as u64);
        let departing: Vec<usize> = (0..2).map(|k| (round * 131 + k * 977) % n).collect();
        let ins = churned.insert_points(&arriving).expect("insert");
        let rem = churned.remove_points(&departing).expect("remove");
        assert_eq!(ins.rebuilds + rem.rebuilds, 0, "round {round} rebuilt");
        let _ = churned.matvec(&b);
    }
    let budget_bytes = churned.cache_stats().expect("budgeted").budget_bytes;
    let mut replanned = churned.clone();
    replanned.set_cache_budget(CacheBudget::Bytes(budget_bytes as u64));
    let y_replanned = replanned.matvec(&b);
    rows.push(measure("50% churned", &churned, &b, reps, &y_replanned));
    rows.push(measure(
        "50% re-planned",
        &replanned,
        &b,
        reps,
        &y_replanned,
    ));

    let mut t = Table::new(&[
        "budget",
        "budget KiB",
        "resident KiB",
        "hit/mv",
        "miss/mv",
        "hit rate",
        "T_mv",
        "bitwise",
    ]);
    for r in &rows {
        t.row(vec![
            r.label.clone(),
            format!("{:.1}", r.budget_bytes as f64 / 1024.0),
            format!("{:.1}", r.resident_bytes as f64 / 1024.0),
            format!("{}", r.hits_per_mv),
            format!("{}", r.misses_per_mv),
            format!("{:.2}", r.hit_rate),
            table::ms(r.t_mv_ms),
            if r.bitwise { "yes".into() } else { "NO".into() },
        ]);
    }
    t.print();

    let (after_churn, sweep) = (&rows[budgets.len()..], &rows[..budgets.len()]);
    let zero = sweep.first().expect("budget sweep is non-empty");
    let full = sweep.last().expect("budget sweep is non-empty");

    if check {
        assert!(rows.iter().all(|r| r.bitwise), "a budget moved the product");
        assert_eq!(zero.budget_bytes, 0, "budget 0 must install no cache");
        assert_eq!(
            full.resident_bytes, full_bytes,
            "unbounded budget must hold the full footprint"
        );
        assert_eq!(full.misses_per_mv, 0, "fully resident sweeps never miss");
        let intermediates = &sweep[1..sweep.len() - 1];
        assert!(intermediates.len() >= 3, "need >= 3 intermediate budgets");
        for r in intermediates {
            assert!(
                r.misses_per_mv > 0 && r.resident_bytes > 0,
                "{}: intermediate budgets must sit strictly between the \
                 endpoints (misses {} resident {})",
                r.label,
                r.misses_per_mv,
                r.resident_bytes
            );
            assert!(r.resident_bytes <= r.budget_bytes, "{}: invariant", r.label);
        }
        // More budget regenerates less (first fit walks one schedule, so a
        // larger budget holds at least as long a prefix of it).
        let (first, last) = (&intermediates[0], &intermediates[intermediates.len() - 1]);
        assert!(
            last.misses_per_mv < first.misses_per_mv,
            "misses must fall as the budget grows ({}: {} -> {}: {})",
            first.label,
            first.misses_per_mv,
            last.label,
            last.misses_per_mv
        );
        // Churn costs the cached tier nothing: same blocks, same traffic.
        let traffic = |r: &BudgetPoint| (r.resident_bytes, r.hits_per_mv, r.misses_per_mv);
        assert_eq!(traffic(&after_churn[0]), traffic(&after_churn[1]));
        assert!(after_churn[0].hits_per_mv > 0, "churned operator must hit");
        let keys = |h2: &H2Matrix| h2.cache().expect("budgeted operator").keys();
        assert_eq!(keys(&churned), keys(&replanned));
        println!("CACHE_SWEEP_CHECK_OK");
    }

    write_json(&args.json, rows);
    print!("{}", h2_telemetry::snapshot().prometheus_text());
}
