//! **`paper <experiment>`**: the paper's evaluation (§V) from one table of
//! experiment specs: `table1`, `fig2` … `fig9`, `amortization` (§VI-B's
//! normal vs on-the-fly break-even), `build_ablation` (anchor-net vs
//! sketched construction), `profile` (§VI's phase breakdown with the
//! telemetry on, [`h2_bench::profile`]) and `dist` (the sharded product
//! over the channel mesh and loopback TCP). EXPERIMENTS.md has the paper's
//! numbers and the expected shapes.
//!
//! Every f64 operator is built by the one runner, [`run_config`], and
//! every table printed through [`Table`]. `--check` runs the experiment's
//! miniature and its shape checks; every miniature operator must have
//! admissible pairs, since a dense one passes any error check on
//! round-off. `paper all --check` runs the miniatures of Table I and
//! Figs. 2, 4, 5 and 9, and every check run ends in `N checks, 0 failed`;
//! `fig7`, `build_ablation` and `dist` then print `FIG7_THREADS_CHECK_OK`,
//! `BUILD_ABLATION_CHECK_OK` and `DIST_CHECK_OK`. A flag the experiment
//! cannot honour is a usage error (exit 2) before any work.

use h2_bench::args::usage;
use h2_bench::table::{self, Table};
use h2_bench::{json_record, paper_configs, run_config, write_json, Args, Case, RunMetrics, Value};
use h2_core::{BasisMethod, BuilderStrategy, H2Config, H2Matrix, MemoryMode};
use h2_dist::net::{run_worker, BoundCoordinator, NetConfig};
use h2_dist::{wire::HELLO_FRAME_BYTES, ShardedH2};
use h2_kernels::{Coulomb, Exponential, Gaussian, Kernel};
use h2_linalg::scalar::bits;
use h2_points::gen::Distribution3d;
use std::time::Instant;
use std::{cell::Cell, sync::Arc};

struct Spec {
    name: &'static str,
    /// n at laptop scale, at `--full` and for `--check` (none: no
    /// miniature). One laptop size makes a single-size experiment.
    sizes: [&'static [usize]; 3],
    /// Default tolerance at laptop scale, at `--full` and for `--check`.
    tol: [f64; 3],
    /// `{n}`, `{tol}` and `{cores}` are filled in.
    title: &'static str,
    /// Runs the experiment and returns its `--json` document.
    run: fn(&Ctx) -> Value,
}

/// The n sweep of Figs. 4, 6 and 9 at `--full`.
const PAPER_N: &[usize] = &[20_000, 80_000, 320_000];

static SPECS: &[Spec] = &[
    Spec {
        name: "table1",
        sizes: [&[10_000], &[320_000], &[4_000]],
        tol: [1e-8, 1e-8, 1e-5],
        title: "Table I: n={n}, cube, Coulomb, tol={tol}",
        run: table1,
    },
    Spec {
        name: "fig2",
        sizes: [&[4_000], &[10_000], &[4_000]],
        tol: [1e-7, 1e-7, 1e-5],
        title: "Fig. 2 rank map: n={n}, cube 3D, Coulomb, tol={tol}",
        run: fig2,
    },
    Spec {
        name: "fig3",
        sizes: [&[2_000], &[10_000], &[]],
        tol: [0.0; 3],
        title: "Fig. 3 hierarchical sampling: n={n}, 2D unit square",
        run: fig3,
    },
    Spec {
        name: "fig4",
        sizes: [&[5000, 10000, 20000, 40000], PAPER_N, &[4000]],
        tol: [1e-8, 1e-8, 1e-5],
        title: "Fig. 4: distributions, on-the-fly, Coulomb, tol={tol}",
        run: fig4,
    },
    Spec {
        name: "fig5",
        sizes: [&[5_000, 20_000], &[10_000, 40_000, 160_000], &[10_000]],
        tol: [1e-8, 1e-8, 1e-5],
        title: "Fig. 5: dimension scaling, on-the-fly, Coulomb, tol={tol}",
        run: fig5,
    },
    Spec {
        name: "fig6",
        sizes: [&[2_000, 5_000, 10_000, 20_000], PAPER_N, &[]],
        // 1e-6 (order-6 interpolation) keeps interpolation/normal in
        // laptop memory; `--full` restores the paper's 1e-8.
        tol: [1e-6, 1e-8, 0.0],
        title: "Fig. 6: cumulative effects, cube, Coulomb, tol={tol}",
        run: fig6,
    },
    Spec {
        name: "fig7",
        sizes: [&[40_000], &[1_000_000], &[8_000]],
        tol: [1e-8; 3],
        title: "Fig. 7: thread scaling, n={n}, cube, on-the-fly, tol={tol}, 3 reps\n\
                host parallelism: {cores}",
        run: fig7,
    },
    Spec {
        name: "fig8",
        sizes: [&[10_000], &[80_000], &[]],
        tol: [0.0; 3],
        title: "Fig. 8: accuracy sweep, n={n}, cube, on-the-fly, Coulomb",
        run: fig8,
    },
    Spec {
        name: "fig9",
        sizes: [&[5_000, 10_000, 20_000], PAPER_N, &[4_000]],
        tol: [1e-8, 1e-8, 1e-5],
        title: "Fig. 9: kernel generality, cube, on-the-fly, tol={tol}",
        run: fig9,
    },
    Spec {
        name: "amortization",
        sizes: [&[10_000], &[80_000], &[]],
        tol: [1e-6, 1e-6, 0.0],
        title: "Amortization analysis: n={n}, cube, Coulomb, tol={tol}",
        run: amortization,
    },
    Spec {
        name: "build_ablation",
        sizes: [&[10_000], &[60_000], &[8_000]],
        tol: [1e-6; 3],
        title: "Build ablation: n={n}, cube, tol={tol}",
        run: build_ablation,
    },
    Spec {
        name: "profile",
        sizes: [&[6_000], &[40_000], &[]],
        tol: [1e-6; 3],
        title: "Profile: n={n}, cube, Coulomb, tol={tol}",
        run: profile,
    },
    Spec {
        name: "dist",
        sizes: [&[6_000], &[40_000], &[4_000]],
        tol: [1e-6; 3],
        title:
            "Distributed products: n={n}, cube, Coulomb, tol={tol}, channel mesh and loopback TCP",
        run: dist,
    },
];

/// The experiments whose `--check` runs alone and ends in its own marker;
/// `paper all --check` runs every other miniature.
const MARKED: [(&str, &str); 3] = [
    ("fig7", "FIG7_THREADS_CHECK_OK"),
    ("build_ablation", "BUILD_ABLATION_CHECK_OK"),
    ("dist", "DIST_CHECK_OK"),
];

/// A printed column: header and cell.
type Col = (&'static str, fn(&RunMetrics) -> String);

const N: Col = ("n", |m| m.n.to_string());
const T_CONST: Col = ("T_const(ms)", |m| table::ms(m.t_const_ms));
const T_MV: Col = ("T_mv(ms)", |m| table::ms(m.t_mv_ms));
const MEM: Col = ("mem(KiB)", |m| table::kib(m.mem_kib));
const ERR: Col = ("rel err", |m| table::err(m.rel_err));
const RANK: Col = ("max rank", |m| m.max_rank.to_string());
/// The columns of the n sweeps.
const SWEEP: [Col; 5] = [N, T_CONST, T_MV, MEM, ERR];

/// One experiment's run: its spec and the sizes and tolerance in force.
struct Ctx<'a> {
    spec: &'a Spec,
    args: &'a Args,
    sizes: Vec<usize>,
    /// The first size: the one n of a single-size experiment.
    n: usize,
    tol: f64,
    /// Shape checks failed and passed so far.
    checks: &'a Cell<[usize; 2]>,
}

impl Ctx<'_> {
    /// Runs every case through [`run_config`] and prints one row each
    /// (no table without `cols`); checks that every operator had admissible
    /// pairs.
    fn rows(&self, labels: &[&str], cols: &[Col], cases: Vec<Case>) -> Vec<RunMetrics> {
        self.rows_with(labels, cols, cases, |_, _, _| ())
    }

    /// [`Self::rows`], handing `each` every row, its operator and its probe
    /// product.
    fn rows_with(
        &self,
        labels: &[&str],
        cols: &[Col],
        cases: Vec<Case>,
        mut each: impl FnMut(&RunMetrics, H2Matrix, Vec<f64>),
    ) -> Vec<RunMetrics> {
        let mut headers = labels.to_vec();
        headers.extend(cols.iter().map(|col| col.0));
        let (mut t, mut rows) = (Table::new(&headers), Vec::new());
        for case in cases {
            let (m, h2, y) = run_config(&case, self.args.seed);
            let mut cells = case.cells;
            cells.extend(cols.iter().map(|col| (col.1)(&m)));
            t.row(cells);
            each(&m, h2, y);
            rows.push(m);
        }
        if !cols.is_empty() {
            t.print();
        }
        self.admissible(&rows);
        rows
    }

    /// Prints and counts one shape check under `--check`.
    fn check(&self, name: &str, pass: bool, detail: String) {
        if self.args.check {
            let verdict = if pass { "PASS" } else { "FAIL" };
            println!("[{verdict}] {name:<40} {detail}");
            let mut tally = self.checks.get();
            tally[usize::from(pass)] += 1;
            self.checks.set(tally);
        }
    }

    /// [`Self::check`] that also holds outside `--check`: a failure ends
    /// the run with exit code 1.
    fn require(&self, name: &str, pass: bool, detail: String) {
        self.check(name, pass, detail.clone());
        if !pass {
            eprintln!("FAIL: {name} {detail}");
            std::process::exit(1);
        }
    }

    /// The check every miniature makes of every operator it builds.
    fn admissible(&self, rows: &[RunMetrics]) {
        let fewest = rows.iter().map(|m| m.admissible_pairs).min().unwrap_or(0);
        let name = format!("{}: admissible pairs in every operator", self.spec.name);
        self.check(&name, fewest > 0, format!("fewest {fewest}"));
    }

    /// `group`'s data-driven row is within 10x the tolerance.
    fn under(&self, name: &str, rows: &[RunMetrics], group: &str) {
        let err = row(rows, &format!("{group}/data-driven")).rel_err;
        let detail = format!("{group} err {err:.1e}");
        self.check(name, err < self.tol * 10.0, detail);
    }
}

fn row<'a>(rows: &'a [RunMetrics], label: &str) -> &'a RunMetrics {
    let found = rows.iter().find(|m| m.label == label);
    found.unwrap_or_else(|| panic!("no {label} row"))
}

/// The first label cell of a row.
fn lead(m: &RunMetrics) -> &str {
    m.label.split('/').next().unwrap_or_default()
}

fn methods(tol: f64, dim: usize) -> [(&'static str, BasisMethod); 2] {
    let dd = BasisMethod::data_driven_for_tol(tol, dim);
    let interp = BasisMethod::interpolation_for_tol(tol, dim);
    [("data-driven", dd), ("interpolation", interp)]
}

fn otf(basis: BasisMethod) -> H2Config {
    let mut cfg = H2Config::default();
    (cfg.basis, cfg.mode) = (basis, MemoryMode::OnTheFly);
    cfg
}

fn cells(cells: &[&dyn std::fmt::Display]) -> Vec<String> {
    cells.iter().map(|c| c.to_string()).collect()
}

/// Both methods on the fly for every `(label, group)`, over the sizes
/// `keep(group, method, n)` allows; `set(case, group, method)` applies it.
fn grid<G>(
    c: &Ctx,
    groups: impl IntoIterator<Item = (String, G)>,
    keep: impl Fn(&G, usize, usize) -> bool,
    set: impl Fn(&mut Case, &G, usize),
) -> Vec<Case> {
    let mut out = Vec::new();
    for (label, group) in groups {
        for (i, (method, basis)) in methods(c.tol, 3).into_iter().enumerate() {
            for &n in c.sizes.iter().filter(|&&n| keep(&group, i, n)) {
                let mut case = Case::new(cells(&[&label, &method]), n, otf(basis.clone()));
                set(&mut case, &group, i);
                out.push(case);
            }
        }
    }
    out
}

fn table1(c: &Ctx) -> Value {
    let mut cases = Vec::new();
    for (label, cfg) in paper_configs(c.tol, 3) {
        // Interpolation/normal at 320k needs ~60 GiB (paper Table I).
        if label == "interpolation/normal" && c.n > 40_000 {
            eprintln!("skipping {label} at n={}: needs paper-class memory", c.n);
            continue;
        }
        let cells = label.split('/').map(String::from).collect();
        cases.push(Case::new(cells, c.n, cfg));
    }
    let cols = [T_CONST, T_MV, ("Memory(KiB)", MEM.1), ERR];
    let rows = c.rows(&["Basis", "Memory"], &cols, cases);
    let dotf = row(&rows, "data-driven/on-the-fly");
    let find = |label| rows.iter().find(|m| m.label == label);
    if let Some(i) = find("interpolation/normal") {
        let x = i.mem_kib / dotf.mem_kib;
        println!(
            "\nheadline: interpolation/normal -> data-driven/on-the-fly memory reduction: {x:.1}x"
        );
    }
    if let Some(d) = find("data-driven/normal") {
        let mem = d.mem_kib / dotf.mem_kib;
        let (mv, build) = (dotf.t_mv_ms / d.t_mv_ms, d.t_const_ms / dotf.t_const_ms);
        println!("data-driven normal -> on-the-fly: memory {mem:.1}x down, matvec {mv:.2}x up, construction {build:.2}x down");
    }
    let mem = dotf.mem_kib;
    let best = rows.iter().map(|r| r.mem_kib).fold(mem, f64::min);
    let detail = format!("{mem:.0} KiB vs best {best:.0} KiB");
    c.check("table1: dd/otf least memory", mem <= best * 1.001, detail);
    let all_under = rows.iter().all(|r| r.rel_err < c.tol * 100.0);
    c.check(
        "table1: all errors within 100x target",
        all_under,
        errs(&rows, 0),
    );
    rows.into()
}

/// `label=err` for every row, the error to `digits` digits.
fn errs(rows: &[RunMetrics], digits: usize) -> String {
    let err = |r: &RunMetrics| format!("{}={:.*e}", r.label, digits, r.rel_err);
    rows.iter().map(err).collect::<Vec<_>>().join(" ")
}

/// Fig. 2: both bases' ranks per tree level and over the admissible pairs.
fn fig2(c: &Ctx) -> Value {
    let seed = c.args.seed;
    let run = |basis| run_config(&Case::new(vec![], c.n, otf(basis)), seed);
    let [(dd_m, dd, _), (interp_m, interp, _)] = methods(c.tol, 3).map(|(_, basis)| run(basis));
    let [err_dd, err_in] =
        [&dd, &interp].map(|h2| h2_core::error_est::measured_rel_error(h2, seed));
    println!("measured error: data-driven {err_dd:.2e}, interpolation {err_in:.2e}\n");

    // Both trees are built identically.
    let headers = "level,nodes,dd rank (mean),dd rank (max),interp rank";
    let mut t = Table::new(&headers.split(',').collect::<Vec<_>>());
    let levels = h2_core::diagnostics::structure_report(&dd).levels;
    for (l, nodes) in levels.iter().zip(dd.tree().levels()) {
        let (level, count, max) = (l.level, l.nodes, l.max_rank);
        let (mean, interp_rank) = (format!("{:.1}", l.mean_rank), interp.rank(nodes[0]));
        t.row(cells(&[&level, &count, &mean, &max, &interp_rank]));
    }
    t.print();

    // Block-level summary over admissible pairs (what the figure colours).
    let rank = |h2: &h2_core::H2Matrix, i: usize, j: usize| h2.rank(i).min(h2.rank(j));
    let pairs = &dd.lists().interaction_pairs;
    let sum = |h2| pairs.iter().map(|&(i, j)| rank(h2, i, j)).sum::<usize>() as f64;
    let count = pairs.len().max(1) as f64;
    let (dd_mean, in_mean) = (sum(&dd) / count, sum(&interp) / count);
    let (admissible, nearfield) = (pairs.len(), dd.lists().nearfield_pairs.len());
    println!("\nadmissible pairs: {admissible}  nearfield pairs: {nearfield}");
    println!("mean block rank: data-driven {dd_mean:.1}, interpolation {in_mean:.1}");
    println!("rank reduction factor: {:.1}x", in_mean / dd_mean.max(1e-9));

    json_record! {
        struct PairRank {
            i: usize, j: usize, level_i: usize, level_j: usize,
            dd_rank: usize, interp_rank: usize, width: usize, nproc: usize,
            simd: String, commit: String,
        }
    }
    let (level, width, nproc) = (|i: usize| dd.tree().node(i).level, dd_m.width, dd_m.nproc);
    let pair = |&(i, j): &(usize, usize)| {
        let (level_i, level_j) = (level(i), level(j));
        let (dd_rank, interp_rank) = (rank(&dd, i, j), rank(&interp, i, j));
        PairRank {
            i,
            j,
            level_i,
            level_j,
            dd_rank,
            interp_rank,
            width,
            nproc,
            simd: dd_m.simd.clone(),
            commit: dd_m.commit.clone(),
        }
    };
    let pairs: Vec<PairRank> = pairs.iter().map(pair).collect();
    let (dd_rank, in_rank) = (dd_m.max_rank, interp.ranks()[0]);
    c.admissible(&[dd_m, interp_m]);
    let detail = format!("dd {dd_rank} vs interp {in_rank}");
    c.check("fig2: dd rank < interp rank", dd_rank < in_rank, detail);
    pairs.into()
}

/// Fig. 3: the anchor-net samples of every leaf of a 2-D set, and the
/// farfield samples of its bottom-left corner leaf.
fn fig3(c: &Ctx) -> Value {
    use h2_points::tree::{ClusterTree, TreeParams};
    let pts = h2_points::gen::uniform_cube(c.n, 2, c.args.seed);
    let tree = ClusterTree::build(&pts, TreeParams::with_leaf_size(64));
    let lists = h2_points::admissibility::build_block_lists(&tree, 0.7);
    let mut params = h2_sampling::SampleParams::default();
    (params.node_samples, params.far_samples) = (12, 40);
    let samples = h2_sampling::hierarchical_sample(&tree, &lists, &params);
    let leaves = tree.leaves();
    let total: usize = leaves.iter().map(|&l| samples.x_star[l].len()).sum();
    let (count, per_leaf) = (leaves.len(), total as f64 / leaves.len() as f64);
    println!(
        "(a) leaf samples X_i*: {count} leaves, {total} samples total ({per_leaf:.1} per leaf)"
    );

    let corner_sum = |l: &&usize| tree.node(**l).bbox.center().iter().sum::<f64>();
    let corner = leaves
        .iter()
        .min_by(|a, b| corner_sum(a).total_cmp(&corner_sum(b)));
    let corner = *corner.expect("a tree has leaves");
    let (node, y) = (tree.node(corner), &samples.y_star[corner]);
    let (size, far) = (node.len(), y.len());
    println!("(b) corner node {corner}: |X_i| = {size}, farfield samples |Y_i*| = {far}");
    // Farfield samples must keep away from the node itself.
    let dist = |&p: &usize| h2_points::pointset::dist(pts.point(p), &node.bbox.center());
    let min_d = y.iter().map(dist).fold(f64::INFINITY, f64::min);
    println!("    nearest farfield sample at distance {min_d:.3} from the node center");

    json_record! {
        struct Dump {
            points: Vec<Vec<f64>>, leaf_samples: Vec<Vec<f64>>, corner_node_points: Vec<Vec<f64>>,
            corner_farfield_samples: Vec<Vec<f64>>, width: usize, nproc: usize,
            simd: String, commit: String,
        }
    }
    let coords =
        |idx: &mut dyn Iterator<Item = &usize>| idx.map(|&i| pts.point(i).to_vec()).collect();
    let all: Vec<usize> = (0..pts.len()).collect();
    let dump = Dump {
        points: coords(&mut all.iter()),
        leaf_samples: coords(&mut leaves.iter().flat_map(|&l| &samples.x_star[l])),
        corner_node_points: coords(&mut tree.node_indices(corner).iter()),
        corner_farfield_samples: coords(&mut y.iter()),
        width: h2_linalg::exec::width(),
        nproc: std::thread::available_parallelism().map_or(1, |v| v.get()),
        simd: h2_linalg::simd::widest().into(),
        commit: h2_bench::commit(),
    };
    dump.into()
}

fn fig4(c: &Ctx) -> Value {
    // Interpolation at ~1e-8 has rank order^3 = 512: unless --sizes says
    // otherwise its sweep stops lower, as the paper's own runs did.
    let cap = if c.args.full { 80_000 } else { 20_000 };
    let keep = |_: &_, i, n| i == 0 || c.args.sizes.is_some() || n <= cap;
    let set = |case: &mut Case, dist: &Distribution3d, _| case.dist = *dist;
    let dists = [
        Distribution3d::Cube,
        Distribution3d::Sphere,
        Distribution3d::Dino,
    ];
    let cases = grid(c, dists.map(|d| (d.name().into(), d)), keep, set);
    let rows = c.rows(&["dist", "method"], &SWEEP, cases);
    for dist in dists {
        c.under("fig4: distribution under tolerance", &rows, dist.name());
    }
    rows.into()
}

/// Fig. 5's interpolation order: the tolerance's, but at most 5 in 4-D and
/// 4 in 5-D, where the tensor rank order^d forces a cap (the paper hit the
/// same wall at scale).
fn fig5_order(tol: f64, dim: usize) -> usize {
    let BasisMethod::Interpolation { order } = methods(tol, dim)[1].1 else {
        unreachable!("the second method is interpolation")
    };
    match dim {
        0..=3 => order,
        4 => order.min(5),
        _ => order.min(4),
    }
}

fn fig5(c: &Ctx) -> Value {
    // Beyond 3-D interpolation runs only the smallest size, and not at all
    // in a miniature (2 GiB in 5-D).
    let keep = |&dim: &_, i, n| i == 0 || dim <= 3 || n <= c.sizes[0] && !c.args.check;
    let set = |case: &mut Case, &dim: &usize, i: usize| {
        let [(_, dd), _] = methods(c.tol, dim);
        let order = fig5_order(c.tol, dim);
        let bases = [dd, BasisMethod::Interpolation { order }];
        (case.dim, case.cfg.basis) = (dim, bases[i].clone());
    };
    let cols = [N, ("rank", RANK.1), T_CONST, T_MV, MEM, ERR];
    let dims = (2..=5).map(|d| (d.to_string(), d));
    let rows = c.rows(&["dim", "method"], &cols, grid(c, dims, keep, set));
    let (o4, o5) = (fig5_order(c.tol, 4), fig5_order(c.tol, 5));
    println!("\nnote: interpolation order capped to {o4} in 4D / {o5} in 5D (rank = order^d);");
    println!("the paper likewise could not run interpolation at its largest high-D sizes.");
    c.under("fig5: 5-D data-driven under tolerance", &rows, "5");
    rows.into()
}

fn fig6(c: &Ctx) -> Value {
    let mut cases = Vec::new();
    for (label, cfg) in paper_configs(c.tol, 3) {
        // Interpolation/normal stores rank^2 coupling blocks; the paper
        // needed 128 GB for its 320k run.
        let fits = |n: usize| label != "interpolation/normal" || c.args.full || n <= 10_000;
        for &n in c.sizes.iter().filter(|&&n| fits(n)) {
            cases.push(Case::new(vec![label.clone()], n, cfg.clone()));
        }
    }
    c.rows(&["config"], &SWEEP, cases).into()
}

/// Fig. 7: every build and product runs at each width, `REPS` times.
/// Operators and products are bitwise identical at every width. The 2-thread
/// ratios are information: single-shot wall clocks on a shared host are no
/// gate (h2bench's bounds are).
fn fig7(c: &Ctx) -> Value {
    const REPS: usize = 3;
    let widths = c.args.threads.clone().unwrap_or_else(|| vec![1, 2, 4, 8]);
    let mut cases = Vec::new();
    for (method, basis) in methods(c.tol, 3) {
        for &width in &widths {
            let mut case = Case::new(cells(&[&method, &width]), c.n, otf(basis.clone()));
            (case.width, case.reps) = (width, REPS);
            cases.push(case);
        }
    }
    // Fig. 7c: each thread regenerates one block at a time.
    let concurrent = |m: &RunMetrics| table::kib(m.width as f64 * m.max_otf_block_kib);
    let cols = [T_CONST, T_MV, MEM, ("concurrent OTF(KiB)", concurrent)];
    let mut first: Vec<(String, Vec<f64>)> = Vec::new();
    let same = |m: &RunMetrics, _, y: Vec<f64>| match first.iter().find(|f| f.0 == lead(m)) {
        Some((method, y0)) => assert!(*y0 == y, "{method}: the thread count changed the result"),
        None => first.push((lead(m).into(), y)),
    };
    let rows = c.rows_with(&["method", "threads"], &cols, cases, same);
    for group in rows.chunks(widths.len()) {
        let method = lead(&group[0]);
        if c.args.check {
            let one = row(&rows, &format!("{method}/1"));
            let two = row(&rows, &format!("{method}/2"));
            let (mv, build) = (two.t_mv_ms / one.t_mv_ms, two.t_const_ms / one.t_const_ms);
            println!("{method}: T_mv(2) / T_mv(1) = {mv:.2}");
            println!("{method}: T_const(2) / T_const(1) = {build:.2}");
        }
    }
    rows.into()
}

fn fig8(c: &Ctx) -> Value {
    let mut cases = Vec::new();
    for tol in [1e-2, 1e-4, 1e-6, 1e-8, 1e-10] {
        for (method, basis) in methods(tol, 3) {
            let label = cells(&[&method, &format_args!("{tol:.0e}")]);
            cases.push(Case::new(label, c.n, otf(basis)));
        }
    }
    let cols = [("measured err", ERR.1), T_CONST, T_MV, MEM, RANK];
    c.rows(&["method", "target tol"], &cols, cases).into()
}

fn fig9(c: &Ctx) -> Value {
    let caps = [usize::MAX, if c.args.full { 80_000 } else { 10_000 }];
    let kernels = h2_kernels::paper_kernels();
    let names: Vec<&str> = kernels.iter().map(|k| k.0).collect();
    let kernels = kernels
        .into_iter()
        .map(|(name, k)| (name.into(), Arc::from(k)));
    let set = |case: &mut Case, kernel: &Arc<dyn Kernel>, _| case.kernel = kernel.clone();
    let cases = grid(c, kernels, |_, i, n| n <= caps[i], set);
    let rows = c.rows(&["kernel", "method"], &SWEEP, cases);
    for kernel in names {
        c.under("fig9: kernel under tolerance", &rows, kernel);
    }
    rows.into()
}

/// §VI-B: break-even k* = (T_const^normal − T_const^otf) / (T_mv^otf −
/// T_mv^normal), and the total time of construction + k products.
fn amortization(c: &Ctx) -> Value {
    let mut cases = Vec::new();
    for (method, basis) in methods(c.tol, 3) {
        for mode in [MemoryMode::Normal, MemoryMode::OnTheFly] {
            let mut cfg = otf(basis.clone());
            cfg.mode = mode;
            cases.push(Case::new(cells(&[&method, &mode.name()]), c.n, cfg));
        }
    }
    let rows = c.rows(&["method", "mode"], &[], cases);
    let headers = "method,T_const normal,T_const otf,T_mv normal,T_mv otf,break-even k*";
    let mut t = Table::new(&headers.split(',').collect::<Vec<_>>());
    for pair in rows.chunks(2) {
        let (n, o, method) = (&pair[0], &pair[1], lead(&pair[0]));
        let (dconst, dmv) = (n.t_const_ms - o.t_const_ms, o.t_mv_ms - n.t_mv_ms);
        let breakeven = match (dmv > 0.0, dconst > 0.0) {
            (true, true) => format!("{:.0}", dconst / dmv),
            (false, _) => "otf dominates".to_string(),
            (true, false) => "normal dominates".to_string(),
        };
        let mut cells = vec![method.to_string()];
        cells.extend([n.t_const_ms, o.t_const_ms, n.t_mv_ms, o.t_mv_ms].map(table::ms));
        cells.push(breakeven);
        t.row(cells);
        println!("{method}: total time (construction + k matvecs), ms");
        for k in [1usize, 10, 100, 1000] {
            let (tn, to) = (
                n.t_const_ms + k as f64 * n.t_mv_ms,
                o.t_const_ms + k as f64 * o.t_mv_ms,
            );
            let winner = if tn < to { "normal" } else { "on-the-fly" };
            println!("  k={k:<5} normal {tn:>10.0}   otf {to:>10.0}   -> {winner}");
        }
        println!();
    }
    t.print();
    rows.into()
}

/// Both builders meet the tolerance, and sketched ranks stay within 1.25x
/// of anchor-net's. The build-time ratio is printed, not gated: a
/// single-shot ordering would flake.
fn build_ablation(c: &Ctx) -> Value {
    let mut anchor = otf(BasisMethod::data_driven_for_tol(c.tol, 3));
    anchor.seed = c.args.seed;
    // The sketched builder ignores `cfg.basis`.
    let mut sketched = anchor.clone();
    sketched.builder = BuilderStrategy::sketched_for_tol(c.tol, 3);
    let kernels: [(&str, Arc<dyn Kernel>); 3] = [
        ("coulomb", Arc::new(Coulomb)),
        ("gaussian", Arc::new(Gaussian::paper())),
        ("exp", Arc::new(Exponential)),
    ];
    let mut cases = Vec::new();
    for (kernel, k) in &kernels[..if c.args.check { 1 } else { 3 }] {
        for (name, cfg) in [("anchor-net", &anchor), ("sketched", &sketched)] {
            let mut case = Case::new(cells(&[kernel, &name]), c.n, cfg.clone());
            (case.kernel, case.salt) = (k.clone(), 0xAB1A);
            cases.push(case);
        }
    }
    let cols: [Col; 9] = [
        ("T_build", T_CONST.1),
        ("sampling", |m| table::ms(m.sampling_ms)),
        ("basis", |m| table::ms(m.basis_ms)),
        ("T_mv", T_MV.1),
        RANK,
        ("mean leaf", |m| format!("{:.1}", m.mean_leaf_rank)),
        ("mem KiB", |m| format!("{:.1}", m.mem_kib)),
        ("rel err", |m| format!("{:.2e}", m.rel_err)),
        ("retries", |m| m.sketch_retries.to_string()),
    ];
    let rows = c.rows(&["kernel", "builder"], &cols, cases);
    let mut ratios = Vec::new();
    for pair in rows.chunks(2) {
        let (anchor, sketch, kernel) = (&pair[0], &pair[1], lead(&pair[0]));
        let max = sketch.max_rank as f64 / anchor.max_rank.max(1) as f64;
        let leaf = sketch.mean_leaf_rank / anchor.mean_leaf_rank.max(1e-12);
        let wall = sketch.t_const_ms / anchor.t_const_ms;
        let samples = sketch.sketch_samples;
        println!("\n{kernel}: sketched build {wall:.2}x anchor-net wall, max rank {max:.2}x, mean leaf rank {leaf:.2}x, {samples} sampled entries");
        ratios.extend([max, leaf]);
    }
    print!("{}", h2_telemetry::snapshot().prometheus_text());
    let (within, errs) = (rows.iter().all(|r| r.rel_err <= c.tol), errs(&rows, 2));
    c.check("build_ablation: both builders within tol", within, errs);
    let (ranks, detail) = (ratios.iter().all(|&r| r <= 1.25), format!("{ratios:.2?}"));
    c.check("build_ablation: sketched ranks <= 1.25x", ranks, detail);
    rows.into()
}

/// §VI's phase breakdown; its gates fail the run in every mode.
fn profile(c: &Ctx) -> Value {
    let reps = if c.args.full { 5 } else { 3 };
    let summary = h2_bench::profile::run(c.args, c.n, c.tol, reps);
    summary.unwrap_or_else(|e| {
        eprintln!("FAIL: {e}");
        std::process::exit(1)
    })
}

json_record! {
    /// One (mode, shards) cell of `paper dist`.
    struct DistRow {
        mode: String,
        shards: usize,
        /// The tree level the shards are cut at.
        level: usize,
        /// One product over the channel mesh and over TCP, ms, and the
        /// channel mesh's products per second.
        matvec_ms: f64,
        tcp_matvec_ms: f64,
        throughput: f64,
        /// Modeled one-time setup traffic: bases, and blocks or generators.
        setup_bytes: u64,
        /// The channel mesh's bytes and messages per product, its
        /// handshake model included.
        matvec_bytes: u64,
        messages: u64,
        /// Bytes and messages per sweep without the handshakes, measured
        /// over TCP and modeled by the channel mesh: equal, asserted.
        tcp_sweep_bytes: u64,
        chan_sweep_bytes: u64,
        tcp_sweep_messages: u64,
        chan_sweep_messages: u64,
        /// The deployment's one-time handshake bytes, every link both ways.
        handshake_bytes: u64,
        /// The channel mesh's max-over-shards phase seconds and the
        /// coordinator's top-tree seconds.
        upward_s: f64,
        exchange_s: f64,
        horizontal_s: f64,
        downward_s: f64,
        leaf_s: f64,
        top_s: f64,
        /// The operator's sampled relative error (§IV).
        rel_err: f64,
        simd: String,
        commit: String,
    }
}

/// The sharded product of both memory modes at 1, 2, 4 and 8 shards. Each
/// cell runs the channel mesh of `h2-dist` and a loopback-TCP deployment
/// of `h2_dist::net` (worker threads, each a real socket endpoint speaking
/// `h2serve shard-worker`'s protocol) on one operator. Both products equal
/// the serial one bit for bit, and the sockets' bytes and messages per
/// sweep equal the mesh's model once the handshakes are subtracted; each
/// is checked in every run.
fn dist(c: &Ctx) -> Value {
    let (reps, salt) = ([3, 5, 1][c.args.scale()], 0xd15);
    let b = h2_core::error_est::probe_vector(c.n, c.args.seed ^ salt);
    let mut cases = Vec::new();
    for mode in [MemoryMode::Normal, MemoryMode::OnTheFly] {
        let mut cfg = otf(BasisMethod::data_driven_for_tol(c.tol, 3));
        cfg.mode = mode;
        let mut case = Case::new(vec![mode.name().into()], c.n, cfg);
        case.salt = salt;
        cases.push(case);
    }
    let mut rows = Vec::new();
    let headers = "shards,level,chan ms,tcp ms,mv/s,setup KB,wire KB/mv,msgs,sweep KB,sweep msgs,handshake B,exch ms,top ms";
    let headers: Vec<&str> = headers.split(',').collect();
    c.rows_with(&["mode"], &[], cases, |m, h2, serial| {
        let (h2, mut t) = (Arc::new(h2), Table::new(&headers));
        for shards in [1, 2, 4, 8] {
            let Some(row) = dist_cell(c, m, &h2, &b, &serial, shards, reps) else {
                continue;
            };
            let kb = |bytes: u64| format!("{:.1}", bytes as f64 / 1024.0);
            let ms = |ms: f64| format!("{ms:.2}");
            t.row(vec![
                shards.to_string(),
                row.level.to_string(),
                ms(row.matvec_ms),
                ms(row.tcp_matvec_ms),
                format!("{:.0}", row.throughput),
                kb(row.setup_bytes),
                kb(row.matvec_bytes),
                row.messages.to_string(),
                kb(row.tcp_sweep_bytes),
                row.tcp_sweep_messages.to_string(),
                row.handshake_bytes.to_string(),
                ms(row.exchange_s * 1e3),
                ms(row.top_s * 1e3),
            ]);
            rows.push(row);
        }
        println!("mode = {}", m.label);
        t.print();
        println!();
    });
    rows.into()
}

/// One [`DistRow`], or none when `h2` cannot be cut into `shards`.
fn dist_cell(
    c: &Ctx,
    m: &RunMetrics,
    h2: &Arc<H2Matrix>,
    b: &[f64],
    serial: &[f64],
    shards: usize,
    reps: usize,
) -> Option<DistRow> {
    let what = format!("dist: {} x{shards}", m.label);
    let mesh = ShardedH2::new(h2.clone(), shards)
        .map_err(|e| eprintln!("skip {what}: {e}"))
        .ok()?;
    // A warm-up product, then `reps` timed ones; the stats are the last's.
    let (y_chan, _) = mesh.matvec_with_stats(b);
    let t0 = Instant::now();
    let chan = (0..reps).map(|_| mesh.matvec_with_stats(b).1).last();
    let matvec_ms = t0.elapsed().as_secs_f64() * 1e3 / reps as f64;
    let chan = chan.expect("reps is positive");

    // The deployment: a bound coordinator and worker threads over loopback.
    let bound = BoundCoordinator::bind(h2.clone(), shards, NetConfig::default());
    let bound = bound.expect("bind coordinator");
    let worker = |rank| {
        let (h2, addr) = (h2.clone(), bound.addr());
        std::thread::spawn(move || run_worker(&h2, rank, shards, &addr, NetConfig::default()))
    };
    let workers: Vec<_> = (0..shards).map(worker).collect();
    let coord = bound.accept().expect("admit workers");
    // The warm-up sweep pays the plan and the handshakes; the traffic
    // after it is sweep frames only.
    let y_tcp = coord.try_matvec(b).expect("distributed matvec");
    let before = coord.traffic();
    let t0 = Instant::now();
    (0..reps).for_each(|_| drop(coord.try_matvec(b).expect("timed sweep")));
    let tcp_matvec_ms = t0.elapsed().as_secs_f64() * 1e3 / reps as f64;
    let after = coord.traffic();
    coord.shutdown().expect("clean drain");

    // Per sweep: the coordinator's timed delta, plus each worker's lifetime
    // totals less its one hello per link (the coordinator and the other
    // `shards - 1` workers), over its `reps + 1` sweeps.
    let (reps, sweeps, s) = (reps as u64, reps as u64 + 1, shards as u64);
    let mut tcp_sweep_bytes = (after.sent_bytes - before.sent_bytes) / reps;
    let mut tcp_sweep_messages = (after.sent_messages - before.sent_messages) / reps;
    for w in workers {
        let r = w.join().expect("worker thread").expect("worker drained");
        assert_eq!(r.sweeps, sweeps, "{what}: rank {} sweep count", r.rank);
        tcp_sweep_bytes += (r.traffic.sent_bytes - s * HELLO_FRAME_BYTES) / sweeps;
        tcp_sweep_messages += (r.traffic.sent_messages - s) / sweeps;
    }
    // The channel mesh charges the same handshake model on every product
    // (its endpoints are per call): one hello each way between every two
    // of the `s + 1` ranks.
    let handshakes = (s + 1) * s;
    let handshake_bytes = handshakes * HELLO_FRAME_BYTES;
    let chan_sweep_bytes = chan.total_bytes() - handshake_bytes;
    let chan_sweep_messages = chan.total_messages() - handshakes;

    let same = bits(&y_chan) == bits(serial) && bits(&y_tcp) == bits(serial);
    c.require(
        &format!("{what}: channel ≡ TCP ≡ serial"),
        same,
        String::new(),
    );
    let detail = format!("{tcp_sweep_bytes} B, {tcp_sweep_messages} msgs");
    let parity = (tcp_sweep_bytes, tcp_sweep_messages) == (chan_sweep_bytes, chan_sweep_messages);
    let model = format!(", model {chan_sweep_bytes} B, {chan_sweep_messages} msgs");
    c.require(
        &format!("{what}: sweep traffic = model"),
        parity,
        detail + &model,
    );
    let phases = chan.max_phases();
    Some(DistRow {
        mode: m.label.clone(),
        shards,
        level: mesh.level(),
        matvec_ms,
        tcp_matvec_ms,
        throughput: 1e3 / matvec_ms,
        setup_bytes: mesh.setup_bytes(),
        matvec_bytes: chan.total_bytes(),
        messages: chan.total_messages(),
        tcp_sweep_bytes,
        chan_sweep_bytes,
        tcp_sweep_messages,
        chan_sweep_messages,
        handshake_bytes,
        upward_s: phases.upward,
        exchange_s: phases.exchange,
        horizontal_s: phases.horizontal,
        downward_s: phases.downward,
        leaf_s: phases.leaf,
        top_s: chan.coordinator.top,
        rel_err: m.rel_err,
        simd: m.simd.clone(),
        commit: m.commit.clone(),
    })
}

/// The usage error, if any, of running `spec` with these flags.
fn validate(spec: &Spec, args: &Args) -> Result<(), String> {
    let name = spec.name;
    let widths = args.threads.as_deref().unwrap_or(&[1, 2]);
    if args.check && spec.sizes[2].is_empty() {
        Err(format!("{name} has no --check"))
    } else if spec.sizes[0].len() == 1 && args.sizes.as_ref().is_some_and(|s| s.len() > 1) {
        Err(format!("{name} runs one size, --sizes gives several"))
    } else if args.threads.is_some() && name != "fig7" {
        Err(format!("--threads is fig7's; {name} runs at full width"))
    } else if args.check && !(widths.contains(&1) && widths.contains(&2)) {
        Err("fig7 --check needs --threads to include 1 and 2".into())
    } else if (args.trace.is_some() || args.builder != "anchor") && name != "profile" {
        Err("--trace and --builder are profile's flags".into())
    } else {
        Ok(())
    }
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let name = argv.next().unwrap_or_default();
    let names: Vec<&str> = SPECS.iter().map(|s| s.name).chain(["all"]).collect();
    if !names.contains(&name.as_str()) {
        let names = names.join(" ");
        eprintln!("paper <experiment> [flags]; the experiments: {names}");
        usage(if matches!(name.as_str(), "-h" | "--help") {
            ""
        } else {
            "unknown experiment"
        });
    }
    let args = Args::parse_from(argv);
    let marked = |s: &Spec| MARKED.iter().any(|m| m.0 == s.name);
    let in_all = |s: &Spec| !s.sizes[2].is_empty() && !marked(s);
    let picked = |s: &&Spec| s.name == name || name == "all" && in_all(s);
    let specs: Vec<&Spec> = SPECS.iter().filter(picked).collect();
    if name == "all" && (!args.check || args.json.is_some()) {
        usage("paper all needs --check and takes no --json");
    }
    if let Some(e) = specs.iter().find_map(|s| validate(s, &args).err()) {
        usage(&e);
    }
    let cores = std::thread::available_parallelism().map_or(1, |v| v.get());
    let checks = Cell::new([0, 0]);
    for spec in specs {
        let (sizes, tol) = (args.sweep(spec.sizes), args.tol_or(spec.tol[args.scale()]));
        let (args, n, checks) = (&args, sizes[0], &checks);
        let title = spec.title.replace("{n}", &n.to_string());
        let title = title.replace("{tol}", &format!("{tol:.0e}"));
        println!("{}\n", title.replace("{cores}", &cores.to_string()));
        let json = (spec.run)(&Ctx {
            spec,
            args,
            sizes,
            n,
            tol,
            checks,
        });
        write_json(&args.json, json);
    }
    if args.check {
        let [failed, passed] = checks.get();
        println!("\n{} checks, {failed} failed", failed + passed);
        if failed > 0 {
            std::process::exit(1);
        }
        let marker = MARKED.iter().find(|m| m.0 == name);
        marker.into_iter().for_each(|m| println!("{}", m.1));
    }
}
