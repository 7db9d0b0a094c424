//! # h2-bench
//!
//! Shared harness for the `paper <experiment>` driver (every table and
//! figure, see DESIGN.md §4) and the `profile`, `dist_scaling` and
//! `net_scaling` binaries. Every binary accepts `--full` (paper-scale
//! sizes), `--json PATH` (rows declared with [`json_record!`], written by
//! [`write_json`]), `--sizes a,b`, `--tol X` and `--seed S`.
//!
//! Measurements follow §IV of the paper: `T_const` (construction, ms),
//! `T_mv` (one matvec, ms), memory (KiB of stored generators), and the
//! relative error over 12 sampled rows; [`run_config`] takes all of them.

pub mod args;
pub mod metrics;
pub mod table;

pub use args::Args;
pub use metrics::{run_config, write_json, Case, RunMetrics};
pub use serde_json::Value;
pub use table::Table;

use h2_core::{BasisMethod, H2Config, MemoryMode};
use std::time::Instant;

/// Declares a row struct that converts into a JSON object holding every
/// field under its own name, in declaration order — the form [`write_json`]
/// takes. Field types are anything `Into<Value>`: numbers, `bool`, `String`,
/// `Vec`s of those, another record, or a [`Value`] built by hand.
#[macro_export]
macro_rules! json_record {
    ($(#[$meta:meta])* $vis:vis struct $name:ident {
        $($(#[$fmeta:meta])* $fvis:vis $field:ident: $ty:ty),* $(,)?
    }) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $ty),*
        }

        impl From<$name> for $crate::Value {
            fn from(r: $name) -> Self {
                $crate::Value::Object(vec![
                    $((stringify!($field).to_string(), r.$field.into())),*
                ])
            }
        }
    };
}

/// Median wall time of `reps` runs of `f`, ms.
pub fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// The commit of the checkout this crate was compiled in (not the working
/// directory's), with `-dirty` appended when a tracked file outside
/// `results/` differs from it, or `"unknown"` outside a checkout. A run
/// that writes its own `results/` files stays clean.
pub fn commit() -> String {
    let git = |args: &[&str]| {
        let mut git = std::process::Command::new("git");
        git.args(["-C", env!("CARGO_MANIFEST_DIR")]).args(args);
        git.output().ok()
    };
    let head = git(&["rev-parse", "HEAD"]).filter(|o| o.status.success());
    let hash = head.map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    // `git diff --quiet` exits 1 when a file differs, 0 when none does.
    let diff = git(&["diff", "--quiet", "HEAD", "--", ":/", ":/!results"]);
    let dirty = diff.is_some_and(|o| o.status.code() == Some(1));
    hash.map_or("unknown".into(), |h| if dirty { h + "-dirty" } else { h })
}

/// Builds the four paper configurations of Fig. 6 / Table I:
/// {data-driven, interpolation} × {normal, on-the-fly}.
pub fn paper_configs(tol: f64, dim: usize) -> Vec<(String, H2Config)> {
    let interp = BasisMethod::interpolation_for_tol(tol, dim);
    let mut out = Vec::new();
    for basis in [interp, BasisMethod::data_driven_for_tol(tol, dim)] {
        for mode in [MemoryMode::Normal, MemoryMode::OnTheFly] {
            let mut cfg = H2Config::default();
            (cfg.basis, cfg.mode) = (basis.clone(), mode);
            out.push((format!("{}/{}", basis.name(), mode.name()), cfg));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_paper_configs() {
        let cfgs = paper_configs(1e-6, 3);
        assert_eq!(cfgs.len(), 4);
        let names: Vec<&str> = cfgs.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"data-driven/on-the-fly"));
        assert!(names.contains(&"interpolation/normal"));
    }
}
