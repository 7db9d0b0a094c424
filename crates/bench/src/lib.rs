//! # h2-bench
//!
//! Shared harness for the paper-reproduction binaries (one per table /
//! figure — see DESIGN.md §4).
//!
//! Every binary accepts:
//!
//! - `--full`       paper-scale problem sizes (needs paper-scale hardware);
//! - `--json PATH`  machine-readable dump of the measured series, written by
//!   [`write_json`] from rows declared with [`json_record!`];
//! - `--sizes a,b`  override the n sweep;
//! - `--tol X`      override the target relative accuracy;
//! - `--seed S`     override the dataset seed.
//!
//! Measurements follow §IV of the paper: `T_const` (construction, ms),
//! `T_mv` (one matvec, ms), memory (KiB of stored generators), and the
//! relative error over 12 sampled rows.

pub mod args;
pub mod metrics;
pub mod table;

pub use args::Args;
pub use metrics::{run_config, write_json, RunMetrics};
pub use serde_json::Value;
pub use table::Table;

use h2_core::{BasisMethod, H2Config, MemoryMode};
use std::time::Instant;

/// The paper's default accuracy ("around 1e-8") used by Figs. 4–7 and 9.
pub const PAPER_TOL: f64 = 1e-8;

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

/// Builds the four paper configurations of Fig. 6 / Table I:
/// {data-driven, interpolation} × {normal, on-the-fly}.
pub fn paper_configs(tol: f64, dim: usize) -> Vec<(String, H2Config)> {
    let mut out = Vec::new();
    for (bname, basis) in [
        (
            "interpolation",
            BasisMethod::interpolation_for_tol(tol, dim),
        ),
        ("data-driven", BasisMethod::data_driven_for_tol(tol, dim)),
    ] {
        for mode in [MemoryMode::Normal, MemoryMode::OnTheFly] {
            out.push((
                format!("{bname}/{}", mode.name()),
                H2Config {
                    basis: basis.clone(),
                    mode,
                    ..H2Config::default()
                },
            ));
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
