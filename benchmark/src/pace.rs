//! The host's speed, measured inside every run, and the correction the time
//! metrics take from it.
//!
//! The reference host is two vCPUs of a shared machine. With nothing else
//! running in the VM it still goes through phases, minutes long, in which the
//! same code runs 8-13 % slower or faster (earlier sessions saw 20-50 %), and
//! the driver compares absolute times it took tens of minutes apart. A run
//! therefore carries its own clock: a fixed piece of benchmark-owned work (the
//! *probe*) runs after every operation and around every set-up, and every
//! time the run reports is divided by the probe's *slowdown* at that moment,
//! its time over its time on the quiet reference host. The result reads in
//! milliseconds *at reference speed*: what the operation would have taken had
//! the host run the probe at its reference time. The probe is benchmark code,
//! so a change to the program cannot move it; a faster program shows in full.
//!
//! The probe must slow down when the workload does, so a workload declares
//! what bounds it, after the paper's own split. On-the-fly operators are
//! bound by kernel evaluation: their probe is the plain scalar Coulomb double
//! loop (`Compute`). Stored operators stream block bytes, but not at the
//! memory's speed (block gemv reaches 0.6 of the triad, `linalg.gemv_frac_triad`):
//! they followed a slow phase of the core by half to two thirds of it. Their
//! probe (`Stream`) is the geometric mean of the compute probe and of a
//! row-major `f64` gemv that streams from memory.

use std::hint::black_box;
use std::time::Instant;

/// Which host resource bounds a workload's operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bound {
    Compute,
    Stream,
}

/// Points of the compute probe: 1024^2 kernel evaluations per pass.
const COMPUTE_POINTS: usize = 1024;
/// The stream probe's matrix: a ring of six 16 MiB slices (1024 x 2048 `f64`).
/// A pass reads the next slice, so a slice comes round again only after 80 MiB
/// of other slices and six operations have gone through the cache (the
/// reference host keeps 64-128 MiB for this VM): every pass streams from
/// memory, whatever the operation before it left in the cache. A program
/// change must not reach the probe through the cache.
const STREAM_ROWS: usize = 1024;
const STREAM_COLS: usize = 2048;
const STREAM_SLICES: usize = 6;
/// Neighbouring probe passes a local slowdown is the median of.
const LOCAL: usize = 5;
/// Time of one pass of each probe on the reference host while it is quiet,
/// measured at the commit that added the benchmark. They only fix the unit.
const COMPUTE_REF_MS: f64 = 3.80;
const STREAM_REF_MS: f64 = 2.55;

/// `sum 1/|p - q|` over all ordered pairs of distinct points: the one-thread,
/// no-blocking form of the work an on-the-fly apply does. Never inlined, like
/// `stream_gemv`: the probe's machine code must not depend on its caller.
#[inline(never)]
pub fn coulomb_pairs(pts: &[[f64; 3]]) -> f64 {
    let mut acc = 0.0;
    for p in pts {
        for q in pts {
            let d2 = (p[0] - q[0]).powi(2) + (p[1] - q[1]).powi(2) + (p[2] - q[2]).powi(2);
            if d2 > 0.0 {
                acc += 1.0 / d2.sqrt();
            }
        }
    }
    acc
}

/// `y = A x` for a row-major `A` with `x.len()` columns, four partial sums a
/// row: the shape of the block gemv a stored apply streams its bytes through.
#[inline(never)]
fn stream_gemv(a: &[f64], x: &[f64], y: &mut [f64]) {
    for (row, yi) in a.chunks_exact(x.len()).zip(y.iter_mut()) {
        let mut s = [0.0f64; 4];
        for (r, v) in row.chunks_exact(4).zip(x.chunks_exact(4)) {
            for l in 0..4 {
                s[l] += r[l] * v[l];
            }
        }
        *yi = (s[0] + s[1]) + (s[2] + s[3]);
    }
}

/// Deterministic points in `[-1, 1]^3`.
pub fn probe_points(m: usize) -> Vec<[f64; 3]> {
    let coords = h2_core::error_est::probe_vector(3 * m, 1);
    coords.chunks(3).map(|c| [c[0], c[1], c[2]]).collect()
}

pub struct Pace {
    bound: Bound,
    pts: Vec<[f64; 3]>,
    a: Vec<f64>,
    x: Vec<f64>,
    y: Vec<f64>,
    /// The slice the next stream pass reads.
    slice: usize,
}

impl Pace {
    pub fn new(bound: Bound) -> Self {
        let stream = bound == Bound::Stream;
        let (rows, cols) = if stream {
            (STREAM_ROWS, STREAM_COLS)
        } else {
            (0, 0)
        };
        Pace {
            bound,
            pts: probe_points(COMPUTE_POINTS),
            a: vec![0.5; STREAM_SLICES * rows * cols],
            x: vec![0.25; cols],
            y: vec![0.0; rows],
            slice: 0,
        }
    }

    /// Bytes the probe keeps resident from its construction on (every page
    /// is written then); `peak_rss_mib` leaves them out.
    pub fn resident_bytes(&self) -> usize {
        self.a.len() * std::mem::size_of::<f64>()
    }

    fn compute_pass(&self) -> f64 {
        let t = Instant::now();
        black_box(coulomb_pairs(black_box(&self.pts)));
        t.elapsed().as_secs_f64() * 1e3 / COMPUTE_REF_MS
    }

    fn stream_pass(&mut self) -> f64 {
        let len = STREAM_ROWS * STREAM_COLS;
        let a = &self.a[self.slice * len..][..len];
        self.slice = (self.slice + 1) % STREAM_SLICES;
        let t = Instant::now();
        stream_gemv(black_box(a), black_box(&self.x), &mut self.y);
        black_box(&self.y);
        t.elapsed().as_secs_f64() * 1e3 / STREAM_REF_MS
    }

    /// One pass of the probe: its slowdown, time over reference time (1 =
    /// reference speed, 1.2 = the host is a fifth slower).
    pub fn pass(&mut self) -> f64 {
        match self.bound {
            Bound::Compute => self.compute_pass(),
            Bound::Stream => (self.compute_pass() * self.stream_pass()).sqrt(),
        }
    }

    /// Median slowdown of `reps` passes.
    pub fn median_pass(&mut self, reps: usize) -> f64 {
        let samples: Vec<f64> = (0..reps).map(|_| self.pass()).collect();
        crate::stats::median(&samples)
    }
}

/// One slowdown per probe pass, each the median of the `LOCAL` passes around
/// it: a single pass is as noisy as a single operation, five in a row are
/// not, and a phase of the host lasts far longer than five operations. A wall
/// time is divided by the slowdown next to it.
pub fn local_slowdowns(passes: &[f64]) -> Vec<f64> {
    let n = passes.len();
    (0..n)
        .map(|i| {
            let lo = i.saturating_sub(LOCAL / 2).min(n.saturating_sub(LOCAL));
            let hi = (lo + LOCAL).min(n);
            crate::stats::median(&passes[lo..hi])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_slowdowns_follow_a_phase_and_ignore_a_spike() {
        // Quiet, one spike, then a slow phase at 1.5x.
        let mut passes = vec![1.0; 10];
        passes[4] = 3.0;
        passes.extend(vec![1.5; 10]);
        let s = local_slowdowns(&passes);
        assert_eq!(s.len(), 20);
        assert!(s[..8].iter().all(|&v| v == 1.0), "{s:?}");
        assert!(s[12..].iter().all(|&v| v == 1.5), "{s:?}");
        // Fewer passes than the window: one median for all.
        assert_eq!(local_slowdowns(&[2.0, 1.0, 2.0]), vec![2.0; 3]);
        assert!(local_slowdowns(&[]).is_empty());
    }

    #[test]
    fn both_probes_run_and_take_time() {
        for bound in [Bound::Compute, Bound::Stream] {
            let mut pace = Pace::new(bound);
            assert!(pace.median_pass(3) > 0.0);
        }
        assert_eq!(Pace::new(Bound::Compute).resident_bytes(), 0);
    }
}
