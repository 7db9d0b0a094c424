//! Facts about the machine and this process, and the two host probes the
//! per-layer ratios are taken against.

use std::hint::black_box;

/// Value (KiB) of a `/proc/self/status` field such as `VmHWM`.
fn proc_status_kib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process, MiB (0 where `/proc` is absent).
pub fn peak_rss_mib() -> f64 {
    proc_status_kib("VmHWM:").map_or(0.0, |k| k / 1024.0)
}

/// Threads alive in this process right now.
pub fn live_threads() -> usize {
    proc_status_kib("Threads:").map_or(1, |t| t as usize)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Size of the last-level cache the OS reports for cpu0, MiB (0 = unknown).
pub fn llc_mib() -> f64 {
    let mut best = (0u32, 0.0f64);
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let level: u32 = level.trim().parse().unwrap_or(0);
        let size = size.trim();
        let mib = if let Some(k) = size.strip_suffix('K') {
            k.parse::<f64>().unwrap_or(0.0) / 1024.0
        } else if let Some(m) = size.strip_suffix('M') {
            m.parse::<f64>().unwrap_or(0.0)
        } else {
            size.parse::<f64>().unwrap_or(0.0) / (1024.0 * 1024.0)
        };
        if level > best.0 {
            best = (level, mib);
        }
    }
    best.1
}

fn mem_available_mib() -> f64 {
    std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|m| {
            let line = m
                .lines()
                .find(|l| l.starts_with("MemAvailable:"))?
                .to_string();
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(4096.0, |k| k / 1024.0)
}

pub struct Triad {
    /// Computed bytes (3 arrays x 8 B x length) over the median pass time.
    pub gbps: f64,
    /// Size of each of the three arrays, MiB.
    pub array_mib: f64,
}

/// STREAM-style triad `a = b + s*c` on one thread. Each array is 4x the
/// last-level cache (so no pass can be served from cache), capped so the
/// three together stay under a third of the available memory; `quick`
/// shrinks them to 8 MiB for the harness smoke.
pub fn triad(quick: bool) -> Triad {
    let llc = llc_mib();
    let want_mib = if quick {
        8.0
    } else if llc > 0.0 {
        4.0 * llc
    } else {
        1024.0
    };
    let array_mib = want_mib.min(mem_available_mib() / 9.0);
    let len = (array_mib * 1024.0 * 1024.0 / 8.0) as usize;
    let mut a = vec![0.0f64; len];
    let b = vec![1.5f64; len];
    let c = vec![0.25f64; len];
    let s = black_box(3.0f64);
    let pass = |a: &mut [f64]| {
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = *y + s * *z;
        }
        black_box(&a[len / 2]);
    };
    pass(&mut a); // first touch of `a`
    let secs = crate::stats::median_secs(3, || pass(&mut a));
    Triad {
        gbps: (3 * 8 * len) as f64 / secs / 1e9,
        array_mib,
    }
}

/// Plain scalar Coulomb loop, evaluations per second: the one-thread,
/// no-blocking baseline the fused kernel path is compared against.
pub fn scalar_evals_per_s(quick: bool) -> f64 {
    let m = if quick { 256 } else { 1536 };
    let pts = crate::pace::probe_points(m);
    let secs = crate::stats::median_secs(3, || {
        black_box(crate::pace::coulomb_pairs(black_box(&pts)));
    });
    (m * m) as f64 / secs
}
