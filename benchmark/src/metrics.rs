//! The metric schema (kept in step with `BENCHMARK.json` by
//! `h2bench schema-check`) and the container a run fills.

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median an end-to-end metric may worsen by;
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, b: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(b),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees; measured with tracing off.
///
/// Times are reported at reference speed (`pace.rs`) and every one is a
/// median, so the host's phases and bursts mostly cancel: two sets of ten
/// runs made half an hour apart from two separate builds agreed within 3 %
/// on every time metric but those of the two stored workloads, which the
/// host's memory system moves by up to 10 % between sets with no probe
/// following (README, "Why the time bounds are 25 %"). The driver gates on
/// absolute values from single sets, rejects the benchmark itself when
/// unchanged code crosses a bound, and asks for a bound of three times the
/// spread; so the time metrics keep the widest bound the contract allows, and
/// a finer claim is settled with alternating runs and `compare`. `mem_mib`
/// repeats exactly for one seed and varies by up to 2 % between seeds, so it
/// takes three times that.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("build_s", "s", "lower", 0.25),
    e2e("op_p50_ms", "ms", "lower", 0.25),
    e2e("op_p90_ms", "ms", "lower", 0.25),
    e2e("rhs_per_s", "1/s", "higher", 0.25),
    e2e("mem_mib", "MiB", "lower", 0.06),
    e2e("peak_rss_mib", "MiB", "lower", 0.1),
];

/// Single-layer metrics from the traced run (layer = crate name).
pub const PER_LAYER: &[MetricDef] = &[
    layer("host.triad_gbps", "GB/s", "higher"),
    layer("host.triad_array_mib", "MiB", "higher"),
    layer("host.scalar_evals_per_s", "1/s", "higher"),
    layer("host.nproc", "count", "higher"),
    layer("host.llc_mib", "MiB", "higher"),
    layer("host.slowdown", "ratio", "lower"),
    layer("linalg.gemv_gbps", "GB/s", "higher"),
    layer("linalg.gemv_t_gbps", "GB/s", "higher"),
    layer("linalg.gemv_frac_triad", "ratio", "higher"),
    layer("linalg.basis_gemv_gbps", "GB/s", "higher"),
    layer("linalg.gemm_k8_gflops", "GFLOP/s", "higher"),
    layer("linalg.row_id_ms", "ms", "lower"),
    layer("kernels.fused_evals_per_s", "1/s", "higher"),
    layer("kernels.fused_frac_scalar", "ratio", "higher"),
    layer("kernels.materialize_evals_per_s", "1/s", "higher"),
    layer("kernels.evals_per_op", "count", "lower"),
    layer("cache.hit_ns", "ns", "lower"),
    layer("cache.miss_us", "us", "lower"),
    layer("cache.hit_rate", "ratio", "higher"),
    layer("cache.misses_per_op", "count", "lower"),
    layer("cache.evict_bytes_per_op", "B", "lower"),
    layer("cache.resident_mib", "MiB", "lower"),
    layer("cache.stale_purged_per_op", "count", "lower"),
    layer("core.apply_ms", "ms", "lower"),
    layer("core.horizontal_ms", "ms", "lower"),
    layer("core.nearfield_ms", "ms", "lower"),
    layer("core.tree_self_ms", "ms", "lower"),
    layer("core.sweep_cover_frac", "ratio", "higher"),
    layer("core.allocs_per_op", "count", "lower"),
    layer("core.alloc_bytes_per_op", "B", "lower"),
    layer("core.update_ms", "ms", "lower"),
    layer("core.update_path_nodes", "count", "lower"),
    layer("core.update_blocks", "count", "lower"),
    layer("core.update_over_rebuild", "ratio", "lower"),
    layer("core.rel_err", "ratio", "lower"),
    layer("points.tree_build_ms", "ms", "lower"),
    layer("points.lists_build_ms", "ms", "lower"),
    layer("sampling.hier_sample_ms", "ms", "lower"),
    layer("sketch.samples", "count", "lower"),
    layer("sketch.retries", "count", "lower"),
    layer("serve.encode_mbps", "MB/s", "higher"),
    layer("serve.decode_mbps", "MB/s", "higher"),
    layer("serve.load_mmap_ms", "ms", "lower"),
    layer("serve.first_touch_ms", "ms", "lower"),
    layer("serve.load_first_mv_ms", "ms", "lower"),
    layer("serve.file_mib", "MiB", "lower"),
    layer("serve.mapped_frac", "ratio", "higher"),
    layer("serve.submit_us", "us", "lower"),
    layer("serve.drain_ms", "ms", "lower"),
    layer("serve.sweeps_per_round", "count", "lower"),
    layer("serve.batch_mean", "count", "higher"),
    layer("serve.queue_wait_p50_ms", "ms", "lower"),
    layer("serve.scrape_us", "us", "lower"),
    layer("serve.light_p90_ms", "ms", "lower"),
    layer("tenant.push_ns", "ns", "lower"),
    layer("tenant.next_batch_ns", "ns", "lower"),
    layer("tenant.light_over_isolated", "ratio", "lower"),
    layer("dist.wire_bytes_per_op", "B", "lower"),
    layer("dist.msgs_per_op", "count", "lower"),
    layer("dist.setup_bytes", "B", "lower"),
    layer("dist.exchange_ms", "ms", "lower"),
    layer("dist.codec_us", "us", "lower"),
    layer("dist.sharded_over_serial", "ratio", "lower"),
    layer("net.tcp_mv_ms", "ms", "lower"),
    layer("net.ping_us", "us", "lower"),
    layer("net.bytes_per_op", "B", "lower"),
    layer("telemetry.span_ns", "ns", "lower"),
    layer("telemetry.counter_ns", "ns", "lower"),
    layer("trace.overhead_frac", "ratio", "lower"),
    layer("trace.harness_self_frac", "ratio", "lower"),
    layer("trace.spans", "count", "lower"),
];

pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Values measured by one run, keyed by declared metric name.
#[derive(Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    /// Records `value`; the name must be declared in the schema, so a typo
    /// fails the run instead of silently reporting zero.
    pub fn set(&mut self, name: &str, value: f64) {
        let d = def(name).unwrap_or_else(|| panic!("metric {name} is not in the schema"));
        match self.values.iter_mut().find(|(n, _)| *n == d.name) {
            Some((_, v)) => *v = value,
            None => self.values.push((d.name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(d.better == "lower" || d.better == "higher");
            assert!(d.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(def("setup_s").is_some());
    }

    #[test]
    #[should_panic(expected = "not in the schema")]
    fn undeclared_name_panics() {
        Metrics::default().set("no.such_metric", 1.0);
    }
}
