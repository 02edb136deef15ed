//! Metric names, units, and the one-line JSON result.
//!
//! Every metric the benchmark can print is declared here once, with
//! its unit; `BENCHMARK.json` lists the same names (a test holds the
//! two together). `sim_` units are simulated time, every other time
//! unit is wall-clock time.

use std::collections::BTreeMap;

/// End-to-end metrics: what a user of either plane sees. Printed with
/// tracing off (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("sim_ns_per_req", "ns"),
    ("io_time_s.segm", "sim_s"),
    ("io_time_s.for_hdc", "sim_s"),
    ("sim_resp_p99_ms", "sim_ms"),
    ("read_p50_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("read_rps", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb.sim", "MB"),
    ("peak_rss_mb.serve", "MB"),
];

/// Per-layer metrics: one traced run (`--trace 1`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.gen_s", "s"),
    ("core.build_ms", "ms"),
    ("core.ctl_ns_per_extent", "ns"),
    ("cache.extent_hit_ratio.segm", "ratio"),
    ("cache.extent_hit_ratio.for_hdc", "ratio"),
    ("cache.ra_used_ratio.segm", "ratio"),
    ("cache.ra_used_ratio.for_hdc", "ratio"),
    ("cache.evictions_per_req", "count"),
    ("hdc.read_hit_ratio", "ratio"),
    ("hdc.flushed_per_kreq", "count"),
    ("bitmap.bits_per_req", "count"),
    ("bitmap.ns_per_scan", "ns"),
    ("array.extents_per_req", "count"),
    ("array.ns_per_split", "ns"),
    ("sched.queue_depth_mean", "count"),
    ("sched.wait_ms_per_op", "sim_ms"),
    ("sched.ns_per_op", "ns"),
    ("calendar.events_per_req", "count"),
    ("calendar.ns_per_event", "ns"),
    ("disk.media_ops_per_req", "count"),
    ("disk.blocks_per_op", "count"),
    ("disk.seek_ms_per_op", "sim_ms"),
    ("disk.rot_ms_per_op", "sim_ms"),
    ("disk.xfer_ms_per_op", "sim_ms"),
    ("disk.util", "ratio"),
    ("mechanics.ns_per_service", "ns"),
    ("bus.wait_ms_per_req", "sim_ms"),
    ("bus.util", "ratio"),
    ("host.ns_per_req", "ns"),
    ("mirror.failover_reads", "count"),
    ("mirror.rebuilt_blocks", "count"),
    ("mirror.rebuild_busy_share", "ratio"),
    ("sim.trace_overhead", "ratio"),
    ("budget.residual_ns_per_req", "ns"),
    ("protocol.ns_per_read", "ns"),
    ("engine.hit_us_p50", "us"),
    ("engine.miss_us_p50", "us"),
    ("engine.read_us_p99.c2", "us"),
    ("engine.extent_hit_ratio", "ratio"),
    ("engine.media_blocks_per_read", "count"),
    ("engine.store_resident_blocks", "count"),
    ("engine.store_fallbacks", "count"),
    ("engine.failover_reads", "count"),
    ("engine.rebuild_mb_per_s", "MB/s"),
    ("metrics.record_ns", "ns"),
    ("server.overhead_us", "us"),
];

/// Which set of metrics a run prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricSet {
    EndToEnd,
    PerLayer,
}

impl MetricSet {
    /// The `(name, unit)` table of this set.
    pub fn table(self) -> &'static [(&'static str, &'static str)] {
        match self {
            MetricSet::EndToEnd => END_TO_END,
            MetricSet::PerLayer => PER_LAYER,
        }
    }
}

/// Measured values by name. Names are checked against the tables when
/// the result is rendered, so a typo is an error rather than a silently
/// missing metric.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, f64>,
}

impl Metrics {
    /// Records (or overwrites) one metric.
    pub fn put(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// A recorded value, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}

/// Renders the result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, where `metrics` holds every metric of `set` in table
/// order as `{"value": v, "unit": u}`. Errors when a metric of the set
/// is missing or not a finite number.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    set: MetricSet,
    metrics: &Metrics,
) -> Result<String, String> {
    let mut body = Vec::new();
    for &(name, unit) in set.table() {
        let v = metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite ({v})"));
        }
        // `{}` on f64 prints the shortest decimal that reads back to
        // the same value, never in exponent form: valid JSON with all
        // the digits measured.
        body.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(set: MetricSet) -> Metrics {
        let mut m = Metrics::default();
        for (i, &(name, _)) in set.table().iter().enumerate() {
            m.put(name, 0.5 + i as f64);
        }
        m
    }

    #[test]
    fn result_has_every_metric_with_its_unit() {
        let json = result_json(
            true,
            1000,
            0,
            MetricSet::EndToEnd,
            &filled(MetricSet::EndToEnd),
        )
        .expect("complete");
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, "));
        assert!(json.contains("\"sim_ns_per_req\": {\"value\": 0.5, \"unit\": \"ns\"}"));
        assert!(json.contains("\"read_rps\": {\"value\": 6.5, \"unit\": \"1/s\"}"));
        for &(name, unit) in END_TO_END {
            assert!(
                json.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name}"
            );
            assert!(json.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
        }
        // Per-layer names stay out of an end-to-end result.
        assert!(!json.contains("workload.gen_s"));
        assert!(!json.contains('\n'));
    }

    #[test]
    fn values_keep_all_their_digits() {
        let mut m = filled(MetricSet::EndToEnd);
        m.put("setup_s", 0.812_734_561_2);
        m.put("read_rps", 0.000_000_1);
        let json = result_json(true, 1, 0, MetricSet::EndToEnd, &m).expect("complete");
        assert!(json.contains("\"value\": 0.8127345612,"));
        assert!(json.contains("\"value\": 0.0000001,"));
    }

    #[test]
    fn missing_or_non_finite_metrics_are_errors() {
        let mut m = filled(MetricSet::EndToEnd);
        m.values.remove("setup_s");
        assert!(result_json(true, 1, 0, MetricSet::EndToEnd, &m).is_err());
        let mut m = filled(MetricSet::PerLayer);
        m.put("bus.util", f64::NAN);
        assert!(result_json(true, 1, 0, MetricSet::PerLayer, &m).is_err());
    }

    #[test]
    fn names_are_unique_and_within_the_contract_alphabet() {
        let mut seen = std::collections::HashSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "duplicate {name}");
            assert!(name.len() <= 64 && name.as_bytes()[0].is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    /// The tables and `BENCHMARK.json` must name the same metrics with
    /// the same units.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            text.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists metrics the benchmark does not print"
        );
    }
}
