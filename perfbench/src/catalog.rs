//! The benchmark's metric catalog: every metric it can print, by name and
//! unit. `BENCHMARK.json` lists the same names; a test keeps the two in
//! step.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by the untraced run of every workload.
pub const END_TO_END: [(&str, &str); 3] =
    [("events_per_s", "events/s"), ("mem_peak_mb", "MB"), ("setup_s", "s")];

/// Per-layer metrics, printed by the traced run of every workload. A
/// layer the workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("trace.interp_ns_per_event", "ns/event"),
    ("trace.emit_ns_per_event", "ns/event"),
    ("sig.probe_ns_per_access", "ns/access"),
    ("sig.occupancy_pct", "%"),
    ("sig.evictions", "count"),
    ("core.new_ms", "ms"),
    ("core.seq.feed_ns_per_event", "ns/event"),
    ("core.seq.finish_ms", "ms"),
    ("core.store.dedup_ratio", "ratio"),
    ("core.store.mem_mb", "MB"),
    ("core.parallel.feed_ns_per_event", "ns/event"),
    ("core.parallel.finish_ms", "ms"),
    ("queue.push_full_frac", "retries/chunk"),
    ("queue.empty_pop_frac", "fraction"),
    ("queue.highwater", "count"),
    ("core.parallel.stall_ms", "ms"),
    ("core.mt.feed_ns_per_access", "ns/access"),
    ("core.mt.finish_ms", "ms"),
    ("core.mt.reversed", "count"),
    ("analysis.posthoc_ms", "ms"),
    ("analysis.fold_us_per_query", "us/query"),
    ("protocol.encode_ns_per_event", "ns/event"),
    ("protocol.decode_ns_per_event", "ns/event"),
    ("protocol.bytes_per_event", "B/event"),
    ("protocol.frames_per_event", "frames/event"),
    ("core.session.feed_ns_per_event", "ns/event"),
    ("socket.send_ns_per_event", "ns/event"),
    ("server.hello_ms", "ms"),
    ("server.finish_ms", "ms"),
    ("server.sync_p50_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("query_p95_ms", "ms"),
    ("slowdown", "x"),
    ("ledger.residual_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("host.probe_ns", "ns"),
    ("error_rate", "fraction"),
];

/// Metric values of one run, by catalog name.
pub type Values = BTreeMap<&'static str, f64>;

/// Everything one workload run measured.
pub struct Measured {
    /// Operations attempted: programs profiled, or sessions plus queries.
    pub attempted: u64,
    /// Operations that failed or did not match their reference.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Metric values.
    pub values: Values,
    /// Human-readable lines for the report.
    pub notes: Vec<String>,
    /// The traced run's spans.
    pub spans: Option<crate::spans::SpanLog>,
}

/// Each metric's median over the passes that measured it.
pub fn median_over_passes(per_pass: &[Values]) -> Values {
    let mut out = Values::new();
    for name in per_pass.iter().flat_map(|v| v.keys()) {
        let xs: Vec<f64> = per_pass.iter().filter_map(|v| v.get(name).copied()).collect();
        out.insert(name, crate::stats::median(&xs));
    }
    out
}

/// The unit of a catalog metric.
pub fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalog"))
}

/// Inserts `query_p50_ms` and `query_p95_ms` (nearest rank) of the
/// latency samples, when there are any.
pub fn insert_query_latency(values: &mut Values, samples_ms: &[f64]) {
    if samples_ms.is_empty() {
        return;
    }
    let mut v = samples_ms.to_vec();
    v.sort_by(f64::total_cmp);
    values.insert("query_p50_ms", crate::stats::percentile(&v, 50.0));
    values.insert("query_p95_ms", crate::stats::percentile(&v, 95.0));
}

/// The `metrics` object of the result line: every metric of `catalog`,
/// in catalog order, 0 where `values` has none.
pub fn metrics_json(catalog: &[(&str, &str)], values: &Values) -> String {
    let body: Vec<String> = catalog
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the catalog, in order, with the
    /// same units.
    #[test]
    fn benchmark_json_matches_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let squeezed: String = text.split_whitespace().collect();
        let declared: Vec<&str> = squeezed
            .match_indices("{\"name\":\"")
            .map(|(i, m)| {
                let rest = &squeezed[i + m.len()..];
                &rest[..rest.find('"').unwrap()]
            })
            .collect();
        let expected: Vec<&str> = ["serial-suite", "pipeline-suite", "mt-suite", "served-watch"]
            .into_iter()
            .chain(END_TO_END.iter().chain(PER_LAYER.iter()).map(|(n, _)| *n))
            .collect();
        assert_eq!(declared, expected);
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(squeezed.contains(&entry), "{name} must be declared with unit {unit}");
        }
    }

    #[test]
    fn json_fills_idle_layers_with_zero() {
        let mut v = Values::new();
        v.insert("slowdown", 7.5);
        let j = metrics_json(&PER_LAYER, &v);
        assert!(j.contains("\"slowdown\": {\"value\": 7.5, \"unit\": \"x\"}"));
        assert!(j.contains("\"queue.highwater\": {\"value\": 0, \"unit\": \"count\"}"));
        assert_eq!(unit("query_p95_ms"), "ms");
        let mut v = Values::new();
        insert_query_latency(&mut v, &[3.0, 1.0, 2.0]);
        assert_eq!((v["query_p50_ms"], v["query_p95_ms"]), (2.0, 3.0));
    }
}
