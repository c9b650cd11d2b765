//! The metric catalogue and the result line. `BENCHMARK.json` at the root
//! of the repository lists the same names, units and directions, and a test
//! holds the two together.

use crate::json::Value;
use std::collections::BTreeMap;

pub const WORKLOADS: [&str; 4] = [
    "srv-get-small",
    "srv-set-large",
    "lib-mt-zipf",
    "sim-ctr-mrc",
];

/// End-to-end metrics: `(name, unit)`. Every workload reports every one;
/// README.md says what each means on each workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("sat_ops_per_s", "1/s"),
    ("lat_p50_us", "us"),
    ("miss_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`. A workload reports 0 for the layers
/// that are not on its path.
pub const PER_LAYER: [(&str, &str); 68] = [
    ("proto.parse_ns_per_req", "ns"),
    ("proto.encode_ns_per_hit", "ns"),
    ("proto.bytes_in_per_req", "B"),
    ("proto.bytes_out_per_req", "B"),
    ("store.hash_key_ns", "ns"),
    ("store.get_hit_ns", "ns"),
    ("store.get_miss_ns", "ns"),
    ("store.set_ns", "ns"),
    ("store.delete_ns", "ns"),
    ("store.payload_encode_ns", "ns"),
    ("store.payload_decode_ns", "ns"),
    ("store.gets", "count"),
    ("store.hits", "count"),
    ("store.sets", "count"),
    ("store.expired", "count"),
    ("store.collisions", "count"),
    ("shed.admit_ns", "ns"),
    ("shed.shed_count", "count"),
    ("server.rtt_depth1_p50_us", "us"),
    ("server.stage_sum_ns_per_req", "ns"),
    ("server.wall_ns_per_req", "ns"),
    ("server.unattributed_frac", "ratio"),
    ("server.requests", "count"),
    ("server.conns_accepted", "count"),
    ("server.conns_rejected", "count"),
    ("server.shutdown_drain_ms", "ms"),
    ("client.send_wait_p50_us", "us"),
    ("client.reply_wait_p50_us", "us"),
    ("client.recv_p50_us", "us"),
    ("lat_p99_us", "us"),
    ("gen.late_p99_us", "us"),
    ("gen.late_frac", "ratio"),
    ("concurrent.get_hit_ns", "ns"),
    ("concurrent.get_miss_ns", "ns"),
    ("concurrent.insert_ns", "ns"),
    ("concurrent.insert_evict_ns", "ns"),
    ("concurrent.remove_ns", "ns"),
    ("concurrent.evictions_per_insert", "ratio"),
    ("concurrent.hit_1t_mops", "Mops/s"),
    ("concurrent.hit_mt_mops", "Mops/s"),
    ("concurrent.churn_mt_mops", "Mops/s"),
    ("concurrent.scale_eff", "ratio"),
    ("concurrent.lru_strict_mops_mt", "Mops/s"),
    ("concurrent.lru_strict_scale_eff", "ratio"),
    ("concurrent.audit_violations", "count"),
    ("ds.ring_push_pop_ns", "ns"),
    ("trace.gen_mreq_per_s", "Mreq/s"),
    ("trace.ctr_bytes_per_req", "B"),
    ("trace.ctr_decode_mreq_per_s", "Mreq/s"),
    ("trace.load_s", "s"),
    ("trace.intern_s", "s"),
    ("sim.replay_mem_mreq_per_s", "Mreq/s"),
    ("policies.FIFO.mreq_per_s", "Mreq/s"),
    ("policies.LRU.mreq_per_s", "Mreq/s"),
    ("policies.SIEVE.mreq_per_s", "Mreq/s"),
    ("policies.S3-FIFO.mreq_per_s", "Mreq/s"),
    ("policies.ARC.mreq_per_s", "Mreq/s"),
    ("sim.stream_overhead_frac", "ratio"),
    ("sim.peak_buffer_bytes", "B"),
    ("sim.misses", "count"),
    ("sim.mrc_s.FIFO", "s"),
    ("sim.mrc_s.LRU", "s"),
    ("sim.mrc_s.S3-FIFO", "s"),
    ("sim.stage_sum_s", "s"),
    ("sim.pass_s", "s"),
    ("sim.unattributed_frac", "ratio"),
    ("trace_overhead_frac", "ratio"),
    ("fail_frac", "ratio"),
];

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The metrics of `catalogue`, each with its unit; a metric the run did
    /// not set is 0.
    pub fn metrics_json(&self, catalogue: &[(&str, &str)]) -> Value {
        Value::obj(catalogue.iter().map(|(name, unit)| {
            let v = self.metrics.get(name).copied().unwrap_or(0.0);
            let fields = [
                ("value", Value::Num(v)),
                ("unit", Value::Str((*unit).into())),
            ];
            (*name, Value::obj(fields))
        }))
    }

    /// The result line: exactly the catalogue's metrics for the mode, each
    /// with its unit, every value with all its digits.
    pub fn to_json_line(&self, traced: bool) -> String {
        let catalogue: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        Value::obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.attempted.max(1) as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", self.metrics_json(catalogue)),
        ])
        .to_line()
    }
}

/// A finite JSON number with every digit `f64` needs to round-trip.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json beside the package"))
            .expect("valid JSON")
    }

    fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .expect(key)
            .items()
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Value::as_str).unwrap().to_string(),
                    m.get("unit").and_then(Value::as_str).unwrap().to_string(),
                )
            })
            .collect()
    }

    fn catalogue(c: &[(&str, &str)]) -> Vec<(String, String)> {
        c.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_this_catalogue() {
        let doc = benchmark_json();
        assert_eq!(listed(&doc, "end_to_end"), catalogue(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), catalogue(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let names: std::collections::BTreeSet<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.0)
            .chain(WORKLOADS)
            .collect();
        assert_eq!(
            names.len(),
            END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len(),
            "a name is used twice"
        );
    }

    #[test]
    fn benchmark_json_is_within_the_contract_limits() {
        let doc = benchmark_json();
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        for key in ["end_to_end", "per_layer"] {
            for (name, unit) in listed(&doc, key) {
                assert!(ok_name(&name), "{name}");
                assert!(ok_unit(&unit), "{name}: unit {unit}");
            }
        }
        for w in doc.get("workloads").unwrap().items() {
            let why = w.get("why").and_then(Value::as_str).unwrap();
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "why of {:?} is {} characters",
                w.get("name"),
                why.len()
            );
        }
        let mut has_setup = false;
        for m in doc.get("end_to_end").unwrap().items() {
            let bound = m.get("bound").and_then(Value::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
            has_setup |= m.get("name").and_then(Value::as_str) == Some("setup_s");
        }
        assert!(has_setup);
        let seconds = doc.get("run_seconds").and_then(Value::as_f64).unwrap();
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = RunResult {
            attempted: 10,
            ..RunResult::default()
        };
        r.metrics.insert("setup_s", 0.25);
        r.metrics.insert("proto.parse_ns_per_req", 98.5);
        for (traced, catalogue) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let line = parse(&r.to_json_line(traced)).expect("result line is JSON");
            let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let metrics = line.get("metrics").unwrap().fields();
            assert_eq!(metrics.len(), catalogue.len());
            for ((name, m), (want, unit)) in metrics.iter().zip(catalogue) {
                assert_eq!(name, want);
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(*unit));
                assert!(m.get("value").and_then(Value::as_f64).is_some());
            }
        }
        r.failed = 1;
        assert!(r.to_json_line(false).starts_with("{\"correct\": false"));
    }
}
