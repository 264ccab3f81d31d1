//! The tables of record: every metric this benchmark reports, with unit,
//! direction and (end to end) the bound by which it may worsen. The
//! `BENCHMARK.json` at the repo root is this table printed by
//! `--manifest`; a unit test keeps the two identical.

use simkit::telemetry::Json;

use crate::json::{num, obj, string};
use crate::workloads;

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One reported metric.
pub struct MetricDef {
    /// Name, prefixed by its layer (the crate name) for per-layer metrics.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End-to-end only: share of the parent's median the metric may worsen
    /// by before a change counts as a regression.
    pub bound: Option<f64>,
    /// A pure function of the seed: two runs must agree exactly.
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact,
    }
}

/// A host-time measurement of one layer (lower is better).
const fn timing(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        exact: false,
    }
}

/// A count or a ratio of counts: exact for a seed.
const fn exact(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: true,
    }
}

/// What a user of the simulator sees, per workload.
pub const END_TO_END: [MetricDef; 4] = [
    // completed requests per host second over the measured window
    e2e("host_req_per_s", "1/s", Better::Higher, 0.25, false),
    // host seconds to build the world: boot, publish, payload synthesis
    e2e("setup_s", "s", Better::Lower, 0.25, false),
    // VmHWM of the workload's process after its first repetition
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10, false),
    // completed / issued; every workload is built so that nothing fails
    e2e("ok_share", "share", Better::Higher, 0.001, true),
];

use Better::{Higher, Lower};

/// One row per layer metric. Probes first, then traced counts, per layer.
pub const PER_LAYER: [MetricDef; 87] = [
    // simkit
    timing("simkit.event_ns", "ns"),
    timing("simkit.same_tick_event_ns", "ns"),
    timing("simkit.wheel_push_pop_ns", "ns"),
    timing("simkit.ps_flow_ns.16", "ns"),
    timing("simkit.ps_flow_ns.512", "ns"),
    timing("simkit.fifo_job_ns", "ns"),
    timing("simkit.recorder_span_ns", "ns"),
    timing("simkit.windowed_observe_ns", "ns"),
    timing("simkit.span_off_ns", "ns"),
    timing("simkit.span_on_ns", "ns"),
    exact("simkit.events_per_req", "count", Lower),
    timing("simkit.host_ns_per_event", "ns"),
    timing("simkit.step_ns_p50", "ns"),
    timing("simkit.step_ns_p99", "ns"),
    timing("simkit.step_ns_p999", "ns"),
    timing("simkit.heavy_step_share", "share"),
    exact("simkit.queue_high_water", "count", Lower),
    // wsstack
    timing("wsstack.xml_write_ns", "ns"),
    timing("wsstack.xml_parse_ns", "ns"),
    timing("wsstack.soap_encode_ns", "ns"),
    timing("wsstack.soap_decode_ns", "ns"),
    timing("wsstack.wsdl_write_ns", "ns"),
    timing("wsstack.wsdl_parse_ns", "ns"),
    timing("wsstack.client_stub_ns", "ns"),
    timing("wsstack.uddi_publish_ns", "ns"),
    timing("wsstack.uddi_find_ns", "ns"),
    timing("wsstack.uddi_wildcard_ns", "ns"),
    timing("wsstack.channel_call_us", "us"),
    exact("wsstack.soap_dispatch_count", "count", Lower),
    exact("wsstack.uddi_publish_count", "count", Lower),
    // blobstore
    timing("blobstore.compress_ns_per_kb", "ns/KB"),
    timing("blobstore.decompress_ns_per_kb", "ns/KB"),
    timing("blobstore.db_insert_us.64k", "us"),
    timing("blobstore.db_load_us.1k", "us"),
    timing("blobstore.db_load_us.64k", "us"),
    timing("blobstore.timed_store_us.double", "us"),
    timing("blobstore.timed_store_us.direct", "us"),
    timing("blobstore.timed_load_us.64k", "us"),
    exact("blobstore.load_count", "count", Lower),
    exact("blobstore.store_count", "count", Lower),
    exact("blobstore.load_bytes", "B", Lower),
    // gridsim
    timing("gridsim.rsl_write_ns", "ns"),
    timing("gridsim.rsl_parse_ns", "ns"),
    timing("gridsim.sched_job_ns.fcfs", "ns"),
    timing("gridsim.sched_job_ns.backfill", "ns"),
    timing("gridsim.proxy_validate_ns", "ns"),
    timing("gridsim.gram_job_us", "us"),
    timing("gridsim.stage_in_us.64k", "us"),
    exact("gridsim.gram_job_count", "count", Lower),
    // cyberaide
    timing("cyberaide.authenticate_us", "us"),
    timing("cyberaide.stage_us.64k", "us"),
    timing("cyberaide.submit_us", "us"),
    timing("cyberaide.poll_us", "us"),
    exact("cyberaide.authenticate_count", "count", Lower),
    exact("cyberaide.stage_count", "count", Lower),
    exact("cyberaide.poll_count", "count", Lower),
    exact("cyberaide.polls_per_job", "ratio", Lower),
    // vappliance
    timing("vappliance.boot_us", "us"),
    // onserve (crates/core)
    timing("onserve.generate_us", "us"),
    timing("onserve.validate_args_ns", "ns"),
    timing("onserve.upload_us.64k", "us"),
    timing("onserve.invoke_us.1k", "us"),
    timing("onserve.invoke_us.64k", "us"),
    exact("onserve.invoke_count", "count", Lower),
    exact("onserve.session_hit_ratio", "ratio", Higher),
    // fleet
    timing("fleet.submit_ns.bare", "ns"),
    timing("fleet.submit_ns.affinity", "ns"),
    timing("fleet.submit_ns.health", "ns"),
    timing("fleet.submit_ns.geo", "ns"),
    timing("fleet.submit_ns.qos", "ns"),
    timing("fleet.submit_ns.all", "ns"),
    timing("fleet.workload_draw_ns", "ns"),
    timing("fleet.health_prom_us", "us"),
    timing("fleet.submit_call_ns_p50", "ns"),
    timing("fleet.submit_call_ns_p99", "ns"),
    exact("fleet.affinity_hit_ratio", "ratio", Higher),
    exact("fleet.shed_share", "share", Lower),
    exact("fleet.qos_queued_share", "share", Lower),
    exact("fleet.retry_per_req", "ratio", Lower),
    // the modelled system's latency at the workload's fixed offered load:
    // virtual time, exact for a seed, but not comparable across seeds —
    // which is why it is not an end-to-end metric with a bound
    exact("sim.p50_s", "s", Lower),
    exact("sim.p99_s", "s", Lower),
    // ledger: probe cost × traced count ÷ untraced wall
    timing("est_share.blobstore", "share"),
    timing("est_share.wsstack", "share"),
    timing("est_share.fleet", "share"),
    timing("est_share.simkit", "share"),
    timing("est_share.rest", "share"),
    timing("bench.trace_overhead_share", "share"),
];

/// Seconds one driver run measures for.
pub const RUN_SECONDS: u64 = 25;

/// The `BENCHMARK.json` document.
pub fn manifest() -> Json {
    let metric = |m: &MetricDef| {
        let mut fields = vec![
            ("name", string(m.name)),
            ("unit", string(m.unit)),
            ("better", string(m.better.label())),
        ];
        if let Some(bound) = m.bound {
            fields.push(("bound", num(bound)));
        }
        obj(fields)
    };
    obj(vec![
        (
            "command",
            Json::Arr(vec![string("bash"), string("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![string("benchmark")])),
        ("run_seconds", num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                workloads::ALL
                    .iter()
                    .map(|w| obj(vec![("name", string(w.name)), ("why", string(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

/// [`manifest`] as the text committed at the repo root: one array element
/// per line, so a diff shows which metric changed.
pub fn manifest_text() -> String {
    let Json::Obj(fields) = manifest() else {
        unreachable!("manifest is an object")
    };
    let mut out = String::from("{\n");
    for (i, (key, value)) in fields.iter().enumerate() {
        let comma = if i + 1 < fields.len() { "," } else { "" };
        match value {
            Json::Arr(items) if items.iter().any(|v| matches!(v, Json::Obj(_))) => {
                out.push_str(&format!("  \"{key}\": [\n"));
                for (j, item) in items.iter().enumerate() {
                    let c = if j + 1 < items.len() { "," } else { "" };
                    out.push_str(&format!("    {}{c}\n", crate::json::write(item)));
                }
                out.push_str(&format!("  ]{comma}\n"));
            }
            _ => out.push_str(&format!(
                "  \"{key}\": {}{comma}\n",
                crate::json::write(value)
            )),
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::telemetry::parse_json;
    use std::collections::BTreeSet;

    #[test]
    fn committed_benchmark_json_is_the_manifest() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(parse_json(&committed).expect("parses"), manifest());
        assert_eq!(committed, manifest_text(), "regenerate with --manifest");
    }

    #[test]
    fn manifest_obeys_the_contract_limits() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names = BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(ok_name(m.name), "{}", m.name);
            assert!(ok_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!(names.insert(m.name), "{} used twice", m.name);
        }
        for w in &workloads::ALL {
            assert!(ok_name(w.name) && names.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(manifest_text().len() <= 64 * 1024);
    }
}
