//! Fleet scaling — throughput and latency vs replica count under shared
//! vs replicated storage (the §VIII-D "deploy more appliances" remedy,
//! quantified).
//!
//! Run with: `cargo run --release -p onserve-bench --bin fleetscale`
//! Add `--trace fleet.json` to export a Chrome trace of one representative
//! point (4 replicas, replicated).

use onserve_bench::fleetscale::{self, OFFERED_RPS};
use onserve_bench::{save_experiment, trace_arg, write_trace};
use simkit::report::TextTable;

fn main() {
    println!(
        "==== fleet scaling: {} req/s offered for {:.0} s ====\n",
        OFFERED_RPS,
        fleetscale::horizon().as_secs_f64()
    );
    let points = fleetscale::sweep();

    let mut t = TextTable::new(vec![
        "replicas",
        "storage",
        "throughput (req/s)",
        "p50 (s)",
        "p95 (s)",
        "p99 (s)",
        "shed",
        "issued",
    ]);
    for p in &points {
        t.row(vec![
            p.replicas.to_string(),
            p.topology.label().to_string(),
            format!("{:.2}", p.throughput_rps),
            format!("{:.1}", p.p50_s),
            format!("{:.1}", p.p95_s),
            format!("{:.1}", p.p99_s),
            p.shed.to_string(),
            p.issued.to_string(),
        ]);
    }
    println!("{}", t.render());

    let shared_span: Vec<f64> = points
        .iter()
        .filter(|p| p.topology.label() == "shared")
        .map(|p| p.throughput_rps)
        .collect();
    let repl_span: Vec<f64> = points
        .iter()
        .filter(|p| p.topology.label() == "replicated")
        .map(|p| p.throughput_rps)
        .collect();
    println!(
        "replicated 1→{} replicas: {:.2} → {:.2} req/s ({:.1}x)",
        fleetscale::REPLICAS[fleetscale::REPLICAS.len() - 1],
        repl_span[0],
        repl_span[repl_span.len() - 1],
        repl_span[repl_span.len() - 1] / repl_span[0]
    );
    println!(
        "shared     1→{} replicas: {:.2} → {:.2} req/s ({:.1}x) — the NAS is the fleet",
        fleetscale::REPLICAS[fleetscale::REPLICAS.len() - 1],
        shared_span[0],
        shared_span[shared_span.len() - 1],
        shared_span[shared_span.len() - 1] / shared_span[0]
    );

    let csv = fleetscale::csv(&points);
    let paths = save_experiment("fleetscale", &[("csv", &csv)]).expect("write target/experiments");
    println!("\n(CSV written to {})", paths[0].display());

    if let Some(path) = trace_arg() {
        // re-run one representative point with telemetry on; the sweep
        // itself stays untraced so its numbers match the golden fixture
        eprintln!("\ntracing 4-replica replicated point...");
        let (sim, _fleet, _stats, _point) = fleetscale::run_point_instrumented(
            fleet::StorageTopology::Replicated,
            4,
            0xf1ee7 + 5,
            true,
        );
        write_trace(&sim, &path).expect("write trace");
    }
}
