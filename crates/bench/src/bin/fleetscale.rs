//! Fleet scaling — throughput and latency vs replica count under shared
//! vs replicated storage (the §VIII-D "deploy more appliances" remedy,
//! quantified).
//!
//! Run with: `cargo run --release -p onserve-bench --bin fleetscale`
//! Add `--trace fleet.json` to export a Chrome trace of one representative
//! point (4 replicas, replicated).

use fleet::StorageTopology;
use onserve_bench::fleetscale::{self, OFFERED_RPS, REPLICAS};
use onserve_bench::{report_sweep, trace_arg, write_trace};

fn main() {
    println!(
        "==== fleet scaling: {} req/s offered for {:.0} s ====\n",
        OFFERED_RPS,
        fleetscale::horizon().as_secs_f64()
    );
    let points = fleetscale::sweep();
    let most = REPLICAS[REPLICAS.len() - 1];
    let span = |topology: StorageTopology| {
        let at = |n: usize| {
            points
                .iter()
                .find(|p| p.topology == topology && p.replicas == n)
        };
        let (lo, hi) = (
            at(1).expect("row").throughput_rps,
            at(most).expect("row").throughput_rps,
        );
        format!("{lo:.2} → {hi:.2} req/s ({:.1}x)", hi / lo)
    };
    let claim = format!(
        "replicated 1→{most} replicas: {}\nshared     1→{most} replicas: {} — the NAS is the fleet",
        span(StorageTopology::Replicated),
        span(StorageTopology::Shared),
    );
    report_sweep("fleetscale", &[("csv", &fleetscale::csv(&points))], &claim);

    if let Some(path) = trace_arg() {
        // re-run one representative point with telemetry on; the sweep
        // itself stays untraced so its numbers match the golden fixture
        eprintln!("\ntracing 4-replica replicated point...");
        let (run, _) = fleetscale::run_point(StorageTopology::Replicated, 4, 0xf1ee7 + 5, true);
        write_trace(&run.sim, &path).expect("write trace");
    }
}
