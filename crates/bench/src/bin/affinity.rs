//! Session affinity — credential exchanges and latency with sticky
//! routing on vs off, per-replica session cache enabled in both rows.
//!
//! Run with: `cargo run --release -p onserve-bench --bin affinity`

use onserve_bench::affinity::{self, OFFERED_RPS, REPLICAS, TENANTS};
use onserve_bench::report_sweep;

fn main() {
    println!(
        "==== affinity: {} tenants, {} req/s for {:.0} s over {} replicas ====\n",
        TENANTS,
        OFFERED_RPS,
        affinity::horizon().as_secs_f64(),
        REPLICAS,
    );
    let points = affinity::sweep();
    let on = points.iter().find(|p| p.affinity).expect("affinity-on row");
    let off = points
        .iter()
        .find(|p| !p.affinity)
        .expect("affinity-off row");
    let claim = format!(
        "sticky routing avoids {} credential exchanges ({} vs {}) and cuts mean latency {:.1}%",
        off.auth_spans - on.auth_spans,
        on.auth_spans,
        off.auth_spans,
        100.0 * (1.0 - on.mean_latency_s / off.mean_latency_s),
    );
    report_sweep("affinity", &[("csv", &affinity::csv(&points))], &claim);
}
