//! Gray failure — fleet tail latency under a pinned slow-replica strike,
//! with the health-plane detector on vs off.
//!
//! Run with: `cargo run --release -p onserve-bench --bin grayfail`

use onserve_bench::grayfail::{self, SLOW_FACTOR};
use onserve_bench::{report_sweep, save_experiment};

fn main() {
    println!(
        "==== grayfail: one request per {:.0} s for {:.0} s, {}x slow strike at +{:.0} s ====\n",
        grayfail::arrival_gap().as_secs_f64(),
        grayfail::horizon().as_secs_f64(),
        SLOW_FACTOR,
        grayfail::degrade_offset().as_secs_f64(),
    );
    let points = grayfail::sweep();
    let on = points.iter().find(|p| p.detector).expect("detector-on row");
    let off = points
        .iter()
        .find(|p| !p.detector)
        .expect("detector-off row");
    let claim = format!(
        "detector cuts the final-window fleet p99 {:.1}x (from {:.1} s to {:.1} s)",
        off.fleet_p99_s / on.fleet_p99_s,
        off.fleet_p99_s,
        on.fleet_p99_s
    );
    // the exposition snapshot and the time series are the detector row's
    let outputs = [("csv", &*grayfail::csv(&points)), ("prom", &*on.prom)];
    report_sweep("grayfail", &outputs, &claim);
    let ts = save_experiment("grayfail_timeseries", &[("csv", &on.timeseries)])
        .expect("write target/experiments");
    println!("(time series: {})", ts[0].display());
}
