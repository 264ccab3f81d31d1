//! Zero-downtime rollouts — restart vs rolling vs canary (promote and
//! auto-rollback), one seed, one schedule.
//!
//! Run with: `cargo run --release -p onserve-bench --bin rollout`

use onserve_bench::report_sweep;
use onserve_bench::rollout::{self, RolloutMode, SLOW_FACTOR};

fn main() {
    println!(
        "==== rollout: one request per {:.0} s for {:.0} s, roll at +{:.0} s, {}x lemon at +{:.0} s ====\n",
        rollout::arrival_gap().as_secs_f64(),
        rollout::horizon().as_secs_f64(),
        rollout::roll_offset().as_secs_f64(),
        SLOW_FACTOR,
        rollout::lemon_offset().as_secs_f64(),
    );
    let points = rollout::sweep();
    let row = |m: RolloutMode| points.iter().find(|p| p.mode == m).expect("row");
    let (restart, rolling) = (row(RolloutMode::Restart), row(RolloutMode::Rolling));
    let claim = format!(
        "restart drops {} of {} requests; rolling drops {} — same seed, same schedule",
        restart.dropped, restart.issued, rolling.dropped
    );
    // the exposition snapshot is the promoted fleet's
    let prom = &row(RolloutMode::CanaryPromote).prom;
    let outputs = [("csv", &*rollout::csv(&points)), ("prom", &**prom)];
    report_sweep("rollout", &outputs, &claim);
}
