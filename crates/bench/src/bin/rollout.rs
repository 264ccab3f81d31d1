//! Zero-downtime rollouts — restart vs rolling vs canary (promote and
//! auto-rollback), one seed, one schedule.
//!
//! Run with: `cargo run --release -p onserve-bench --bin rollout`

use onserve_bench::rollout::{self, SLOW_FACTOR};
use onserve_bench::save_experiment;
use simkit::report::TextTable;

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

    let mut t = TextTable::new(vec![
        "mode",
        "issued",
        "completed",
        "dropped",
        "failed",
        "replaced",
        "rollbacks",
        "outcome",
        "versions",
        "fleet p99 (s)",
    ]);
    for p in &points {
        t.row(vec![
            p.mode.label().to_string(),
            p.issued.to_string(),
            p.completed.to_string(),
            p.dropped.to_string(),
            p.failed.to_string(),
            p.replaced.to_string(),
            p.rollbacks.to_string(),
            p.outcome.to_string(),
            p.versions.clone(),
            format!("{:.3}", p.fleet_p99_s),
        ]);
    }
    println!("{}", t.render());

    let restart = points.iter().find(|p| p.mode.label() == "restart").expect("row");
    let rolling = points.iter().find(|p| p.mode.label() == "rolling").expect("row");
    println!(
        "restart drops {} of {} requests; rolling drops {} — same seed, same schedule",
        restart.dropped, restart.issued, rolling.dropped
    );

    let promote = points
        .iter()
        .find(|p| p.mode.label() == "canary-promote")
        .expect("promote row");
    let outputs = [("csv", &*rollout::csv(&points)), ("prom", &*promote.prom)];
    let paths = save_experiment("rollout", &outputs).expect("write target/experiments");
    println!(
        "\n(CSV written to {}; exposition snapshot to {})",
        paths[0].display(),
        paths[1].display()
    );
}
