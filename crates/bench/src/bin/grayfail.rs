//! Gray failure — fleet tail latency under a pinned slow-replica strike,
//! with the health-plane detector on vs off.
//!
//! Run with: `cargo run --release -p onserve-bench --bin grayfail`

use onserve_bench::grayfail::{self, SLOW_FACTOR};
use onserve_bench::save_experiment;
use simkit::report::TextTable;

fn main() {
    println!(
        "==== grayfail: one request per {:.0} s for {:.0} s, {}x slow strike at +{:.0} s ====\n",
        grayfail::arrival_gap().as_secs_f64(),
        grayfail::horizon().as_secs_f64(),
        SLOW_FACTOR,
        grayfail::degrade_offset().as_secs_f64(),
    );
    let points = grayfail::sweep();

    let mut t = TextTable::new(vec![
        "detector",
        "issued",
        "completed",
        "faulted",
        "probations",
        "ejections",
        "replaced",
        "probation at (+s)",
        "ejected at (+s)",
        "fleet p99 (s)",
    ]);
    for p in &points {
        t.row(vec![
            (if p.detector { "on" } else { "off" }).to_string(),
            p.issued.to_string(),
            p.completed.to_string(),
            p.faulted.to_string(),
            p.probations.to_string(),
            p.ejections.to_string(),
            p.replaced.to_string(),
            format!("{:.0}", p.first_probation_s),
            format!("{:.0}", p.first_eject_s),
            format!("{:.3}", p.fleet_p99_s),
        ]);
    }
    println!("{}", t.render());

    let on = points.iter().find(|p| p.detector).expect("detector-on row");
    let off = points.iter().find(|p| !p.detector).expect("detector-off row");
    println!(
        "detector cuts the final-window fleet p99 {:.1}x (from {:.1} s to {:.1} s)",
        off.fleet_p99_s / on.fleet_p99_s,
        off.fleet_p99_s,
        on.fleet_p99_s
    );

    let outputs = [("csv", &*grayfail::csv(&points)), ("prom", &*on.prom)];
    let paths = save_experiment("grayfail", &outputs).expect("write target/experiments");
    let ts = save_experiment("grayfail_timeseries", &[("csv", &on.timeseries)])
        .expect("write target/experiments");
    println!(
        "\n(CSV written to {}; exposition snapshot to {}; time series to {})",
        paths[0].display(),
        paths[1].display(),
        ts[0].display()
    );
}
