//! Session affinity — credential exchanges and latency with sticky
//! routing on vs off, per-replica session cache enabled in both rows.
//!
//! Run with: `cargo run --release -p onserve-bench --bin affinity`

use onserve_bench::affinity::{self, OFFERED_RPS, REPLICAS, TENANTS};
use onserve_bench::save_experiment;
use simkit::report::TextTable;

fn main() {
    println!(
        "==== affinity: {} tenants, {} req/s for {:.0} s over {} replicas ====\n",
        TENANTS,
        OFFERED_RPS,
        affinity::horizon().as_secs_f64(),
        REPLICAS,
    );
    let points = affinity::sweep();

    let mut t = TextTable::new(vec![
        "affinity",
        "issued",
        "completed",
        "faulted",
        "auths",
        "session hits",
        "sticky hits",
        "pins",
        "mean (s)",
        "p95 (s)",
    ]);
    for p in &points {
        t.row(vec![
            (if p.affinity { "on" } else { "off" }).to_string(),
            p.issued.to_string(),
            p.completed.to_string(),
            p.faulted.to_string(),
            p.auth_spans.to_string(),
            p.session_hits.to_string(),
            p.affinity_hits.to_string(),
            p.affinity_misses.to_string(),
            format!("{:.3}", p.mean_latency_s),
            format!("{:.3}", p.p95_latency_s),
        ]);
    }
    println!("{}", t.render());

    let on = points.iter().find(|p| p.affinity).expect("affinity-on row");
    let off = points.iter().find(|p| !p.affinity).expect("affinity-off row");
    println!(
        "sticky routing avoids {} credential exchanges ({} vs {}) and cuts mean latency {:.1}%",
        off.auth_spans - on.auth_spans,
        on.auth_spans,
        off.auth_spans,
        100.0 * (1.0 - on.mean_latency_s / off.mean_latency_s),
    );

    let csv = affinity::csv(&points);
    let paths = save_experiment("affinity", &[("csv", &csv)]).expect("write target/experiments");
    println!("\n(CSV written to {})", paths[0].display());
}
