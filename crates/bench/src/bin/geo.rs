//! Geo-distributed fleet — multi-site placement, latency-aware routing,
//! and federation under a pinned mid-run site outage.
//!
//! Run with: `cargo run --release -p onserve-bench --bin geo`

use onserve_bench::geo;
use onserve_bench::save_experiment;
use simkit::report::TextTable;

fn main() {
    println!(
        "==== geo: {} sites, {} replicas, one request per {:.0} s for {:.0} s; outage +{:.0} s for {:.0} s ====\n",
        geo::sites().len(),
        geo::REPLICAS,
        geo::arrival_gap().as_secs_f64(),
        geo::horizon().as_secs_f64(),
        geo::outage_offset().as_secs_f64(),
        geo::outage_duration().as_secs_f64(),
    );
    let points = geo::sweep();

    let mut t = TextTable::new(vec![
        "mode",
        "issued",
        "completed",
        "faulted",
        "forwarded",
        "pulled",
        "blackholed",
        "wan hops",
        "link drops",
        "mean (ms)",
        "p99 (ms)",
    ]);
    for p in &points {
        t.row(vec![
            p.mode.label().to_string(),
            p.issued.to_string(),
            p.completed.to_string(),
            p.faulted.to_string(),
            p.forwarded.to_string(),
            p.results_pulled.to_string(),
            p.blackholed.to_string(),
            p.wan_hops.to_string(),
            p.link_drops.to_string(),
            format!("{:.1}", p.mean_ms),
            format!("{:.1}", p.p99_ms),
        ]);
    }
    println!("{}", t.render());

    let row = |m: geo::GeoMode| points.iter().find(|p| p.mode == m).expect("row");
    let (rr, near) = (row(geo::GeoMode::RoundRobin), row(geo::GeoMode::Nearest));
    let (obl, fed) = (row(geo::GeoMode::Oblivious), row(geo::GeoMode::Federated));
    println!(
        "nearest-site routing cuts mean latency {:.0} ms -> {:.0} ms; federation completes {} of {} where the oblivious control loses {} to timeouts",
        rr.mean_ms, near.mean_ms, fed.completed, fed.issued, obl.faulted,
    );

    let outputs = [("csv", &*geo::csv(&points)), ("prom", &*near.prom)];
    let paths = save_experiment("geo", &outputs).expect("write target/experiments");
    println!(
        "\n(CSV written to {}; site-labelled exposition snapshot to {})",
        paths[0].display(),
        paths[1].display()
    );
}
