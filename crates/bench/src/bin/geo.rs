//! Geo-distributed fleet — multi-site placement, latency-aware routing,
//! and federation under a pinned mid-run site outage.
//!
//! Run with: `cargo run --release -p onserve-bench --bin geo`

use onserve_bench::geo::{self, GeoMode};
use onserve_bench::report_sweep;

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
    let row = |m: GeoMode| points.iter().find(|p| p.mode == m).expect("row");
    let (rr, near) = (row(GeoMode::RoundRobin), row(GeoMode::Nearest));
    let (obl, fed) = (row(GeoMode::Oblivious), row(GeoMode::Federated));
    let claim = format!(
        "nearest-site routing cuts mean latency {:.0} ms -> {:.0} ms; federation completes {} of {} where the oblivious control loses {} to timeouts",
        rr.mean_ms, near.mean_ms, fed.completed, fed.issued, obl.faulted,
    );
    // the site-labelled exposition snapshot is the nearest row's
    let outputs = [("csv", &*geo::csv(&points)), ("prom", &*near.prom)];
    report_sweep("geo", &outputs, &claim);
}
