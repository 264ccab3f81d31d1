//! Noisy neighbor — one flooding tenant vs 23 behaved tenants, with the
//! per-tenant QoS plane on vs off.
//!
//! Run with: `cargo run --release -p onserve-bench --bin noisyneighbor`

use onserve_bench::noisyneighbor::{self, Mode, BEHAVED_RPS, BEHAVED_TENANTS, FLOOD_RPS, REPLICAS};
use onserve_bench::report_sweep;

fn main() {
    println!(
        "==== noisyneighbor: {} behaved tenants @ {:.1} rps aggregate vs 1 flooder @ {:.1} rps, {} replicas, {:.0} s ====\n",
        BEHAVED_TENANTS,
        BEHAVED_RPS,
        FLOOD_RPS,
        REPLICAS,
        noisyneighbor::horizon().as_secs_f64(),
    );
    let points = noisyneighbor::sweep();
    let row = |m: Mode| points.iter().find(|p| p.mode == m).expect("row");
    let (base, off, on) = (row(Mode::Base), row(Mode::QosOff), row(Mode::QosOn));
    let claim = format!(
        "QoS off lets the flooder inflate behaved p99 {:.1}x over baseline ({:.1} s -> {:.1} s);\n\
         QoS on holds it at {:.2}x baseline ({:.1} s) and pushes the backlog onto the flooder (p99 {:.0} s, {} shed)",
        off.behaved_p99_s / base.behaved_p99_s,
        base.behaved_p99_s,
        off.behaved_p99_s,
        on.behaved_p99_s / base.behaved_p99_s,
        on.behaved_p99_s,
        on.flood_p99_s,
        on.flood_shed
    );
    // the exposition snapshot is the QoS-on row's
    let outputs = [("csv", &*noisyneighbor::csv(&points)), ("prom", &*on.prom)];
    report_sweep("noisyneighbor", &outputs, &claim);
}
