//! Noisy neighbor — one flooding tenant vs 23 behaved tenants, with the
//! per-tenant QoS plane on vs off.
//!
//! Run with: `cargo run --release -p onserve-bench --bin noisyneighbor`

use onserve_bench::noisyneighbor::{self, Mode, BEHAVED_RPS, BEHAVED_TENANTS, FLOOD_RPS, REPLICAS};
use onserve_bench::save_experiment;
use simkit::report::TextTable;

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

    let mut t = TextTable::new(vec![
        "mode",
        "behaved ok/shed",
        "behaved p99 (s)",
        "worst tenant p99 (s)",
        "flood ok/shed",
        "flood p99 (s)",
        "door queued",
        "door shed",
    ]);
    for p in &points {
        t.row(vec![
            p.mode.label().to_string(),
            format!("{}/{}", p.behaved_ok, p.behaved_shed),
            format!("{:.2}", p.behaved_p99_s),
            format!("{:.2}", p.worst_p99_s),
            format!("{}/{}", p.flood_ok, p.flood_shed),
            format!("{:.2}", p.flood_p99_s),
            p.door_queued.to_string(),
            p.door_shed.to_string(),
        ]);
    }
    println!("{}", t.render());

    let base = points.iter().find(|p| p.mode == Mode::Base).expect("base");
    let off = points.iter().find(|p| p.mode == Mode::QosOff).expect("off");
    let on = points.iter().find(|p| p.mode == Mode::QosOn).expect("on");
    println!(
        "QoS off lets the flooder inflate behaved p99 {:.1}x over baseline ({:.1} s -> {:.1} s);",
        off.behaved_p99_s / base.behaved_p99_s,
        base.behaved_p99_s,
        off.behaved_p99_s
    );
    println!(
        "QoS on holds it at {:.2}x baseline ({:.1} s) and pushes the backlog onto the flooder (p99 {:.0} s, {} shed)",
        on.behaved_p99_s / base.behaved_p99_s,
        on.behaved_p99_s,
        on.flood_p99_s,
        on.flood_shed
    );

    let outputs = [("csv", &*noisyneighbor::csv(&points)), ("prom", &*on.prom)];
    let paths = save_experiment("noisyneighbor", &outputs).expect("write target/experiments");
    println!(
        "\n(CSV written to {}; QoS-on exposition snapshot to {})",
        paths[0].display(),
        paths[1].display()
    );
}
