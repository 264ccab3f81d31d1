//! Chaos tolerance — goodput under a pinned replica-crash schedule, with
//! front-door retry on vs off.
//!
//! Run with: `cargo run --release -p onserve-bench --bin chaos`

use onserve_bench::chaos::{self, OFFERED_RPS};
use onserve_bench::save_experiment;
use simkit::report::TextTable;

fn main() {
    println!(
        "==== chaos: {} req/s offered for {:.0} s, crashes at {:?} s ====\n",
        OFFERED_RPS,
        chaos::horizon().as_secs_f64(),
        chaos::crash_offsets()
            .iter()
            .map(|d| d.as_secs_f64())
            .collect::<Vec<_>>()
    );
    let points = chaos::sweep();

    let mut t = TextTable::new(vec![
        "retry",
        "issued",
        "completed",
        "faulted",
        "shed",
        "retried",
        "lost",
        "replaced",
        "goodput (req/s)",
    ]);
    for p in &points {
        t.row(vec![
            (if p.retry { "on" } else { "off" }).to_string(),
            p.issued.to_string(),
            p.completed.to_string(),
            p.faulted.to_string(),
            p.shed.to_string(),
            p.retried.to_string(),
            p.lost.to_string(),
            p.replaced.to_string(),
            format!("{:.3}", p.goodput_rps),
        ]);
    }
    println!("{}", t.render());

    let on = points.iter().find(|p| p.retry).expect("retry-on row");
    let off = points.iter().find(|p| !p.retry).expect("retry-off row");
    println!(
        "retry recovers {:.1}x the goodput of fail-fast under the same crashes",
        on.goodput_rps / off.goodput_rps
    );

    let csv = chaos::csv(&points);
    let paths = save_experiment("chaos", &[("csv", &csv)]).expect("write target/experiments");
    println!("\n(CSV written to {})", paths[0].display());
}
