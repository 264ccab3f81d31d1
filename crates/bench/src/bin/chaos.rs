//! Chaos tolerance — goodput under a pinned replica-crash schedule, with
//! front-door retry on vs off.
//!
//! Run with: `cargo run --release -p onserve-bench --bin chaos`

use onserve_bench::chaos::{self, OFFERED_RPS};
use onserve_bench::report_sweep;

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
    let on = points.iter().find(|p| p.retry).expect("retry-on row");
    let off = points.iter().find(|p| !p.retry).expect("retry-off row");
    let claim = format!(
        "retry recovers {:.1}x the goodput of fail-fast under the same crashes",
        on.goodput_rps / off.goodput_rps
    );
    report_sweep("chaos", &[("csv", &chaos::csv(&points))], &claim);
}
