//! Million-principal fleet days: two diurnal cycles of open-loop traffic
//! whose requests draw their principal from a 2M-user population, driven
//! through the timer-wheel kernel at ~10⁸ events.
//!
//! Run with: `cargo run --release -p onserve-bench --bin millionuser`
//!
//! `--ci` runs the ~100×-shrunk CI scale (~10⁶ events) instead — same
//! shape, same seed discipline, byte-identical CSV per run; this is the
//! variant `scripts/ci.sh` double-runs and compares.
//!
//! The binary prints the wall-clock kernel throughput it sustained and, at
//! full scale, asserts the experiment's two structural claims: ≥ 1M
//! distinct principals and ≥ 5×10⁷ kernel events.

use onserve_bench::millionuser::{self, Scale, CI, FULL};
use onserve_bench::save_experiment;

fn main() {
    let ci = std::env::args().any(|a| a == "--ci");
    let scale: Scale = if ci { CI } else { FULL };
    println!(
        "==== millionuser [{}]: population {}, diurnal {}→{} req/s over {} replicas, {} s horizon ====\n",
        scale.label,
        scale.population,
        scale.base_rps,
        scale.peak_rps,
        millionuser::REPLICAS,
        scale.horizon_secs,
    );

    let (point, host) = millionuser::run_point(scale);

    println!(
        "issued {} (completed {}, faulted {}) from {} distinct principals",
        point.issued, point.completed, point.faulted, point.distinct_principals
    );
    println!(
        "affinity: {} sticky hits, {} pins (pin table capacity {})",
        point.affinity_hits,
        point.affinity_misses,
        millionuser::AFFINITY_CAPACITY
    );
    println!(
        "latency: mean {:.3} s, p95 {:.3} s",
        point.mean_latency_s, point.p95_latency_s
    );
    println!(
        "kernel: {} events in {:.1} s wall — {:.2}M events/sec",
        point.events,
        host.wall_secs,
        host.events_per_sec / 1e6
    );

    if !ci {
        assert!(
            point.distinct_principals >= 1_000_000,
            "full scale must exercise >= 1M distinct principals, saw {}",
            point.distinct_principals
        );
        assert!(
            point.events >= 50_000_000,
            "full scale must execute on the order of 10^8 events, saw {}",
            point.events
        );
    }

    let csv = millionuser::csv(&[point]);
    let paths = save_experiment("millionuser", &[("csv", &csv)]).expect("write target/experiments");
    println!("\n(CSV written to {})", paths[0].display());
}
