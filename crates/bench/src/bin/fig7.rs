//! Figure 7 — "Web service execution, larger file: network and hard disk
//! I/O (3 seconds interval)".
//!
//! The small executable of Figure 6 is replaced with a ~5 MB file. The
//! paper's observations to reproduce:
//! * a first disk peak when the file is written temporarily to disk;
//! * the network, not the disk, is the limiting factor;
//! * the upload to the Grid node takes ~60 seconds at a near-constant
//!   80–90 KB/s;
//! * the periodic output-polling disk writes continue underneath.
//!
//! Run with: `cargo run -p onserve-bench --bin fig7`
//!
//! Pass `--trace fig7.trace.json` to dump the run's causal span tree as
//! Chrome trace-event JSON (open in Perfetto).

use onserve_bench::figures::{self, FIG7};
use onserve_bench::{render_figure, KB};

fn main() {
    let trace = onserve_bench::trace_arg();
    let fig = figures::fig7(|sim| {
        if trace.is_some() {
            sim.enable_telemetry();
        }
    });
    let (r, t0, done_at) = (&fig.r, fig.t0, fig.done_at);
    let rec = r.sim.recorder_ref();
    let iv = rec.interval().as_secs_f64();
    let curves = fig.curves(&FIG7);
    if let Ok(path) = onserve_bench::save_curves("fig7", &curves) {
        eprintln!("(curves saved to {})", path.display());
    }
    println!(
        "{}",
        render_figure(
            "Figure 7 — Web service execution, ~5 MB file (3 s sampling)",
            "paper: first blue peak = temporary disk write; then ~60 s\n\
             upload at a constant 80-90 KB/s; network (not disk) limits",
            &curves
        )
    );

    // the staging plateau, measured from the egress series
    let egress = rec.series("appliance.net.out.bytes").expect("egress");
    let start = (t0.ticks() / egress.interval().ticks()) as usize;
    let plateau: Vec<f64> = egress.buckets()[start..]
        .iter()
        .copied()
        .filter(|&v| v > 100.0 * KB)
        .collect();
    let plateau_secs = plateau.len() as f64 * iv;
    let mean_rate = plateau.iter().sum::<f64>() / plateau.len().max(1) as f64 / iv / KB;
    let min_rate = plateau.iter().copied().fold(f64::MAX, f64::min) / iv / KB;
    let max_rate = plateau.iter().copied().fold(0.0, f64::max) / iv / KB;
    let disk_busy = rec.total("appliance.disk.write.busy") + rec.total("appliance.disk.read.busy");
    println!("summary:");
    println!(
        "  upload plateau            {plateau_secs:.0} s (paper: ~60 s)"
    );
    println!(
        "  transfer rate             mean {mean_rate:.0} KB/s, range {min_rate:.0}-{max_rate:.0} KB/s (paper: 80-90 KB/s)"
    );
    println!(
        "  invocation wall time      {:.0} s",
        (done_at - t0).as_secs_f64()
    );
    println!(
        "  disk busy                 {disk_busy:.2} s — \"the hard disk is not the limiting factor\""
    );

    if let Some(path) = trace {
        onserve_bench::write_trace(&r.sim, &path).expect("write trace");
    }
}
