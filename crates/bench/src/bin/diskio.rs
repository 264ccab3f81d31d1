//! Experiment D-3 — the §VIII-D3 hard-disk I/O discussion and the
//! double-write ablation.
//!
//! "When a file is loaded to the server, it is first stored into a
//! temporary location and then loaded from this location into the
//! database. Hence there are at least two write operations and one read
//! operation necessary just to store one file ... This is not optimal and
//! may lead to performance drops. When using a Web service the situation
//! is a bit different, as two reads and just one write operation are
//! necessary, and also mandatory."
//!
//! The bench stores a batch of 5 MB files under both write strategies and
//! then exercises the service-use read path, reporting disk bytes per
//! operation and the makespan delta the paper predicts.
//!
//! Run with: `cargo run -p onserve-bench --bin diskio`
//! Add `--trace d3.json` to export a Chrome trace of the double-write
//! store batch (the measured runs stay untraced).

use blobstore::WriteStrategy;
use onserve::deployment::DeploymentSpec;
use onserve::profile::ExecutionProfile;
use onserve_bench::{par_sweep, trace_arg, write_trace, Runner};
use simkit::report::TextTable;
use simkit::MB;

struct StoreRun {
    makespan: f64,
    disk_write: f64,
    disk_read: f64,
    disk_busy: f64,
}

fn store_batch(strategy: WriteStrategy, n: u32, seed: u64, telemetry: bool) -> (StoreRun, Runner) {
    let mut r = Runner::with_config(seed, |c| c.write_strategy = strategy);
    if telemetry {
        r.sim.enable_telemetry();
    }
    let makespan = r.upload_burst("f", n, 5 * 1024 * 1024, ExecutionProfile::quick());
    let rec = r.sim.recorder_ref();
    let run = StoreRun {
        makespan,
        disk_write: rec.total("appliance.disk.write.bytes"),
        disk_read: rec.total("appliance.disk.read.bytes"),
        disk_busy: rec.total("appliance.disk.write.busy") + rec.total("appliance.disk.read.busy"),
    };
    (run, r)
}

fn main() {
    let n = 20;
    println!("==== D-3 disk I/O: storing {n} x 5 MB uploads ====\n");
    let configs = [
        (WriteStrategy::DoubleWrite, 400u64),
        (WriteStrategy::Direct, 401u64),
    ];
    let mut runs = par_sweep(&configs, |_, &(strategy, seed)| {
        store_batch(strategy, n, seed, false).0
    });
    let direct = runs.pop().expect("direct run");
    let dw = runs.pop().expect("double-write run");
    let mut t = TextTable::new(vec![
        "strategy",
        "makespan",
        "disk written",
        "disk read",
        "disk busy",
        "writes per file",
    ]);
    for (label, run) in [("double-write (paper)", &dw), ("direct (ablation)", &direct)] {
        t.row(vec![
            label.to_string(),
            format!("{:.1} s", run.makespan),
            format!("{:.0} MB", run.disk_write / MB),
            format!("{:.0} MB", run.disk_read / MB),
            format!("{:.1} s", run.disk_busy),
            format!("{:.2}", run.disk_write / (n as f64 * 5.0 * MB)),
        ]);
    }
    println!("{}", t.render());
    println!(
        "double-write stores the raw file once (temp) plus the compressed\n\
         blob; direct skips the temp pass: {:.0}% less disk traffic,\n\
         {:.0}% faster batch.\n",
        100.0 * (1.0 - direct.disk_write / dw.disk_write),
        100.0 * (1.0 - direct.makespan / dw.makespan),
    );

    // the read path: "two reads and just one write ... also mandatory"
    println!("==== D-3 disk I/O: the service-use read path (per §VIII-D3) ====\n");
    let mut r = Runner::new(402, &DeploymentSpec::default());
    r.publish(
        "used.exe",
        5 * 1024 * 1024,
        ExecutionProfile::quick().producing(1024.0),
        &[],
    );
    let w_before = r.sim.recorder_ref().total("appliance.disk.write.bytes");
    let r_before = r.sim.recorder_ref().total("appliance.disk.read.bytes");
    let (res, _) = r.invoke_blocking("used", &[]);
    res.expect("invoke");
    let w = r.sim.recorder_ref().total("appliance.disk.write.bytes") - w_before;
    let rd = r.sim.recorder_ref().total("appliance.disk.read.bytes") - r_before;
    let mut t = TextTable::new(vec!["operation", "bytes", "vs file size"]);
    t.row(vec![
        "reads (DB blob + temp file)".to_string(),
        format!("{:.1} MB", rd / MB),
        format!("{:.2}x", rd / (5.0 * MB)),
    ]);
    t.row(vec![
        "writes (temp file + output spool)".to_string(),
        format!("{:.1} MB", w / MB),
        format!("{:.2}x", w / (5.0 * MB)),
    ]);
    println!("{}", t.render());
    println!(
        "reads exceed writes on the use path (the paper's \"two reads and\n\
         just one write\"); this path is mandatory, not a flaw."
    );

    if let Some(path) = trace_arg() {
        // re-run the double-write batch with telemetry on; the measured
        // runs stay untraced so their numbers are unperturbed
        eprintln!("\ntracing the double-write store batch...");
        let (_, r) = store_batch(WriteStrategy::DoubleWrite, n, 400, true);
        write_trace(&r.sim, &path).expect("write trace");
    }
}
