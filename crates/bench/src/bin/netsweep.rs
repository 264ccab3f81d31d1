//! Experiment D-2 — the §VIII-D2 network-connection discussion.
//!
//! "A system that only possesses a slow network connection will naturally
//! treat requests much slower ... In a stress-test-scenario, when multiple
//! up- and downloads from and to the system have to be performed, a poor
//! network connection might become a bottleneck slowing down the treatment
//! of the requests."
//!
//! Sweep link bandwidth for both basic use cases: the portal
//! upload+generate scenario (client LAN) and the service-use scenario
//! (appliance→Grid WAN), single request and stressed (8 concurrent).
//!
//! Run with: `cargo run -p onserve-bench --bin netsweep`
//! Add `--trace d2.json` to export a Chrome trace of the stressed
//! paper-WAN point (the sweep itself stays untraced).

use onserve::deployment::DeploymentSpec;
use onserve::profile::ExecutionProfile;
use onserve_bench::{par_sweep, trace_arg, write_trace, Runner, KB};
use simkit::report::TextTable;
use simkit::{Duration, GBIT_PER_S, MB};

fn upload_scenario(lan_bw: f64, concurrent: u32, seed: u64) -> f64 {
    let spec = DeploymentSpec {
        lan_bandwidth: lan_bw,
        ..DeploymentSpec::default()
    };
    let mut r = Runner::new(seed, &spec);
    r.upload_burst("n", concurrent, 5 * 1024 * 1024, ExecutionProfile::quick())
}

fn service_use_scenario(wan_bw: f64, concurrent: u32, seed: u64, telemetry: bool) -> (f64, Runner) {
    let mut spec = DeploymentSpec {
        wan_bandwidth_override: Some(wan_bw),
        ..DeploymentSpec::default()
    };
    spec.config.broker = gridsim::BrokerPolicy::Fixed("ncsa".into());
    let mut r = Runner::new(seed, &spec);
    if telemetry {
        r.sim.enable_telemetry();
    }
    r.publish(
        "sweep.exe",
        2 * 1024 * 1024,
        ExecutionProfile::quick()
            .lasting(Duration::from_secs(30))
            .producing(64.0 * KB),
        &[],
    );
    let makespan = r.invoke_burst("sweep", concurrent);
    (makespan, r)
}

struct Row {
    label: String,
    single: f64,
    stressed: f64,
}

fn main() {
    let lan_points: Vec<(&str, f64)> = vec![
        ("10 Mbit/s", 10.0e6 / 8.0),
        ("100 Mbit/s", 100.0e6 / 8.0),
        ("1000 Mbit/s (paper)", GBIT_PER_S),
    ];
    let wan_points: Vec<(&str, f64)> = vec![
        ("32 KB/s", 32.0 * KB),
        ("85 KB/s (paper)", 85.0 * KB),
        ("256 KB/s", 256.0 * KB),
        ("1 MB/s", 1.0 * MB),
        ("10 MB/s", 10.0 * MB),
    ];

    let lan_rows = par_sweep(&lan_points, |i, &(label, bw)| Row {
        label: label.to_owned(),
        single: upload_scenario(bw, 1, 300 + i as u64),
        stressed: upload_scenario(bw, 8, 310 + i as u64),
    });
    let wan_rows = par_sweep(&wan_points, |i, &(label, bw)| Row {
        label: label.to_owned(),
        single: service_use_scenario(bw, 1, 320 + i as u64, false).0,
        stressed: service_use_scenario(bw, 8, 330 + i as u64, false).0,
    });

    let render = |title: &str, rows: Vec<Row>| {
        println!("==== D-2 network sweep: {title} ====\n");
        let mut t = TextTable::new(vec!["link", "1 request", "8 concurrent", "slowdown @8"]);
        for r in &rows {
            t.row(vec![
                r.label.clone(),
                format!("{:.1} s", r.single),
                format!("{:.1} s", r.stressed),
                format!("{:.1}x", r.stressed / r.single),
            ]);
        }
        println!("{}", t.render());
    };
    render(
        "upload + generate Web service (5 MB, client LAN)",
        lan_rows,
    );
    render(
        "service use (2 MB staging + 30 s job, WAN to the site)",
        wan_rows,
    );
    println!(
        "paper claim: slow links dominate request treatment for BOTH basic\n\
         use cases, and concurrency amplifies it — latency should fall\n\
         steeply with bandwidth until another resource takes over."
    );

    if let Some(path) = trace_arg() {
        // re-run the stressed paper-WAN point with telemetry on; the sweep
        // itself stays untraced so its numbers are unperturbed
        eprintln!("\ntracing 8 concurrent service uses over the 85 KB/s WAN...");
        let (_, r) = service_use_scenario(85.0 * KB, 8, 331, true);
        write_trace(&r.sim, &path).expect("write trace");
    }
}
