//! Ablation suite for the design choices DESIGN.md flags (◆): each run
//! toggles exactly one decision against the paper's build and reports the
//! delta.
//!
//! 1. double-write vs direct storage (§VIII-D3's "may be improved");
//! 2. re-stage every invocation vs reuse staged files (§VIII-B's "an
//!    upload strategy that avoids frequent uploads of the same file may
//!    finally result in a better overall performance");
//! 3. per-invocation credential exchange vs cached sessions (the Figure 6
//!    traffic observation);
//! 4. tentative output-poll interval sweep (the workaround's cost knob);
//! 5. FCFS vs EASY backfill under background load (queue-wait term of the
//!    overhead claim).
//!
//! Run with: `cargo run -p onserve-bench --bin ablations`

use std::cell::Cell;
use std::rc::Rc;

use blobstore::WriteStrategy;
use gridsim::BackgroundLoad;
use gridsim::scheduler::SchedPolicy;
use onserve::profile::ExecutionProfile;
use onserve_bench::{par_sweep, Runner, KB};
use simkit::report::TextTable;
use simkit::{Duration, Sim, SimTime, MB};

fn main() {
    // ---- 1. storage strategy --------------------------------------------
    println!("==== ablation 1: storage write strategy (10 x 5 MB uploads) ====\n");
    let mut t = TextTable::new(vec!["strategy", "makespan", "disk written"]);
    let strategies = [
        ("double-write (paper)", WriteStrategy::DoubleWrite),
        ("direct", WriteStrategy::Direct),
    ];
    for row in par_sweep(&strategies, |_, &(label, strategy)| {
        let mut r = Runner::with_config(700, |c| c.write_strategy = strategy);
        let makespan = r.upload_burst("a", 10, 5 * 1024 * 1024, ExecutionProfile::quick());
        vec![
            label.to_string(),
            format!("{makespan:.1} s"),
            format!(
                "{:.0} MB",
                r.sim.recorder_ref().total("appliance.disk.write.bytes") / MB
            ),
        ]
    }) {
        t.row(row);
    }
    println!("{}", t.render());

    // ---- 2. staging reuse ------------------------------------------------
    println!("==== ablation 2: re-stage vs reuse (5 invocations of a 2 MB tool) ====\n");
    let mut t = TextTable::new(vec!["staging", "makespan", "bytes to grid"]);
    let staging_modes = [("re-upload every run (paper)", false), ("reuse staged file", true)];
    for row in par_sweep(&staging_modes, |_, &(label, reuse)| {
        let mut r = Runner::with_config(701, |c| {
            c.reuse_staged_files = reuse;
            c.broker = gridsim::BrokerPolicy::Fixed("ncsa".into());
        });
        r.publish(
            "tool.exe",
            2 * 1024 * 1024,
            ExecutionProfile::quick()
                .lasting(Duration::from_secs(30))
                .producing(4.0 * KB),
            &[],
        );
        let grid_in_before = r.sim.recorder_ref().total("ncsa.net.in.bytes");
        let mut makespan = 0.0;
        for _ in 0..5 {
            makespan += r.invoke_burst("tool", 1);
        }
        let grid_in = r.sim.recorder_ref().total("ncsa.net.in.bytes") - grid_in_before;
        vec![
            label.to_string(),
            format!("{makespan:.0} s"),
            format!("{:.1} MB", grid_in / MB),
        ]
    }) {
        t.row(row);
    }
    println!("{}", t.render());

    // ---- 3. session caching ----------------------------------------------
    println!("==== ablation 3: credential exchange per invocation vs cached sessions ====\n");
    let mut t = TextTable::new(vec!["sessions", "10-run makespan", "MyProxy traffic"]);
    let session_modes = [("authenticate every run (paper)", false), ("cached session", true)];
    for row in par_sweep(&session_modes, |_, &(label, cache)| {
        let mut r = Runner::with_config(702, |c| c.cache_grid_sessions = cache);
        r.publish(
            "s.exe",
            8 * 1024,
            ExecutionProfile::quick()
                .lasting(Duration::from_secs(15))
                .producing(2.0 * KB),
            &[],
        );
        // sequential runs: concurrent first-invocations would all miss the
        // cache at once
        let mut makespan = 0.0;
        for _ in 0..10 {
            makespan += r.invoke_burst("s", 1);
        }
        let mp = r.sim.recorder_ref().total("mp.fwd.bytes")
            + r.sim.recorder_ref().total("mp.rev.bytes");
        vec![
            label.to_string(),
            format!("{makespan:.0} s"),
            format!("{:.0} KB", mp / KB),
        ]
    }) {
        t.row(row);
    }
    println!("{}", t.render());

    // ---- 4. poll interval -------------------------------------------------
    println!("==== ablation 4: tentative output-poll interval (60 s job, 64 KB output) ====\n");
    let mut t = TextTable::new(vec![
        "interval",
        "latency",
        "polls",
        "bytes re-fetched",
    ]);
    let intervals = [3u64, 9, 30, 90];
    for row in par_sweep(&intervals, |_, &secs| {
        let mut r = Runner::with_config(703, |c| c.poll_interval = Duration::from_secs(secs));
        r.publish(
            "p.exe",
            8 * 1024,
            ExecutionProfile::quick()
                .lasting(Duration::from_secs(60))
                .producing(64.0 * KB),
            &[],
        );
        let polls_before = r.d.agent.polls_issued();
        let wan_before = {
            let rec = r.sim.recorder_ref();
            r.d.grid
                .sites()
                .iter()
                .map(|s| rec.total(&format!("wan.{}.down.bytes", s.name())))
                .sum::<f64>()
        };
        let latency = r.invoke_burst("p", 1);
        let rec = r.sim.recorder_ref();
        let refetched: f64 = r
            .d
            .grid
            .sites()
            .iter()
            .map(|s| rec.total(&format!("wan.{}.down.bytes", s.name())))
            .sum::<f64>()
            - wan_before;
        vec![
            format!("{secs} s"),
            format!("{latency:.0} s"),
            format!("{}", r.d.agent.polls_issued() - polls_before),
            format!("{:.0} KB", refetched / KB),
        ]
    }) {
        t.row(row);
    }
    println!("{}", t.render());
    println!(
        "short intervals cut completion latency but multiply the re-fetch\n\
         traffic (\"requests the application's output more often than\n\
         necessary which may reduce the network performance even more\").\n"
    );

    // ---- 5. batch policy under background load ----------------------------
    println!("==== ablation 5: FCFS vs EASY backfill under heavy background load ====\n");
    let mut t = TextTable::new(vec!["policy", "mean queue+run latency (8 x 1-core jobs)"]);
    let policies = [SchedPolicy::Fcfs, SchedPolicy::Backfill];
    for row in par_sweep(&policies, |_, &policy| {
        let mut sim = Sim::new(704);
        // a standalone site carrying the policy under test, kept busy by a
        // background stream, probed with onServe-shaped (small, short) jobs
        let standalone = gridsim::GridSite::new(
            gridsim::SiteSpec {
                policy,
                ..gridsim::SiteSpec::teragrid_like("abl", 4, 8)
            },
            "appliance",
            Rc::new(std::cell::RefCell::new(gridsim::CertAuthority::new("/CN=CA", 1))),
        );
        BackgroundLoad {
            mean_interarrival: Duration::from_secs(30),
            ..BackgroundLoad::moderate(SimTime::from_secs(4 * 3600))
        }
        .start(&mut sim, &standalone);
        sim.run_until(SimTime::from_secs(1800)); // warm the queue
        let mut latencies = Vec::new();
        for _ in 0..8 {
            let finished = Rc::new(Cell::new(-1.0));
            let f2 = finished.clone();
            let submit_at = sim.now();
            gridsim::ClusterScheduler::submit(
                standalone.scheduler(),
                &mut sim,
                gridsim::scheduler::SchedRequest {
                    cores: 1,
                    walltime_limit: Duration::from_secs(600),
                    actual_runtime: Duration::from_secs(120),
                },
                move |sim, _| f2.set(sim.now().as_secs_f64()),
            );
            let deadline = sim.now() + Duration::from_secs(3600);
            sim.run_until(deadline);
            if finished.get() > 0.0 {
                latencies.push(finished.get() - submit_at.as_secs_f64());
            }
        }
        let mean = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
        vec![format!("{policy:?}"), format!("{mean:.0} s")]
    }) {
        t.row(row);
    }
    println!("{}", t.render());
    println!(
        "backfill slips the onServe jobs (small, short) into scheduling\n\
         holes, cutting the queue-wait term of the §VIII-B overhead claim."
    );
}
