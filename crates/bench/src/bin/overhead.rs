//! The §VIII-B overhead claim, quantified.
//!
//! "The additional overhead added by Cyberaide onServe should be quite
//! small compared to the runtime of a typical executable a Grid-Web
//! service is generated for." And the small-file regime: "the provided
//! solution is quite good in a scenario using a lot of relatively small
//! files ... K-GRAM permits to submit a large number of jobs quite
//! efficiently."
//!
//! Part 1 sweeps job runtime and prints SaaS-vs-raw-JSE latency; part 2
//! drives a burst of 200 small jobs through the SaaS layer and reports the
//! submission throughput.
//!
//! Run with: `cargo run -p onserve-bench --bin overhead`

use std::cell::Cell;
use std::rc::Rc;

use cyberaide::OutputPoller;
use onserve::deployment::{Deployment, DeploymentSpec};
use onserve::profile::ExecutionProfile;
use onserve_bench::{par_sweep, Runner, KB};
use simkit::report::TextTable;
use simkit::{Duration, Sim};

/// Raw JSE path: agent driven directly, no SaaS layer.
fn raw_jse_latency(runtime: Duration, exe_bytes: f64, out_bytes: f64, seed: u64) -> f64 {
    let mut sim = Sim::new(seed);
    let d = Deployment::build(&mut sim, &DeploymentSpec::default());
    let t0 = sim.now();
    let done_at = Rc::new(Cell::new(0.0));
    let da = done_at.clone();
    let agent = Rc::clone(&d.agent);
    let grid = Rc::clone(&d.grid);
    agent
        .clone()
        .authenticate(&mut sim, "alice", "s3cret", move |sim, auth| {
            let session = auth.expect("auth");
            let site = grid
                .select(&gridsim::BrokerPolicy::MostFreeCores, 1, sim.now())
                .expect("site");
            let agent2 = Rc::clone(&agent);
            let site2 = Rc::clone(&site);
            agent.stage_file(sim, session, &site, "job.exe", exe_bytes, move |sim, st| {
                st.expect("stage");
                let jd = agent2
                    .generate_job_description("job.exe", &[], "job.out")
                    .walltime(Duration::from_secs_f64(runtime.as_secs_f64() * 4.0));
                let exec = gridsim::gram::ExecutionModel {
                    actual_runtime: runtime,
                    output_bytes: out_bytes,
                };
                let agent3 = Rc::clone(&agent2);
                let site3 = Rc::clone(&site2);
                agent2
                    .clone()
                    .submit_job(sim, session, &site3, &jd, exec, move |sim, sub| {
                        let handle = sub.expect("submit");
                        // 1 s polling in both paths so the comparison is not
                        // quantized away by the 9 s default interval
                        OutputPoller {
                            interval: Duration::from_secs(1),
                            timeout: Duration::from_secs(24 * 3600),
                        }
                        .start(
                            sim,
                            agent3,
                            session,
                            site2,
                            handle,
                            move |sim, polled| {
                                polled.expect("output");
                                da.set(sim.now().as_secs_f64());
                            },
                        );
                    });
            });
        });
    sim.run();
    done_at.get() - t0.as_secs_f64()
}

/// SaaS path: one invocation through the full stack (publish excluded).
fn saas_latency(runtime: Duration, exe_bytes: usize, out_bytes: f64, seed: u64) -> f64 {
    let mut r = Runner::with_config(seed, |c| c.poll_interval = Duration::from_secs(1));
    r.publish(
        "job.exe",
        exe_bytes,
        ExecutionProfile::quick()
            .lasting(runtime)
            .producing(out_bytes),
        &[],
    );
    let t0 = r.sim.now();
    let (res, at) = r.invoke_blocking("job", &[]);
    res.expect("invoke");
    (at - t0).as_secs_f64()
}

fn main() {
    println!("==== overhead sweep: SaaS vs raw JSE ====\n");
    let runtimes: Vec<u64> = vec![1, 10, 60, 300, 1800, 3600];
    let rows = par_sweep(&runtimes, |i, &rt| {
        let runtime = Duration::from_secs(rt);
        let raw = raw_jse_latency(runtime, 128.0 * KB, 32.0 * KB, 500 + i as u64);
        let saas = saas_latency(runtime, 128 * 1024, 32.0 * KB, 510 + i as u64);
        (rt, raw, saas)
    });
    let mut t = TextTable::new(vec![
        "job runtime",
        "raw JSE",
        "onServe SaaS",
        "middleware overhead",
        "overhead / runtime",
    ]);
    for &(rt, raw, saas) in &rows {
        t.row(vec![
            format!("{rt} s"),
            format!("{raw:.1} s"),
            format!("{saas:.1} s"),
            format!("{:+.3} s", saas - raw),
            format!("{:.3}%", 100.0 * (saas - raw) / rt as f64),
        ]);
    }
    println!("{}", t.render());
    println!(
        "paper claim holds when \"overhead / runtime\" collapses for typical\n\
         (minutes+) executables.\n"
    );

    println!("==== many-small-jobs throughput (the K-GRAM regime) ====\n");
    let mut r = Runner::new(600, &DeploymentSpec::default());
    r.publish(
        "micro.exe",
        8 * 1024,
        ExecutionProfile::quick()
            .lasting(Duration::from_secs(20))
            .producing(4.0 * KB),
        &[],
    );
    let n = 200;
    let wall = r.invoke_burst("micro", n);
    println!("  {n} small jobs (8 KB exe, 20 s runtime) completed in {wall:.0} s");
    println!(
        "  sustained rate: {:.1} jobs/min across {} sites",
        n as f64 * 60.0 / wall,
        r.d.grid.sites().len()
    );
    println!(
        "  total tentative polls: {} ({:.1} per job)",
        r.d.agent.polls_issued(),
        r.d.agent.polls_issued() as f64 / n as f64
    );
}
