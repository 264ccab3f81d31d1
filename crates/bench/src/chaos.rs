//! The chaos experiment: goodput under a pinned crash schedule, with
//! front-door retry on vs off.
//!
//! A two-replica fleet serves long (200 s) invocations while a seeded
//! [`ChaosMonkey`] hard-kills a replica at three pinned instants; the
//! autoscaler replaces each loss (and nothing else — its load thresholds
//! are parked at infinity so `Replace` is the only decision it can make).
//! Because the service time is twice the inter-crash gap, roughly the
//! whole offered load is in flight whenever a crash lands, so each kill
//! puts about half the outstanding work on the dead replica:
//!
//! * retry **off** — every in-flight request on the victim comes back as
//!   a SOAP fault; over three crashes that is most of the run's traffic.
//! * retry **on** — the dispatcher resolves the same losses as
//!   `BackendLost`, backs off, and re-runs each request on the surviving
//!   replica; only the duplicate service time is paid.
//!
//! The goodput gap between the two rows is the point of the tentpole:
//! the golden test pins the ratio at ≥ 2x.
//!
//! Shared by the `chaos` binary and the golden determinism test so both
//! always describe the same experiment.

use fleet::{ArrivalProcess, ChaosMonkey, FleetSpec, Mix, RetryConfig};
use onserve::profile::ExecutionProfile;
use simkit::fault::FaultPlan;
use simkit::{Duration, KB};

use crate::fleetrun::{replicated_spec, FleetRun};

/// Open-loop offered load, requests/second.
pub const OFFERED_RPS: f64 = 0.5;

/// Seed shared by both rows — the schedule, victims and arrivals must be
/// identical so retry is the only variable.
pub const SEED: u64 = 0xc4a05;

/// Service time of the published executable.
pub fn service_time() -> Duration {
    Duration::from_secs(200)
}

/// Measurement window after the fleet is booted and provisioned.
pub fn horizon() -> Duration {
    Duration::from_secs(500)
}

/// The pinned crash schedule, offsets from the start of load. 100 s
/// between kills leaves room for the ~80 s replacement (autoscaler tick +
/// appliance boot) so the fleet is back to two replicas before the next
/// strike.
pub fn crash_offsets() -> Vec<Duration> {
    vec![
        Duration::from_secs(200),
        Duration::from_secs(300),
        Duration::from_secs(400),
    ]
}

/// One measured row.
pub struct ChaosPoint {
    /// Whether front-door retry was enabled.
    pub retry: bool,
    /// Requests issued by the generator.
    pub issued: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests answered with a SOAP fault.
    pub faulted: u64,
    /// Requests shed at the front door.
    pub shed: u64,
    /// Retry attempts the dispatcher made.
    pub retried: u64,
    /// Replicas lost to the chaos schedule.
    pub lost: u64,
    /// Replacement replicas the autoscaler booted.
    pub replaced: u64,
    /// Completions per second over the measurement window.
    pub goodput_rps: f64,
}

fn fleet_spec(retry: bool) -> FleetSpec {
    // the whole horizon's traffic can be in flight at once
    let mut spec = replicated_spec(2, 512);
    spec.dispatcher.retry = retry.then(RetryConfig::default);
    spec
}

/// Run one row: boot, provision, unleash the schedule, offer load.
pub fn run_point(retry: bool) -> ChaosPoint {
    let mut run = FleetRun::new(SEED, fleet_spec(retry), false);
    run.provision(
        ExecutionProfile::quick()
            .lasting(service_time())
            .producing(64.0 * KB),
    );
    let until = run.sim.now() + horizon();
    run.replace_losses(2, 6, until);
    let mut plan = FaultPlan::new(SEED);
    for t in crash_offsets() {
        plan = plan.crash_at(t);
    }
    let monkey = ChaosMonkey::unleash(&mut run.sim, &run.fleet, &plan);
    let stats = run.offer(
        ArrivalProcess::Poisson { rate: OFFERED_RPS },
        Mix::invoke_only(&["app"]),
        until,
    );
    let c = run.drain(); // every outstanding request and retry
    assert_eq!(monkey.landed(), run.fleet.lost_total());
    ChaosPoint {
        retry,
        issued: stats.issued(),
        completed: stats.completed(),
        faulted: stats.faulted(),
        shed: c.shed,
        retried: c.retried,
        lost: run.fleet.lost_total(),
        replaced: run.fleet.booted_total() - 2,
        goodput_rps: stats.completed() as f64 / horizon().as_secs_f64(),
    }
}

/// Run both rows (retry on, retry off) in parallel.
pub fn sweep() -> Vec<ChaosPoint> {
    crate::par_sweep(&[true, false], |_, &retry| run_point(retry))
}

/// Render the sweep as the CSV committed under `tests/golden/`.
pub fn csv(points: &[ChaosPoint]) -> String {
    let mut out = String::from(
        "retry,issued,completed,faulted,shed,retried,replicas_lost,replicas_replaced,goodput_rps\n",
    );
    for p in points {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{:.4}\n",
            if p.retry { "on" } else { "off" },
            p.issued,
            p.completed,
            p.faulted,
            p.shed,
            p.retried,
            p.lost,
            p.replaced,
            p.goodput_rps
        ));
    }
    out
}
