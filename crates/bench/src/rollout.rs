//! The rollout experiment: the zero-downtime contract, measured.
//!
//! One three-replica fleet, one seed, one paced arrival schedule — and
//! four ways to move it from v1 to v2:
//!
//! * **restart** — the naive baseline: kill every replica, boot v2.
//!   Everything in flight faults and everything arriving during the
//!   boot window is refused; `dropped > 0` is the row's whole point.
//! * **rolling** — boot a v2 replica, wait until it serves, drain and
//!   retire one v1, repeat. Nothing is dropped, nothing faults.
//! * **canary-promote** — boot one v2 canary, shift half the affinity
//!   pins and half of first-sight traffic onto it, judge its windowed
//!   p99 against the v1 pack for four minutes, then promote into the
//!   rolling path. Nothing is dropped and the fleet ends on v2.
//! * **canary-rollback** — same schedule, but a seeded [`ChaosMonkey`]
//!   `slow_at` lemon degrades the canary to 10× mid-judgment. The judge
//!   fails it, the rollback drains the canary, restores every shifted
//!   pin, and reverts the target version; the fleet ends on v1 with its
//!   final-window p99 back at the healthy baseline.
//!
//! All four rows share [`SEED`] and the arrival schedule, so the
//! strategy is the only variable. The golden test pins the CSV
//! byte-for-byte and asserts the contract row by row.
//!
//! Shared by the `rollout` binary and the golden determinism test so
//! both always describe the same experiment.

use std::cell::RefCell;
use std::rc::Rc;

use fleet::{
    AffinityConfig, CanaryConfig, ChaosMonkey, FleetSpec, HealthPlane, RolloutConfig,
    RolloutController, RolloutOutcome, RolloutStrategy,
};
use onserve::profile::ExecutionProfile;
use simkit::fault::FaultPlan;
use simkit::{Duration, KB};

use crate::fleetrun::{pace, replicated_spec, slow_replica_health, FleetRun};

/// Seed shared by all four rows — arrivals, boots, and pin placement
/// must be identical so the strategy is the only variable.
pub const SEED: u64 = 0x726f_6c6c; // "roll"

/// Fault-plan seed for the rollback row's lemon, probed so the uniform
/// `slow_at` draw among the four actives lands on the canary. The
/// runtime assert (`rollbacks == 1`) keeps it honest: a slowed *peer*
/// would make the canary look good and promote instead.
pub const LEMON_SEED: u64 = 0;

/// Replicas booted before load starts.
pub const REPLICAS: usize = 3;

/// Version every row rolls toward (the fleet starts at 1).
pub const TO_VERSION: u32 = 2;

/// Latency multiplier the rollback row's lemon applies to the canary.
pub const SLOW_FACTOR: f64 = 10.0;

/// Deterministic arrival spacing, fleet-wide — same pacing as the
/// gray-failure experiment: comfortably under capacity at three
/// replicas and ~15.5 s per answer.
pub fn arrival_gap() -> Duration {
    Duration::from_secs(6)
}

/// Measurement window after the fleet is booted and provisioned.
pub fn horizon() -> Duration {
    Duration::from_secs(1200)
}

/// Offset of the rollout kickoff from the start of load.
pub fn roll_offset() -> Duration {
    Duration::from_secs(60)
}

/// Offset of the rollback row's slow strike — the canary is active and
/// under judgment by then (kickoff + ~75 s boot).
pub fn lemon_offset() -> Duration {
    Duration::from_secs(180)
}

/// Canary judgment knobs shared by both canary rows.
pub fn canary_config() -> CanaryConfig {
    CanaryConfig {
        pin_fraction: 0.5,
        first_sight_pct: 50,
        judgment: Duration::from_secs(240),
        p99_factor: 3.0,
        min_samples: 2,
    }
}

/// The four upgrade strategies under measurement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RolloutMode {
    /// Kill everything, boot v2 — the dropped-work baseline.
    Restart,
    /// Boot-then-retire, one replica at a time.
    Rolling,
    /// Canary judged healthy, promoted into the rolling path.
    CanaryPromote,
    /// Canary degraded by the lemon, auto-rolled back.
    CanaryRollback,
}

impl RolloutMode {
    /// Row label used in the CSV.
    pub fn label(&self) -> &'static str {
        match self {
            RolloutMode::Restart => "restart",
            RolloutMode::Rolling => "rolling",
            RolloutMode::CanaryPromote => "canary-promote",
            RolloutMode::CanaryRollback => "canary-rollback",
        }
    }
}

/// One measured row.
pub struct RolloutPoint {
    /// Strategy this row ran.
    pub mode: RolloutMode,
    /// Requests issued by the pacer.
    pub issued: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests that never got a good answer (refused or faulted).
    pub dropped: u64,
    /// Requests answered with a SOAP fault.
    pub failed: u64,
    /// Old-version replicas the controller retired and replaced.
    pub replaced: u64,
    /// Rollbacks the controller executed.
    pub rollbacks: u64,
    /// How the rollout ended.
    pub outcome: &'static str,
    /// Final `version:count` census, `|`-joined.
    pub versions: String,
    /// Fleet-wide windowed p99 over the final lookback, seconds.
    pub fleet_p99_s: f64,
    /// Prometheus text exposition captured at the end of the run.
    pub prom: String,
}

fn fleet_spec() -> FleetSpec {
    let mut spec = replicated_spec(REPLICAS, 1024);
    // canary pin shifts ride the affinity plane
    spec.dispatcher.affinity = Some(AffinityConfig::default());
    spec.base.config.cache_grid_sessions = true;
    spec
}

/// Run one row (only the rollback row arms the lemon), asserting the
/// outcome the row exists to demonstrate.
pub fn run_point(mode: RolloutMode) -> RolloutPoint {
    let mut run = FleetRun::new(SEED, fleet_spec(), false);
    run.provision(
        ExecutionProfile::quick()
            .lasting(Duration::from_millis(200))
            .producing(16.0 * KB),
    );
    let plane = HealthPlane::new(slow_replica_health());
    run.fleet.dispatcher().set_health_plane(Rc::clone(&plane));
    let until = run.sim.now() + horizon();
    let monkey = (mode == RolloutMode::CanaryRollback).then(|| {
        ChaosMonkey::unleash(
            &mut run.sim,
            &run.fleet,
            &FaultPlan::new(LEMON_SEED).slow_at(lemon_offset(), SLOW_FACTOR),
        )
    });
    let cfg = match mode {
        RolloutMode::Restart => RolloutConfig::restart(TO_VERSION),
        RolloutMode::Rolling => RolloutConfig {
            min_healthy: 2,
            ..RolloutConfig::rolling(TO_VERSION)
        },
        RolloutMode::CanaryPromote | RolloutMode::CanaryRollback => RolloutConfig {
            strategy: RolloutStrategy::Canary(canary_config()),
            min_healthy: 2,
            ..RolloutConfig::rolling(TO_VERSION)
        },
    };
    let ctl: Rc<RefCell<Option<Rc<RolloutController>>>> = Rc::new(RefCell::new(None));
    let (f2, a2, c2) = (Rc::clone(&run.fleet), Rc::clone(&run.audit), Rc::clone(&ctl));
    run.sim.schedule(roll_offset(), move |sim| {
        let started = RolloutController::start(sim, &f2, cfg);
        a2.watch_rollout(&started);
        *c2.borrow_mut() = Some(started);
    });
    let paced = pace(&mut run, arrival_gap(), until, |_, n| {
        Some(["alice", "bob", "carol"][(n % 3) as usize].into())
    });
    run.sim.run_until(until);
    // the final-lookback p99 and the exposition, read before the drain
    let fleet_p99_s = plane.fleet_p99(run.sim.now()).unwrap_or(-1.0);
    let prom = plane.prometheus_text(run.sim.now());
    let c = run.drain(); // everything still in flight
    if let Some(m) = &monkey {
        assert_eq!(m.slowed(), 1, "the pinned lemon strike landed");
    }
    let ctl = ctl.borrow().clone().expect("rollout started");
    let (issued, completed) = (paced.issued.get(), paced.ok.get());
    let versions = run
        .fleet
        .version_counts()
        .into_iter()
        .map(|(v, n)| format!("{v}:{n}"))
        .collect::<Vec<_>>()
        .join("|");
    let outcome = match ctl.outcome() {
        None => "pending",
        Some(RolloutOutcome::Completed) => "completed",
        Some(RolloutOutcome::Promoted) => "promoted",
        Some(RolloutOutcome::RolledBack) => "rolled-back",
    };
    let want = match mode {
        RolloutMode::Restart | RolloutMode::Rolling => "completed",
        RolloutMode::CanaryPromote => "promoted",
        RolloutMode::CanaryRollback => "rolled-back",
    };
    assert_eq!(outcome, want, "{} rollout outcome", mode.label());
    if mode == RolloutMode::CanaryRollback {
        assert_eq!(ctl.rollbacks(), 1, "exactly one rollback");
    }
    RolloutPoint {
        mode,
        issued,
        completed,
        dropped: issued - completed,
        failed: c.faulted,
        replaced: ctl.replaced(),
        rollbacks: ctl.rollbacks(),
        outcome,
        versions,
        fleet_p99_s,
        prom,
    }
}

/// Run all four rows in parallel.
pub fn sweep() -> Vec<RolloutPoint> {
    crate::par_sweep(
        &[
            RolloutMode::Restart,
            RolloutMode::Rolling,
            RolloutMode::CanaryPromote,
            RolloutMode::CanaryRollback,
        ],
        |_, &mode| run_point(mode),
    )
}

/// Render the sweep as the CSV committed under `tests/golden/`.
pub fn csv(points: &[RolloutPoint]) -> String {
    let mut out = String::from(
        "mode,issued,completed,dropped,failed,replaced,rollbacks,outcome,versions,fleet_p99_s\n",
    );
    for p in points {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{:.4}\n",
            p.mode.label(),
            p.issued,
            p.completed,
            p.dropped,
            p.failed,
            p.replaced,
            p.rollbacks,
            p.outcome,
            p.versions,
            p.fleet_p99_s,
        ));
    }
    out
}
