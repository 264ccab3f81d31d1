//! The gray-failure experiment: tail latency under a pinned slow-replica
//! schedule, with the health-plane detector on vs off.
//!
//! A three-replica fleet serves steadily paced invocations (~15.5 s end
//! to end each through upload-fetch + grid execution) while a seeded
//! [`ChaosMonkey`] degrades one replica to 10× its service latency at a
//! pinned instant. The replica keeps answering, so crash detection never
//! fires — only the windowed health plane can see it:
//!
//! * detector **off** — round-robin keeps handing the victim a third of
//!   the traffic; its queue grows without bound and the fleet-wide p99
//!   is pinned to the degraded path for the rest of the run.
//! * detector **on** — the peer-relative detector sees the victim's
//!   windowed p99 sustain ≥ 3× the fleet median, probation-weights it in
//!   the dispatcher, and after continued strikes ejects it like a crash;
//!   the replacement-only autoscaler boots a fresh replica and the fleet
//!   p99 recovers toward the healthy baseline.
//!
//! Both rows attach the [`HealthPlane`] (it is measurement either way —
//! attachment is result-neutral); only the `on` row installs the
//! [`GrayFailureDetector`]. The golden test pins the CSV byte-for-byte
//! and asserts the detector row flags the victim within bounded virtual
//! time and lands a strictly better fleet p99 than the control row.
//!
//! Shared by the `grayfail` binary and the golden determinism test so
//! both always describe the same experiment.

use std::rc::Rc;

use fleet::{ChaosMonkey, DetectorAction, GrayFailureDetector, HealthPlane};
use onserve::profile::ExecutionProfile;
use simkit::fault::FaultPlan;
use simkit::{Duration, SimTime, KB};

use crate::fleetrun::{pace, replicated_spec, slow_replica_health, FleetRun};

/// Seed shared by both rows — the slow-strike victim and every arrival
/// must be identical so the detector is the only variable.
pub const SEED: u64 = 0x6772_6179;

/// Replicas booted before load starts.
pub const REPLICAS: usize = 3;

/// Deterministic arrival spacing, fleet-wide. One request per 6 s
/// against three replicas that each take ~15.5 s per request keeps the
/// healthy pair comfortably under capacity even while it carries the
/// probationer's share.
pub fn arrival_gap() -> Duration {
    Duration::from_secs(6)
}

/// Measurement window after the fleet is booted and provisioned.
pub fn horizon() -> Duration {
    Duration::from_secs(1200)
}

/// Offset of the pinned slow strike from the start of load.
pub fn degrade_offset() -> Duration {
    Duration::from_secs(120)
}

/// Latency multiplier the strike applies to the victim.
pub const SLOW_FACTOR: f64 = 10.0;

/// One measured row.
pub struct GrayfailPoint {
    /// Whether the gray-failure detector was installed.
    pub detector: bool,
    /// Requests issued by the pacer.
    pub issued: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests answered with a SOAP fault.
    pub faulted: u64,
    /// Probation events the detector raised.
    pub probations: u64,
    /// Ejections the detector escalated to.
    pub ejections: u64,
    /// Replacement replicas the autoscaler booted.
    pub replaced: u64,
    /// Seconds from the degrade to the first probation (-1 if never).
    pub first_probation_s: f64,
    /// Seconds from the degrade to the ejection (-1 if never).
    pub first_eject_s: f64,
    /// Fleet-wide windowed p99 over the final lookback, seconds.
    pub fleet_p99_s: f64,
    /// Prometheus text exposition captured at the end of the run.
    pub prom: String,
    /// Windowed time-series CSV captured at the end of the run.
    pub timeseries: String,
}

/// Run one row: boot, provision, attach the plane, unleash the slow
/// strike, offer paced load, read the plane at the end.
pub fn run_point(detector: bool) -> GrayfailPoint {
    // the victim's backlog must queue, not shed: the control row pins
    // hundreds of requests behind the degraded replica
    let mut run = FleetRun::new(SEED, replicated_spec(REPLICAS, 1024), false);
    run.provision(
        ExecutionProfile::quick()
            .lasting(Duration::from_millis(200))
            .producing(16.0 * KB),
    );
    let plane = HealthPlane::new(slow_replica_health());
    run.fleet.dispatcher().set_health_plane(Rc::clone(&plane));
    let t0 = run.sim.now();
    let until = t0 + horizon();
    // capacity changes come from the detector alone
    run.replace_losses(REPLICAS, REPLICAS + 2, until);
    let monkey = ChaosMonkey::unleash(
        &mut run.sim,
        &run.fleet,
        &FaultPlan::new(SEED).slow_at(degrade_offset(), SLOW_FACTOR),
    );
    let sentry =
        detector.then(|| GrayFailureDetector::install(&mut run.sim, &run.fleet, &plane, until));
    let paced = pace(&mut run, arrival_gap(), until, |_, n| {
        Some(["alice", "bob", "carol"][(n % 3) as usize].into())
    });
    run.sim.run_until(until);
    let end = run.sim.now();
    assert_eq!(monkey.slowed(), 1, "the pinned slow strike landed");
    let degrade_at = t0 + degrade_offset();
    let since = |at: Option<SimTime>| at.map_or(-1.0, |t| (t - degrade_at).as_secs_f64());
    let events = sentry.as_ref().map_or(Vec::new(), |s| s.events());
    let first = |action: DetectorAction| {
        events.iter().find(|e| e.action == action).map(|e| e.at)
    };
    GrayfailPoint {
        detector,
        issued: paced.issued.get(),
        completed: paced.ok.get(),
        faulted: paced.bad.get(),
        probations: sentry.as_ref().map_or(0, |s| s.probations() as u64),
        ejections: sentry.as_ref().map_or(0, |s| s.ejections() as u64),
        replaced: run.fleet.booted_total() - REPLICAS as u64,
        first_probation_s: since(first(DetectorAction::Probation)),
        first_eject_s: since(first(DetectorAction::Ejected)),
        fleet_p99_s: plane.fleet_p99(end).unwrap_or(-1.0),
        prom: plane.prometheus_text(end),
        timeseries: plane.timeseries_csv(),
    }
}

/// Run both rows (detector on, detector off) in parallel.
pub fn sweep() -> Vec<GrayfailPoint> {
    crate::par_sweep(&[true, false], |_, &detector| run_point(detector))
}

/// Render the sweep as the CSV committed under `tests/golden/`.
pub fn csv(points: &[GrayfailPoint]) -> String {
    let mut out = String::from(
        "detector,issued,completed,faulted,probations,ejections,replaced,first_probation_s,first_eject_s,fleet_p99_s\n",
    );
    for p in points {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{:.1},{:.1},{:.4}\n",
            if p.detector { "on" } else { "off" },
            p.issued,
            p.completed,
            p.faulted,
            p.probations,
            p.ejections,
            p.replaced,
            p.first_probation_s,
            p.first_eject_s,
            p.fleet_p99_s,
        ));
    }
    out
}
