//! The noisy-neighbor experiment: per-tenant QoS at the front door
//! under a single flooding tenant.
//!
//! A four-replica fleet serves 23 well-behaved tenants offering a light
//! aggregate load, plus one flooding tenant offering more than the whole
//! fleet's capacity. Three rows, same seed — the behaved arrival stream
//! is forked first so it is byte-identical whether or not the flood runs:
//!
//! * **base** — no flood: the behaved tenants' no-contention baseline.
//! * **off** — flood on, QoS off: the flooder grabs the entire global
//!   admission window, every admitted behaved request sits behind
//!   hundreds of flood requests, and behaved p99 collapses.
//! * **on** — flood on, QoS on: the behaved tenants are registered gold;
//!   the flooder arrives unregistered and rides the batch tier, so its
//!   admission quota is a sliver of the window, its backlog waits in its
//!   own bounded door queue (overflow shed, counted per tenant), and the
//!   behaved tenants' p99 holds at the baseline while the flooder's
//!   degrades.
//!
//! The golden test pins the fairness claim: `on` behaved p99 within 1.2×
//! of `base`, `off` behaved p99 at least 5× worse, flooder p99 under QoS
//! at least 5× the behaved p99 — same seed, byte-identical CSV and
//! Prometheus exposition (`tenant="..."` labels appear only in the QoS
//! row).
//!
//! Shared by the `noisyneighbor` binary and the golden determinism test
//! so both always describe the same experiment.

use std::rc::Rc;

use fleet::{ArrivalProcess, HealthConfig, HealthPlane, Mix, QosConfig, QosTier};
use onserve::profile::ExecutionProfile;
use simkit::{Duration, KB};

use crate::fleetrun::{replicated_spec, FleetRun};

/// Seed shared by all rows.
pub const SEED: u64 = 0x9019;

/// Well-behaved tenants (`user1` .. `user23`), registered gold under QoS.
pub const BEHAVED_TENANTS: usize = 23;

/// Aggregate behaved offered load, requests/second — far below capacity.
pub const BEHAVED_RPS: f64 = 0.4;

/// The flooding tenant's offered load, requests/second — alone above the
/// whole fleet's ~3.8 req/s capacity.
pub const FLOOD_RPS: f64 = 6.0;

/// The flooding tenant's principal. Deliberately *not* in the QoS tier
/// map: unknown tenants ride the configured default tier.
pub const FLOOD_TENANT: &str = "flood";

/// Replicas behind the dispatcher.
pub const REPLICAS: usize = 4;

/// Global admission window. Large enough that, QoS off, the flooder's
/// backlog queues deep inside the replicas instead of shedding at the
/// door — the collapse the QoS row prevents.
pub const MAX_IN_FLIGHT: usize = 320;

/// Per-tenant door-queue bound under QoS.
pub const QUEUE_DEPTH: usize = 64;

/// Measurement window after boot and provisioning.
pub fn horizon() -> Duration {
    Duration::from_secs(600)
}

/// The three experiment rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Behaved tenants only — the no-flood baseline.
    Base,
    /// Flood on, QoS off: one global window, first come first served.
    QosOff,
    /// Flood on, QoS on: quotas + weighted fair queueing.
    QosOn,
}

impl Mode {
    /// All rows, in golden-CSV order.
    pub const ALL: [Mode; 3] = [Mode::Base, Mode::QosOff, Mode::QosOn];

    /// The CSV row label.
    pub fn label(self) -> &'static str {
        match self {
            Mode::Base => "base",
            Mode::QosOff => "off",
            Mode::QosOn => "on",
        }
    }
}

/// One measured row.
pub struct NoisyPoint {
    /// Which row this is.
    pub mode: Mode,
    /// Behaved requests issued (identical across rows by construction).
    pub behaved_issued: u64,
    /// Behaved requests answered successfully.
    pub behaved_ok: u64,
    /// Behaved requests answered with a fault (sheds included).
    pub behaved_shed: u64,
    /// Behaved p99 latency across all 23 tenants, seconds.
    pub behaved_p99_s: f64,
    /// The worst single behaved tenant's p99, seconds.
    pub worst_p99_s: f64,
    /// Flood requests issued (0 in the base row).
    pub flood_issued: u64,
    /// Flood requests answered successfully.
    pub flood_ok: u64,
    /// Flood requests answered with a fault (sheds included).
    pub flood_shed: u64,
    /// Flooder p99 latency, seconds (0 in the base row).
    pub flood_p99_s: f64,
    /// Requests that transited a QoS door queue.
    pub door_queued: u64,
    /// Requests shed by the QoS stage (queue overflow / dead fleet).
    pub door_shed: u64,
    /// Prometheus text exposition captured at the end of the run.
    pub prom: String,
}

/// The QoS plane the `on` row runs: behaved tenants registered gold,
/// unknown tenants (the flooder) defaulted to batch, no borrowing — the
/// flooder's quota is `max(1, 320·1/93) = 3` admission slots.
pub fn qos_config() -> QosConfig {
    QosConfig {
        default_tier: QosTier::Batch,
        tiers: (1..=BEHAVED_TENANTS)
            .map(|i| (format!("user{i}"), QosTier::Gold))
            .collect(),
        queue_depth: QUEUE_DEPTH,
        borrow: 0,
    }
}

/// Run one row: boot, publish, offer the behaved stream (plus the flood
/// in non-base rows) and read the tenant-sliced stats at the end.
pub fn run_point(mode: Mode) -> NoisyPoint {
    let mut run = FleetRun::new(SEED, replicated_spec(REPLICAS, MAX_IN_FLIGHT), true);
    run.provision(
        ExecutionProfile::quick()
            .lasting(Duration::from_secs(2))
            .producing(16.0 * KB),
    );
    let plane = HealthPlane::new(HealthConfig::default());
    run.fleet.dispatcher().set_health_plane(Rc::clone(&plane));
    if mode == Mode::QosOn {
        run.fleet.dispatcher().set_qos(qos_config());
    }
    let until = run.sim.now() + horizon();
    // the behaved generator forks its rng stream FIRST, so its arrival
    // schedule is bit-identical whether or not the flood starts
    let behaved_targets: Vec<(String, String)> = (1..=BEHAVED_TENANTS)
        .map(|i| ("app".to_owned(), format!("user{i}")))
        .collect();
    let behaved_refs: Vec<(&str, &str)> = behaved_targets
        .iter()
        .map(|(s, p)| (s.as_str(), p.as_str()))
        .collect();
    let behaved = run.offer(
        ArrivalProcess::Poisson { rate: BEHAVED_RPS },
        Mix::invoke_as(&behaved_refs),
        until,
    );
    behaved.track_tenants();
    let flood = (mode != Mode::Base).then(|| {
        run.offer(
            ArrivalProcess::Poisson { rate: FLOOD_RPS },
            Mix::invoke_as(&[("app", FLOOD_TENANT)]),
            until,
        )
    });
    // the drain closes the audit: door and per-tenant ledgers balanced
    run.drain();
    let end = run.sim.now();
    let worst_p99_s = behaved
        .tenants()
        .iter()
        .map(|t| behaved.tenant_latency_percentile(t, 99.0))
        .fold(0.0, f64::max);
    let t = run.sim.telemetry().expect("telemetry on");
    NoisyPoint {
        mode,
        behaved_issued: behaved.issued(),
        behaved_ok: behaved.completed(),
        behaved_shed: behaved.faulted(),
        behaved_p99_s: behaved.latency_percentile(99.0),
        worst_p99_s,
        flood_issued: flood.as_ref().map_or(0, |f| f.issued()),
        flood_ok: flood.as_ref().map_or(0, |f| f.completed()),
        flood_shed: flood.as_ref().map_or(0, |f| f.faulted()),
        flood_p99_s: flood.as_ref().map_or(0.0, |f| f.latency_percentile(99.0)),
        door_queued: t.counter("dispatcher.qos_enqueued"),
        door_shed: t.counter("dispatcher.qos_shed"),
        prom: plane.prometheus_text(end),
    }
}

/// Run all three rows in parallel.
pub fn sweep() -> Vec<NoisyPoint> {
    crate::par_sweep(&Mode::ALL, |_, &mode| run_point(mode))
}

/// Render the sweep as the CSV committed under `tests/golden/`.
pub fn csv(points: &[NoisyPoint]) -> String {
    let mut out = String::from(
        "mode,behaved_issued,behaved_ok,behaved_shed,behaved_p99_s,worst_p99_s,flood_issued,flood_ok,flood_shed,flood_p99_s,door_queued,door_shed\n",
    );
    for p in points {
        out.push_str(&format!(
            "{},{},{},{},{:.4},{:.4},{},{},{},{:.4},{},{}\n",
            p.mode.label(),
            p.behaved_issued,
            p.behaved_ok,
            p.behaved_shed,
            p.behaved_p99_s,
            p.worst_p99_s,
            p.flood_issued,
            p.flood_ok,
            p.flood_shed,
            p.flood_p99_s,
            p.door_queued,
            p.door_shed,
        ));
    }
    out
}
