//! The session-affinity experiment: credential work and latency with
//! sticky routing on vs off.
//!
//! A four-replica fleet hosts one service per tenant, each published under
//! its own grid identity, with the per-replica session cache enabled. A
//! closed-loop population invokes the services carrying the owning tenant
//! as the request principal:
//!
//! * affinity **off** — round-robin scatters every tenant over all four
//!   replicas, so each replica ends up authenticating each tenant once:
//!   ~`tenants × replicas` MyProxy exchanges, and the tail of first-touch
//!   requests pays the credential latency.
//! * affinity **on** — each tenant is pinned to one replica on first
//!   sight, so the fleet authenticates each tenant exactly once and every
//!   later request rides that replica's cached session.
//!
//! The golden test pins the gap: fewer `agent.authenticate` spans and a
//! lower mean latency for the affinity row, same seed, byte-identical CSV.
//!
//! Shared by the `affinity` binary and the golden determinism test so both
//! always describe the same experiment.

use fleet::{AffinityConfig, ArrivalProcess, FleetSpec, Mix};
use onserve::profile::ExecutionProfile;
use simkit::{Duration, KB};

use crate::fleetrun::{replicated_spec, FleetRun};

/// Seed shared by both rows — arrivals and think times must be identical
/// so sticky routing is the only variable.
pub const SEED: u64 = 0xaff1;

/// Distinct grid identities, one service each.
pub const TENANTS: usize = 24;

/// Open-loop offered load, requests/second. Low enough that the replicas
/// rarely queue — the rows then differ by credential work, not contention.
pub const OFFERED_RPS: f64 = 0.6;

/// Replicas behind the dispatcher.
pub const REPLICAS: usize = 4;

/// Measurement window after boot and provisioning.
pub fn horizon() -> Duration {
    Duration::from_secs(600)
}

/// One measured row.
pub struct AffinityPoint {
    /// Whether sticky routing was enabled.
    pub affinity: bool,
    /// Requests issued by the generator.
    pub issued: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests answered with a SOAP fault.
    pub faulted: u64,
    /// `agent.authenticate` spans across the whole fleet — the credential
    /// exchanges the run actually paid for.
    pub auth_spans: u64,
    /// Cached-session reuses across all replicas.
    pub session_hits: u64,
    /// Requests routed to their pinned replica.
    pub affinity_hits: u64,
    /// First-sight pins (base-policy picks).
    pub affinity_misses: u64,
    /// Mean request latency, seconds.
    pub mean_latency_s: f64,
    /// 95th-percentile request latency, seconds.
    pub p95_latency_s: f64,
}

fn fleet_spec(affinity: bool) -> FleetSpec {
    let mut spec = replicated_spec(REPLICAS, 256);
    spec.dispatcher.affinity = affinity.then(AffinityConfig::default);
    // both rows cache sessions and staged executables — affinity decides
    // how often a request lands where the session and the staging already
    // are, instead of paying the first-touch cost on another replica
    spec.base.config.cache_grid_sessions = true;
    spec.base.config.reuse_staged_files = true;
    spec
}

/// Run one row: boot, publish one service per tenant, offer the same
/// Poisson arrival schedule with the owning tenant as each request's
/// principal.
pub fn run_point(affinity: bool) -> AffinityPoint {
    let mut run = FleetRun::new(SEED, fleet_spec(affinity), true);
    run.sim.run(); // cold-start the replicas
    let names: Vec<(String, String)> = (0..TENANTS)
        .map(|i| (format!("app{i}"), format!("user{i}")))
        .collect();
    for (app, user) in &names {
        run.fleet.publish_as(
            &mut run.sim,
            &format!("{app}.exe"),
            64 * 1024,
            ExecutionProfile::quick()
                .lasting(Duration::from_secs(1))
                .producing(16.0 * KB),
            Some((user, "pw")),
            |_| {},
        );
    }
    run.sim.run();
    let until = run.sim.now() + horizon();
    let targets: Vec<(&str, &str)> = names
        .iter()
        .map(|(app, user)| (app.as_str(), user.as_str()))
        .collect();
    let stats = run.offer(
        ArrivalProcess::Poisson { rate: OFFERED_RPS },
        Mix::invoke_as(&targets),
        until,
    );
    let c = run.drain();
    let t = run.sim.telemetry().expect("telemetry on");
    AffinityPoint {
        affinity,
        issued: stats.issued(),
        completed: stats.completed(),
        faulted: stats.faulted(),
        auth_spans: t.spans_named("agent.authenticate").len() as u64,
        session_hits: t.counter("onserve.session_cache_hit"),
        affinity_hits: c.affinity_hits,
        affinity_misses: c.affinity_misses,
        mean_latency_s: stats.latency_mean(),
        p95_latency_s: stats.latency_percentile(95.0),
    }
}

/// Run both rows (affinity on, affinity off) in parallel.
pub fn sweep() -> Vec<AffinityPoint> {
    crate::par_sweep(&[true, false], |_, &affinity| run_point(affinity))
}

/// Render the sweep as the CSV committed under `tests/golden/`.
pub fn csv(points: &[AffinityPoint]) -> String {
    let mut out = String::from(
        "affinity,issued,completed,faulted,auth_spans,session_hits,affinity_hits,affinity_misses,mean_latency_s,p95_latency_s\n",
    );
    for p in points {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{:.4},{:.4}\n",
            if p.affinity { "on" } else { "off" },
            p.issued,
            p.completed,
            p.faulted,
            p.auth_spans,
            p.session_hits,
            p.affinity_hits,
            p.affinity_misses,
            p.mean_latency_s,
            p.p95_latency_s
        ));
    }
    out
}
