//! The geo-distribution experiment: multi-site placement, latency-aware
//! routing, and federation under a mid-run site outage.
//!
//! Six replicas span three sites (two per site) behind one dispatcher.
//! A follow-the-sun pacer offers a burst of six invocations every nine
//! seconds, rotating the request origin east → central → west across the
//! run, and the geo plane charges every cross-site answer a WAN round
//! trip (latency + payload transfer). Five rows share the seed, the
//! burst schedule, and the site map — only the routing/fault knobs move:
//!
//! * `roundrobin` — site-oblivious round-robin; two thirds of the
//!   answers pay a WAN round trip.
//! * `nearest` — the dispatcher routes to the origin's site first,
//!   spilling to the next-nearest site only when every origin replica is
//!   at the spill threshold. Mean latency drops against `roundrobin`.
//! * `degraded` — `nearest` with the plan's link faults wired into the
//!   WAN model: each cross-site hop can drop (one retransmit penalty)
//!   and carries exponential jitter. Mean latency rises above `nearest`.
//! * `oblivious` — sticky sessions but no geo routing; a pinned site
//!   outage mid-run blackholes every request still routed there until
//!   the per-request watchdog ejects the severed replicas. Requests
//!   fault; accepted work is lost to timeouts.
//! * `federated` — full geo routing plus HTCondor-C-style federation:
//!   pinned work addressed to the severed site is forwarded to peer
//!   sites without re-pinning, answers produced behind the partition are
//!   held and pulled back on reconnect, and parked watchdogs wait the
//!   outage out. Zero requests fault; every accepted request completes.
//!
//! The golden test pins the CSV byte-for-byte and asserts the headline
//! ordering: nearest beats round-robin on mean latency, link faults cost
//! real latency, federation loses nothing where the oblivious control
//! times out.
//!
//! Shared by the `geo` binary and the golden determinism test so both
//! always describe the same experiment.

use std::rc::Rc;

use fleet::{
    AffinityConfig, ChaosMonkey, FleetSpec, GeoPlane, HealthConfig, HealthPlane, Policy, SiteMap,
};
use gridsim::SiteSpec;
use onserve::profile::ExecutionProfile;
use simkit::fault::FaultPlan;
use simkit::{Duration, KB};

use crate::fleetrun::{pace, replicated_spec, FleetRun};

/// Seed shared by every row — arrivals, placement, and the outage victim
/// must be identical so the routing/federation knobs are the only
/// variables.
pub const SEED: u64 = 0x6765_6f31;

/// Replicas booted before load starts (two per site).
pub const REPLICAS: usize = 6;

/// Distinct principals cycled by the pacer (sticky rows only).
pub const TENANTS: usize = 18;

/// Steady arrival gap: one invocation every four seconds. The invoke
/// pipeline runs ~12 s end to end, so ~3 requests are always in flight —
/// comfortably inside one site's spill budget, but enough that a site
/// outage always catches work mid-service.
pub fn arrival_gap() -> Duration {
    Duration::from_secs(4)
}

/// Measurement window; also the follow-the-sun period, so each site is
/// the request origin for exactly one third of the run.
pub fn horizon() -> Duration {
    Duration::from_secs(900)
}

/// Offset of the pinned site outage from the start of load. With work
/// always in flight, the sever catches answers mid-production — they are
/// held behind the partition and pulled back on reconnect.
pub fn outage_offset() -> Duration {
    Duration::from_secs(325)
}

/// Length of the pinned site outage.
pub fn outage_duration() -> Duration {
    Duration::from_secs(180)
}

/// Per-request watchdog in the outage rows: long enough for healthy WAN
/// answers, far shorter than the outage.
pub fn request_timeout() -> Duration {
    Duration::from_secs(120)
}

/// Answer payload carried back across the WAN, bytes. At the paper's
/// measured ~85 KB/s access rate a cross-site answer pays ~3 s of
/// transfer on top of double the one-way latency — the WAN, not the
/// appliance, is the cost nearest-site routing avoids.
pub fn payload_bytes() -> f64 {
    256.0 * KB
}

/// Outstanding-per-replica depth at which nearest-site routing spills to
/// the next site: route to an *idle* origin replica, else spill. With
/// ~3 requests always in flight this keeps most — not all — answers
/// local, so the degraded row's link faults have real WAN traffic to
/// land on.
pub const SPILL_THRESHOLD: usize = 1;

/// The three sites: TeraGrid-flavoured centres with distinct access-layer
/// WAN characteristics, east the best connected.
pub fn sites() -> Vec<SiteSpec> {
    let mut east = SiteSpec::teragrid_like("east", 64, 4);
    east.wan_latency = Duration::from_millis(30);
    east.wan_bandwidth_bps = 100.0 * KB;
    let central = SiteSpec::teragrid_like("central", 64, 4);
    let mut west = SiteSpec::teragrid_like("west", 64, 4);
    west.wan_latency = Duration::from_millis(55);
    west.wan_bandwidth_bps = 70.0 * KB;
    vec![east, central, west]
}

/// One experiment row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GeoMode {
    /// Site-oblivious round-robin over all replicas.
    RoundRobin,
    /// Nearest-site-first routing with load spill.
    Nearest,
    /// Nearest-site routing over a faulty WAN (drops + jitter).
    Degraded,
    /// Sticky sessions, no geo routing, pinned site outage.
    Oblivious,
    /// Geo routing + federation, same pinned site outage.
    Federated,
}

impl GeoMode {
    /// CSV label.
    pub fn label(self) -> &'static str {
        match self {
            GeoMode::RoundRobin => "roundrobin",
            GeoMode::Nearest => "nearest",
            GeoMode::Degraded => "degraded",
            GeoMode::Oblivious => "oblivious",
            GeoMode::Federated => "federated",
        }
    }

    fn dispatcher_geo(self) -> bool {
        matches!(self, GeoMode::Nearest | GeoMode::Degraded | GeoMode::Federated)
    }

    fn sticky(self) -> bool {
        matches!(self, GeoMode::Oblivious | GeoMode::Federated)
    }

    fn outage(self) -> bool {
        matches!(self, GeoMode::Oblivious | GeoMode::Federated)
    }
}

/// All rows, sweep order.
pub const MODES: [GeoMode; 5] = [
    GeoMode::RoundRobin,
    GeoMode::Nearest,
    GeoMode::Degraded,
    GeoMode::Oblivious,
    GeoMode::Federated,
];

/// One measured row.
pub struct GeoPoint {
    /// Which knobs were on.
    pub mode: GeoMode,
    /// Requests issued by the pacer.
    pub issued: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests answered with a fault (timeout/ejection).
    pub faulted: u64,
    /// Requests refused at the door.
    pub shed: u64,
    /// Pinned attempts forwarded to a peer site during the outage.
    pub forwarded: u64,
    /// Answers held behind the partition and pulled back on reconnect.
    pub results_pulled: u64,
    /// Requests that vanished into the severed site.
    pub blackholed: u64,
    /// Cross-site answer deliveries (WAN round trips paid).
    pub wan_hops: u64,
    /// Link transfer passes dropped by the fault injector.
    pub link_drops: u64,
    /// Mean end-to-end latency over completed requests, milliseconds.
    pub mean_ms: f64,
    /// p99 end-to-end latency over completed requests, milliseconds.
    pub p99_ms: f64,
    /// Prometheus exposition captured at the end of the run (per-replica
    /// series carry `site` labels).
    pub prom: String,
}

fn fleet_spec(mode: GeoMode) -> FleetSpec {
    let mut spec = replicated_spec(REPLICAS, 1024);
    if mode != GeoMode::RoundRobin {
        spec.dispatcher.policy = Policy::LeastOutstanding;
    }
    if mode.sticky() {
        spec.dispatcher.affinity = Some(AffinityConfig::default());
    }
    if mode.outage() {
        // fail fast on loss: the rows measure what the *routing* saves,
        // not what retries can claw back
        spec.dispatcher.request_timeout = Some(request_timeout());
        spec.dispatcher.retry = None;
    }
    spec
}

/// Run one row: boot, provision, attach the planes, optionally unleash
/// the outage, offer the paced schedule — one invocation every
/// [`arrival_gap`], origin following the sun, principals cycling (sticky
/// rows only) — and drain completely.
pub fn run_point(mode: GeoMode) -> GeoPoint {
    let mut run = FleetRun::new(SEED, fleet_spec(mode), false);
    // attach the planes before the boots scheduled by `Fleet::new` run, so
    // every replica activates with its site placement (WAN costs, outage
    // blackholing) and a site-labelled health series
    let plane = HealthPlane::new(HealthConfig::default());
    run.fleet.dispatcher().set_health_plane(Rc::clone(&plane));
    let geo = GeoPlane::new(SiteMap::from_specs(&sites()));
    geo.set_payload_bytes(payload_bytes());
    geo.set_spill_threshold(SPILL_THRESHOLD);
    if mode == GeoMode::Federated {
        geo.set_federation(true);
    }
    let injector = (mode == GeoMode::Degraded).then(|| {
        let inj = FaultPlan::new(SEED)
            .link_drop(0.1)
            .link_extra_delay(Duration::from_millis(250))
            .injector();
        geo.set_injector(Rc::clone(&inj));
        inj
    });
    run.fleet.attach_geo(Rc::clone(&geo));
    if mode.dispatcher_geo() {
        run.fleet.dispatcher().set_geo(Rc::clone(&geo));
    }
    run.provision(
        ExecutionProfile::quick()
            .lasting(Duration::from_secs(2))
            .producing(16.0 * KB),
    );

    let t0 = run.sim.now();
    let monkey = mode.outage().then(|| {
        ChaosMonkey::unleash(
            &mut run.sim,
            &run.fleet,
            &FaultPlan::new(SEED).site_down(outage_offset(), outage_duration()),
        )
    });
    let (sun, sticky) = (Rc::clone(&geo), mode.sticky());
    let paced = pace(&mut run, arrival_gap(), t0 + horizon(), move |sim, n| {
        sun.set_origin(sun.map().sun_origin(sim.now() - t0, horizon()));
        sticky.then(|| format!("t{:02}", n % TENANTS as u64))
    });
    run.drain(); // every outstanding answer, hold, and watchdog
    if let Some(m) = &monkey {
        assert_eq!(m.site_outages(), 1, "the pinned outage registered");
    }

    let mut lat = paced.latencies.borrow().clone();
    lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mean = if lat.is_empty() {
        0.0
    } else {
        lat.iter().sum::<f64>() / lat.len() as f64
    };
    let p99 = if lat.is_empty() {
        0.0
    } else {
        lat[((lat.len() as f64 * 0.99).ceil() as usize).min(lat.len()) - 1]
    };
    let d = run.fleet.dispatcher().counters();
    let g = geo.counters();
    GeoPoint {
        mode,
        issued: paced.issued.get(),
        completed: paced.ok.get(),
        faulted: paced.bad.get(),
        shed: d.shed,
        forwarded: d.forwarded,
        results_pulled: g.results_pulled,
        blackholed: g.blackholed,
        wan_hops: g.wan_hops,
        link_drops: injector.map_or(0, |i| i.counts().link_drops),
        mean_ms: mean * 1000.0,
        p99_ms: p99 * 1000.0,
        prom: plane.prometheus_text(run.sim.now()),
    }
}

/// Run every row in parallel.
pub fn sweep() -> Vec<GeoPoint> {
    crate::par_sweep(&MODES, |_, &mode| run_point(mode))
}

/// Render the sweep as the CSV committed under `tests/golden/`.
pub fn csv(points: &[GeoPoint]) -> String {
    let mut out = String::from(
        "mode,issued,completed,faulted,shed,forwarded,results_pulled,blackholed,wan_hops,link_drops,mean_ms,p99_ms\n",
    );
    for p in points {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{:.2},{:.2}\n",
            p.mode.label(),
            p.issued,
            p.completed,
            p.faulted,
            p.shed,
            p.forwarded,
            p.results_pulled,
            p.blackholed,
            p.wan_hops,
            p.link_drops,
            p.mean_ms,
            p.p99_ms,
        ));
    }
    out
}
