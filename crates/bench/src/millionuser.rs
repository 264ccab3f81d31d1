//! The million-principal scale experiment: a fleet day at population
//! scale, driven end to end through the timer-wheel kernel.
//!
//! The ROADMAP's north star is "millions of users"; the paper's §VIII
//! discussion targets production grids serving large populations. This
//! experiment is the repo's proof that the simulation kernel now carries
//! that scale: an eight-replica fleet behind the sticky dispatcher serves
//! two simulated days of open-loop diurnal traffic whose requests carry
//! principals drawn uniformly from a two-million-user population —
//! ≥ 1M *distinct* principals at full scale, on the order of 10⁸ kernel
//! events.
//!
//! The principal here is purely the dispatcher's session-affinity routing
//! key (services authenticate as their owner, not the caller), so the
//! population costs no per-user grid enrolment — which is exactly how the
//! fleet tier's sticky routing is meant to absorb a large user base.
//!
//! Everything reported in the CSV is virtual-time state — counts and
//! latencies — so a same-seed double run is byte-identical; wall-clock
//! throughput (the kernel events/second the host actually sustained) is
//! returned separately and printed by the binary, never written to the
//! golden file.
//!
//! Shared by the `millionuser` binary and the golden determinism test so
//! both always describe the same experiment.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use fleet::{start_open_loop, AffinityConfig, ArrivalProcess, FleetSpec, Mix, Request, SubmitFn};
use onserve::profile::ExecutionProfile;
use simkit::{Duration, KB};

use crate::fleetrun::{replicated_spec, FleetRun};

/// Seed for the whole run — boot, arrivals, and principal draws.
pub const SEED: u64 = 0x1_000_000;

/// Replicas behind the dispatcher.
pub const REPLICAS: usize = 8;

/// Session-affinity pin-table capacity. Far below the population on
/// purpose: at million-principal scale the LRU *must* churn, and the run
/// proves routing stays cheap while it does.
pub const AFFINITY_CAPACITY: usize = 1 << 16;

/// One scale of the experiment: the full million-principal day, or the
/// CI-sized shrink of the same shape.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Row label in the CSV.
    pub label: &'static str,
    /// Principal population the requests draw from, uniformly.
    pub population: u64,
    /// Trough of the diurnal arrival curve, requests/second.
    pub base_rps: f64,
    /// Crest of the diurnal arrival curve, requests/second.
    pub peak_rps: f64,
    /// Diurnal period (a simulated "day").
    pub period_secs: u64,
    /// Measurement horizon — a whole number of diurnal cycles.
    pub horizon_secs: u64,
}

/// The full experiment: two simulated days at a 24 req/s mean against a
/// 2M-user population. Expected yield: ~4.1M requests, ~1.75M distinct
/// principals (2M × (1 − e^(−n/p)) for n ≈ 4.1M draws), on the order of
/// 10⁸ kernel events.
pub const FULL: Scale = Scale {
    label: "full",
    population: 2_000_000,
    base_rps: 8.0,
    peak_rps: 40.0,
    period_secs: 86_400,
    horizon_secs: 2 * 86_400,
};

/// The same shape shrunk for CI: ~0.5% of the requests against 1% of
/// the population (~10⁶ kernel events), one full (compressed) cycle.
pub const CI: Scale = Scale {
    label: "ci",
    population: 20_000,
    base_rps: 8.0,
    peak_rps: 40.0,
    period_secs: 864,
    horizon_secs: 864,
};

/// One measured row.
pub struct MillionUserPoint {
    /// Which scale produced the row.
    pub label: &'static str,
    /// Principal population requests drew from.
    pub population: u64,
    /// Requests issued by the generator.
    pub issued: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests answered with a SOAP fault.
    pub faulted: u64,
    /// Distinct principals observed at the front door.
    pub distinct_principals: u64,
    /// Kernel events executed over the whole run (boot included).
    pub events: u64,
    /// Requests routed to their pinned replica.
    pub affinity_hits: u64,
    /// First-sight pins (base-policy picks).
    pub affinity_misses: u64,
    /// Mean request latency, seconds.
    pub mean_latency_s: f64,
    /// 95th-percentile request latency, seconds.
    pub p95_latency_s: f64,
}

/// Wall-clock kernel throughput of one run — never part of the CSV.
pub struct HostThroughput {
    /// Kernel events per host second over the measured window.
    pub events_per_sec: f64,
    /// Host seconds the window took.
    pub wall_secs: f64,
}

/// Tracks which members of a `u{k}` population have been seen, as a flat
/// bitmap — 2M principals cost 250 KB, and observing one is two loads.
struct DistinctPrincipals {
    bits: RefCell<Vec<u64>>,
    count: Cell<u64>,
}

impl DistinctPrincipals {
    fn new(population: u64) -> DistinctPrincipals {
        DistinctPrincipals {
            bits: RefCell::new(vec![0u64; population.div_ceil(64) as usize]),
            count: Cell::new(0),
        }
    }

    fn observe(&self, principal: &str) {
        let Some(k) = principal.strip_prefix('u').and_then(|s| s.parse::<u64>().ok()) else {
            return;
        };
        let mut bits = self.bits.borrow_mut();
        let (word, bit) = ((k / 64) as usize, k % 64);
        if bits[word] & (1 << bit) == 0 {
            bits[word] |= 1 << bit;
            self.count.set(self.count.get() + 1);
        }
    }
}

fn fleet_spec() -> FleetSpec {
    let mut spec = replicated_spec(REPLICAS, 4096);
    spec.dispatcher.affinity = Some(AffinityConfig {
        capacity: AFFINITY_CAPACITY,
    });
    spec.base.config.cache_grid_sessions = true;
    spec.base.config.reuse_staged_files = true;
    spec
}

/// Run one scale: boot the fleet, publish one service, offer the scale's
/// diurnal population-keyed traffic, and drain. Returns the
/// virtual-time row plus the host-side throughput of the measured window.
pub fn run_point(scale: Scale) -> (MillionUserPoint, HostThroughput) {
    let mut run = FleetRun::new(SEED, fleet_spec(), false);
    run.provision(
        ExecutionProfile::quick()
            .lasting(Duration::from_millis(500))
            .producing(16.0 * KB),
    );

    let until = run.sim.now() + Duration::from_secs(scale.horizon_secs);
    let distinct = Rc::new(DistinctPrincipals::new(scale.population));
    let (door, d2) = (run.sink(), Rc::clone(&distinct));
    let sink: Rc<SubmitFn> = Rc::new(move |sim, req, done| {
        if let Request::Invoke {
            principal: Some(p), ..
        } = &req
        {
            d2.observe(p);
        }
        door(sim, req, done)
    });
    let stats = start_open_loop(
        &mut run.sim,
        ArrivalProcess::Diurnal {
            base_rate: scale.base_rps,
            peak_rate: scale.peak_rps,
            period: Duration::from_secs(scale.period_secs),
        },
        Mix::invoke_population(&["app"], scale.population),
        sink,
        until,
    );
    let events_before = run.sim.events_executed();
    let t0 = std::time::Instant::now();
    let c = run.drain(); // the measured window: the diurnal cycles plus drain
    let wall_secs = t0.elapsed().as_secs_f64();
    let events = run.sim.events_executed();

    let point = MillionUserPoint {
        label: scale.label,
        population: scale.population,
        issued: stats.issued(),
        completed: stats.completed(),
        faulted: stats.faulted(),
        distinct_principals: distinct.count.get(),
        events,
        affinity_hits: c.affinity_hits,
        affinity_misses: c.affinity_misses,
        mean_latency_s: stats.latency_mean(),
        p95_latency_s: stats.latency_percentile(95.0),
    };
    let throughput = HostThroughput {
        events_per_sec: (events - events_before) as f64 / wall_secs.max(1e-9),
        wall_secs,
    };
    (point, throughput)
}

/// Render rows as the CSV committed under `tests/golden/` (CI row) and
/// written to `target/experiments/` by the binary. Virtual-time state
/// only — no wall-clock columns — so same-seed runs are byte-identical.
pub fn csv(points: &[MillionUserPoint]) -> String {
    let mut out = String::from(
        "scale,population,issued,completed,faulted,distinct_principals,events,affinity_hits,affinity_misses,mean_latency_s,p95_latency_s\n",
    );
    for p in points {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{:.4},{:.4}\n",
            p.label,
            p.population,
            p.issued,
            p.completed,
            p.faulted,
            p.distinct_principals,
            p.events,
            p.affinity_hits,
            p.affinity_misses,
            p.mean_latency_s,
            p.p95_latency_s
        ));
    }
    out
}
