//! Property-based invariants of the front door and the fleet behind it.
//!
//! Every run here is an [`Audit`]ed run: the door and tenant ledgers,
//! routing (rotation, severed sites, at-most-once uploads, the retry
//! cap), pin validity, quota fairness and the rollout floor are checked at
//! every event boundary by the one auditor. A property only sets the
//! scene — arbitrary arrivals, replicas, faults and planes — and states
//! what is particular to it. The last two properties and the soak put every
//! plane on at once, on a real [`Fleet`], under one [`FaultPlan`].

mod common;

use std::cell::Cell;
use std::rc::Rc;

use common::{invoke, unaudited, Echo};
use fleet::{
    AffinityConfig, Audit, Autoscaler, AutoscalerConfig, CanaryConfig, ChaosMonkey, Dispatcher,
    DispatcherConfig, Fleet, FleetSpec, GeoPlane, GrayFailureDetector, HealthConfig, HealthPlane,
    Policy, QosConfig, QosTier, Request, RetryConfig, RolloutConfig, RolloutController,
    RolloutStrategy, SiteMap, StorageTopology, SubmitFn,
};
use onserve::profile::ExecutionProfile;
use proptest::collection::vec;
use proptest::prelude::*;
use simkit::fault::FaultPlan;
use simkit::{Duration, Sim, SimTime, KB};

/// Submit `req` through `door` at `at_ms`.
fn arrive(sim: &mut Sim, door: &Rc<SubmitFn>, at_ms: u64, req: Request) {
    let door = Rc::clone(door);
    sim.schedule(Duration::from_millis(at_ms), move |sim| door(sim, req, Box::new(|_, _| {})));
}

/// Take `r{idx}` out of rotation `at` from now: ejected, or drained.
fn remove_at(sim: &mut Sim, d: &Rc<Dispatcher>, at: Duration, idx: u64, eject: bool) {
    let (d, name) = (Rc::clone(d), format!("r{idx}"));
    sim.schedule(at, move |sim| {
        if eject {
            d.eject_backend(sim, &name);
        } else {
            d.remove_backend(sim, &name);
        }
    });
}

/// Eject backends `r0..r{n}` on a seeded Poisson crash schedule.
fn crash_schedule(sim: &mut Sim, d: &Rc<Dispatcher>, seed: u64, mean_gap_ms: u64, n: usize) {
    let plan = FaultPlan::new(seed)
        .poisson_crashes(Duration::from_millis(mean_gap_ms), Duration::from_secs(2));
    let mut victims = plan.derived_rng(0xe1ec);
    for offset in plan.crash_times() {
        remove_at(sim, d, offset, victims.below(n as u64), true);
    }
}

/// `Echo` replicas `r0..` with the given `(delay_ms, fault)` behaviour.
fn echoes(d: &Dispatcher, backends: &[(u64, bool)]) -> Vec<Rc<Echo>> {
    let echo = |(i, &(ms, fault)): (usize, _)| Echo::new(&format!("r{i}"), ms, fault);
    let echoes: Vec<Rc<Echo>> = backends.iter().enumerate().map(echo).collect();
    for e in &echoes {
        d.add_backend(e.clone());
    }
    echoes
}

fn dispatcher(policy: Policy, max_in_flight: usize, retry: Option<RetryConfig>) -> Rc<Dispatcher> {
    let cfg = DispatcherConfig { policy, max_in_flight, retry, ..DispatcherConfig::default() };
    Dispatcher::new(cfg)
}

/// Retry up to `max_retries` times from a 50 ms base backoff.
fn retry(max_retries: u32) -> Option<RetryConfig> {
    let (base_backoff, max_backoff) = (Duration::from_millis(50), Duration::from_millis(400));
    Some(RetryConfig { max_retries, base_backoff, max_backoff, jitter: 0.2 })
}

fn upload(file_name: &str, len: usize) -> Request {
    let payload = onserve::deployment::synth_executable(len);
    Request::Upload { file_name: file_name.into(), payload, profile: ExecutionProfile::quick() }
}

proptest! {
    /// Conservation and the admission ceiling for every policy, over
    /// arbitrary fleets, faults, admission limits and mid-run drains: a
    /// drain racing the traffic loses and double-answers nothing, and
    /// removing an unknown or already-draining name is a no-op.
    #[test]
    fn dispatcher_conserves_requests(
        backends in vec((1u64..400, any::<bool>()), 1..5),
        arrivals in vec((0u64..2_000, any::<bool>()), 1..40),
        max_in_flight in 1usize..9,
        removals in vec((0u64..2_000, 0u64..4), 0..3),
    ) {
        for policy in Policy::ALL {
            let mut sim = Sim::new(0xd15);
            let d = dispatcher(policy, max_in_flight, Some(RetryConfig::default()));
            echoes(&d, &backends);
            let audit = Audit::new(&d);
            let door = audit.sink();
            for &(at_ms, is_upload) in &arrivals {
                let req = if is_upload { upload("f.exe", 64) } else { invoke("svc", None) };
                arrive(&mut sim, &door, at_ms, req);
            }
            for &(at_ms, idx) in &removals {
                let idx = idx % backends.len() as u64;
                remove_at(&mut sim, &d, Duration::from_millis(at_ms), idx, false);
            }
            audit.run(&mut sim);
        }
    }

    /// The admission limit is a hard ceiling — the auditor holds the
    /// in-flight count to the window after every event — on one slow
    /// replica that keeps the window full.
    #[test]
    fn in_flight_never_exceeds_limit(
        arrivals in vec(0u64..2_000, 1..40),
        max_in_flight in 1usize..6,
        delay_ms in 1u64..1_000,
    ) {
        let mut sim = Sim::new(0xcab);
        let d = dispatcher(Policy::LeastOutstanding, max_in_flight, Some(RetryConfig::default()));
        echoes(&d, &[(delay_ms, false)]);
        let audit = Audit::new(&d);
        let door = audit.sink();
        for &at_ms in &arrivals {
            arrive(&mut sim, &door, at_ms, invoke("svc", None));
        }
        audit.run(&mut sim);
    }

    /// Under an arbitrary seeded crash schedule mapped onto backends, for
    /// every routing policy with retry on: nothing is routed to a backend
    /// after its eject, and no request retries past `max_retries`.
    #[test]
    fn fault_plans_never_reach_ejected_backends_and_retries_stay_capped(
        seed in any::<u64>(),
        mean_gap_ms in 100u64..1_500,
        n_backends in 2usize..5,
        arrivals in vec(0u64..2_000, 1..40),
        max_retries in 0u32..4,
    ) {
        for policy in Policy::ALL {
            let mut sim = Sim::new(seed);
            let d = dispatcher(policy, 64, retry(max_retries));
            echoes(&d, &vec![(80, false); n_backends]);
            crash_schedule(&mut sim, &d, seed, mean_gap_ms, n_backends);
            let audit = Audit::new(&d);
            let door = audit.sink();
            for &at_ms in &arrivals {
                arrive(&mut sim, &door, at_ms, invoke("svc", None));
            }
            audit.run(&mut sim);
        }
    }

    /// Session affinity never overrides liveness: under seeded ejects and
    /// arbitrary drains a pinned request is never routed to an ejected or
    /// draining replica, and every routed attempt records exactly one
    /// affinity outcome.
    #[test]
    fn affinity_never_routes_to_ejected_or_draining_replicas(
        seed in any::<u64>(),
        mean_gap_ms in 100u64..1_500,
        n_backends in 2usize..5,
        arrivals in vec((0u64..2_000, 0usize..6), 1..40),
        drains in vec((0u64..2_000, 0u64..4), 0..3),
    ) {
        let mut sim = Sim::new(seed);
        let d = Dispatcher::new(DispatcherConfig {
            policy: Policy::RoundRobin,
            retry: retry(2),
            affinity: Some(AffinityConfig::default()),
            ..DispatcherConfig::default()
        });
        let backends = echoes(&d, &vec![(80, false); n_backends]);
        crash_schedule(&mut sim, &d, seed, mean_gap_ms, n_backends);
        for &(at_ms, idx) in &drains {
            remove_at(&mut sim, &d, Duration::from_millis(at_ms), idx % n_backends as u64, false);
        }
        let audit = Audit::new(&d);
        let door = audit.sink();
        for &(at_ms, user) in &arrivals {
            arrive(&mut sim, &door, at_ms, invoke("svc", Some(&format!("u{user}"))));
        }
        audit.run(&mut sim);
        // every request carries a principal, so every routed attempt (==
        // every serve call) recorded exactly one affinity outcome
        let c = d.counters();
        let routed: u64 = backends.iter().map(|b| b.served.get()).sum();
        prop_assert_eq!(c.affinity_hits + c.affinity_misses + c.affinity_repins, routed);
    }
}

/// A hand-built map of `n` sites `s0..sN` with every pair linked —
/// latencies spread so `nearest_order` is non-trivial.
fn grid_map(n_sites: usize) -> SiteMap {
    let mut map = SiteMap::new();
    for s in 0..n_sites {
        map.add_site(&format!("s{s}"));
    }
    for a in 0..n_sites {
        for b in (a + 1)..n_sites {
            let latency = Duration::from_millis(10 * (a + b + 1) as u64);
            map.link(&format!("s{a}"), &format!("s{b}"), latency, 100.0 * KB);
        }
    }
    map
}

proptest! {
    /// Geo routing treats a site outage as a routing fact, never a
    /// request killer: under arbitrary site maps, outage windows, spill
    /// thresholds and pinned/unpinned arrival mixes, nothing is dispatched
    /// into a severed site — first sight, sticky hit, forward and repin
    /// alike — arrivals while every site is dark shed at the door, and
    /// every forward the dispatcher counts is one the geo plane counts.
    #[test]
    fn geo_routing_never_dispatches_into_a_severed_site(
        n_sites in 2usize..5,
        n_backends in 2usize..6,
        outages in vec((0usize..5, 0u64..2_500, 100u64..1_500), 0..4),
        arrivals in vec((0u64..3_000, 0usize..6, any::<bool>()), 1..40),
        spill in 1usize..4,
        federation in any::<bool>(),
    ) {
        let mut sim = Sim::new(0x9e0);
        let geo = GeoPlane::new(grid_map(n_sites));
        geo.set_spill_threshold(spill);
        geo.set_federation(federation);
        let d = Dispatcher::new(DispatcherConfig {
            affinity: Some(AffinityConfig::default()),
            ..DispatcherConfig::default()
        });
        echoes(&d, &vec![(80, false); n_backends]);
        for i in 0..n_backends {
            geo.assign(&format!("r{i}"), &format!("s{}", i % n_sites));
        }
        d.set_geo(Rc::clone(&geo));
        for &(site, from_ms, dur_ms) in &outages {
            let from = SimTime::ZERO + Duration::from_millis(from_ms);
            let to = from + Duration::from_millis(dur_ms);
            geo.add_outage(&format!("s{}", site % n_sites), from, to);
        }
        let audit = Audit::new(&d);
        let door = audit.sink();
        for &(at_ms, user, pinned) in &arrivals {
            let user = format!("u{user}");
            arrive(&mut sim, &door, at_ms, invoke("svc", pinned.then_some(user.as_str())));
        }
        audit.run(&mut sim);
        prop_assert_eq!(d.counters().forwarded, geo.counters().forwards, "forward ledgers");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Per-tenant QoS under arbitrary tenant mixes, tier assignments,
    /// quota knobs, and mid-run drains and ejects: every tenant's ledger
    /// balances at every boundary — a request queued at the door and then
    /// flushed when the last replica leaves counts once, as shed — and no
    /// tenant ever waits under quota while the window has room.
    #[test]
    fn qos_conserves_per_tenant_and_never_starves_underquota_tenants(
        backends in vec((1u64..400, any::<bool>()), 1..4),
        arrivals in vec((0u64..2_000, 0usize..4), 1..60),
        tiers in vec(0usize..3, 4),
        max_in_flight in 1usize..9,
        queue_depth in 1usize..6,
        borrow in 0usize..3,
        removals in vec((0u64..2_000, 0u64..4, any::<bool>()), 0..3),
    ) {
        let mut sim = Sim::new(0x905);
        let d = dispatcher(Policy::RoundRobin, max_in_flight, Some(RetryConfig::default()));
        let tier_of = |i: usize| QosTier::ALL[tiers[i] % QosTier::ALL.len()];
        d.set_qos(QosConfig {
            tiers: (0..4).map(|i| (format!("t{i}"), tier_of(i))).collect(),
            queue_depth,
            borrow,
            ..QosConfig::default()
        });
        echoes(&d, &backends);
        let audit = Audit::new(&d);
        let door = audit.sink();
        for &(at_ms, tenant) in &arrivals {
            arrive(&mut sim, &door, at_ms, invoke("svc", Some(&format!("t{tenant}"))));
        }
        for &(at_ms, idx, eject) in &removals {
            let idx = idx % backends.len() as u64;
            remove_at(&mut sim, &d, Duration::from_millis(at_ms), idx, eject);
        }
        audit.run(&mut sim);
    }
}

/// Three replicated appliances on the sites of `grid_map(3)`, geo plane
/// attached to the fleet, and to the dispatcher too when `federated`.
fn geo_fleet(
    sim: &mut Sim,
    federated: bool,
    spec: impl FnOnce(&mut FleetSpec),
) -> (Rc<Fleet>, Rc<GeoPlane>) {
    let mut s = FleetSpec::with_image(common::image());
    s.topology = StorageTopology::Replicated;
    s.initial_replicas = 3;
    spec(&mut s);
    let fleet = Fleet::new(sim, s);
    let geo = GeoPlane::new(grid_map(3));
    geo.set_federation(federated);
    if federated {
        fleet.dispatcher().set_geo(Rc::clone(&geo));
    }
    (fleet, geo)
}

/// How one all-planes run is driven.
#[derive(Clone, Copy)]
struct Drive {
    seed: u64,
    canary: bool,
    min_healthy: usize,
    federated: bool,
    /// Paced invocations, `gap_ms` apart, principals `u0..u4`.
    arrivals: u64,
    gap_ms: u64,
    faults: Faults,
}

/// The fault plan's knobs: mean crash gap, site outage start (from the
/// chaos start) and length, link drop rate and mean extra link delay.
#[derive(Clone, Copy)]
struct Faults { crash_gap_s: u64, outage_at_s: u64, outage_s: u64, drop_pct: u64, jitter_ms: u64 }

/// The soak's plan; each property draws some knobs and holds the rest here.
const FAULTS: Faults =
    Faults { crash_gap_s: 60, outage_at_s: 20, outage_s: 30, drop_pct: 20, jitter_ms: 200 };

/// What one all-planes run left behind.
struct AllPlanes {
    /// Everything two same-seed runs must agree on, rendered.
    signature: String,
    /// Paced invocations answered successfully.
    ok: u64,
    /// Requests swallowed by a severed site.
    blackholed: u64,
    /// Replicas lost to crashes and ejections.
    lost: u64,
}

/// One run of a real fleet with every plane on: three replicated
/// appliances on three sites, federated geo routing (or the site-oblivious
/// control), affinity with session caching, retry plus a request timeout,
/// the health plane with the gray-failure detector, QoS tiers with an
/// unregistered flooder, the replacement-only autoscaler, and a rolling or
/// canary rollout — under one [`FaultPlan`] of crashes, a slow replica, a
/// site outage, lossy jittery WAN links and a failing disk, drained
/// throughout by `drain`.
fn all_planes(drive: Drive, drain: fn(&Audit, &mut Sim)) -> AllPlanes {
    let mut sim = Sim::new(drive.seed);
    let (fleet, geo) = geo_fleet(&mut sim, drive.federated, |spec| {
        spec.dispatcher.affinity = Some(AffinityConfig::default());
        spec.base.config.cache_grid_sessions = true;
        let (base_backoff, max_backoff) = (Duration::from_millis(100), Duration::from_secs(1));
        let retry = RetryConfig { max_retries: 2, base_backoff, max_backoff, jitter: 0.2 };
        spec.dispatcher.retry = Some(retry);
        spec.dispatcher.request_timeout = Some(Duration::from_secs(300));
    });
    let audit = Audit::fleet(&fleet);
    let span = Duration::from_millis(drive.arrivals * drive.gap_ms);
    let f = drive.faults;
    let plan = FaultPlan::new(drive.seed)
        .poisson_crashes(Duration::from_secs(f.crash_gap_s), Duration::from_secs(240))
        .slow_at(Duration::from_secs(50), 10.0)
        .site_down(Duration::from_secs(f.outage_at_s), Duration::from_secs(f.outage_s))
        .link_drop(f.drop_pct as f64 / 100.0)
        .link_extra_delay(Duration::from_millis(f.jitter_ms))
        .write_fail(0.8);

    // planes go on before the boots run, so every replica activates placed
    // on a site and with a site-labelled health series
    let health = HealthPlane::new(HealthConfig {
        window: Duration::from_secs(30),
        ring: 16,
        lookback: Duration::from_secs(240),
        interval: Duration::from_secs(30),
        min_samples: 2,
        ..HealthConfig::default()
    });
    fleet.dispatcher().set_health_plane(Rc::clone(&health));
    geo.set_payload_bytes(32.0 * KB);
    geo.set_spill_threshold(1);
    let links = plan.injector();
    geo.set_injector(Rc::clone(&links));
    fleet.attach_geo(Rc::clone(&geo));
    use QosTier::{Batch, Gold, Standard};
    let tiers = [Gold, Gold, Standard, Standard, Batch];
    fleet.dispatcher().set_qos(QosConfig {
        default_tier: Batch,
        tiers: (0..5).map(|i| (format!("u{i}"), tiers[i])).collect(),
        queue_depth: 8,
        borrow: 1,
    });
    drain(&audit, &mut sim);
    fleet.publish(&mut sim, "app.exe", 64 * 1024, ExecutionProfile::quick(), |_| {});
    drain(&audit, &mut sim);

    let until = sim.now() + span + Duration::from_secs(300);
    let detector = GrayFailureDetector::install(&mut sim, &fleet, &health, until);
    let replace_only = AutoscalerConfig {
        interval: Duration::from_secs(15),
        cooldown: Duration::from_secs(60),
        scale_up_load: f64::INFINITY,
        scale_down_load: 0.0,
        min_replicas: 3,
        max_replicas: 6,
        ..AutoscalerConfig::default()
    };
    Autoscaler::install(&mut sim, &fleet, replace_only, until);
    let monkey = ChaosMonkey::unleash(&mut sim, &fleet, &plan);
    let strategy = if drive.canary {
        RolloutStrategy::Canary(CanaryConfig {
            pin_fraction: 0.4,
            first_sight_pct: 30,
            judgment: Duration::from_secs(120),
            p99_factor: 3.0,
            min_samples: 2,
        })
    } else {
        RolloutStrategy::Rolling
    };
    let (min_healthy, poll) = (drive.min_healthy, Duration::from_secs(5));
    let rollout = RolloutConfig { to_version: 2, strategy, min_healthy, poll };
    let ctl: Rc<Cell<Option<Rc<RolloutController>>>> = Rc::default();
    let (f2, c2, a2) = (Rc::clone(&fleet), Rc::clone(&ctl), Rc::clone(&audit));
    sim.schedule(Duration::from_secs(10), move |sim| {
        let started = RolloutController::start(sim, &f2, rollout);
        a2.watch_rollout(&started);
        c2.set(Some(started));
    });

    let door = audit.sink();
    let ok = Rc::new(Cell::new(0u64));
    for i in 0..drive.arrivals {
        let (door, ok) = (Rc::clone(&door), Rc::clone(&ok));
        sim.schedule(Duration::from_millis(i * drive.gap_ms), move |sim| {
            let req = invoke("app", Some(&format!("u{}", i % 5)));
            door(sim, req, Box::new(move |_, res| ok.set(ok.get() + u64::from(res.is_ok()))));
        });
    }
    // the flooder: 40 req/s for a second, far over a batch quota
    for k in 0..40 {
        arrive(&mut sim, &door, 15_000 + 25 * k, invoke("app", Some("flood")));
    }
    // uploads across the door, one of whose stores the plan breaks. Both
    // miss the site outage, which every plan here places inside 8..70 s: a
    // broadcast does not route, so one made during it feeds the partition
    // even under federation (pinned on its own by
    // `an_upload_during_a_federated_outage_feeds_the_partition_and_faults`)
    arrive(&mut sim, &door, 5_000, upload("w0.exe", 16 * 1024));
    arrive(&mut sim, &door, 70_000, upload("w1.exe", 16 * 1024));
    drain(&audit, &mut sim);

    let ctl = ctl.take().expect("rollout started");
    let signature = format!(
        "{:?} {:?} {:?} {:?} {:?} {:?} ok={} lost={} booted={} replaced={} rollbacks={} \
         landed={} slowed={} detector={:?} events={} end={}",
        fleet.dispatcher().counters(),
        fleet.dispatcher().qos_tenants(),
        geo.counters(),
        links.counts(),
        fleet.version_counts(),
        ctl.outcome(),
        ok.get(),
        fleet.lost_total(),
        fleet.booted_total(),
        ctl.replaced(),
        ctl.rollbacks(),
        monkey.landed(),
        monkey.slowed(),
        detector.events(),
        sim.events_executed(),
        sim.now().ticks(),
    );
    let (ok, blackholed, lost) = (ok.get(), geo.counters().blackholed, fleet.lost_total());
    AllPlanes { signature, ok, blackholed, lost }
}

/// One all-planes case: audited (conservation, routing, live pins,
/// fairness, the floor, a finished rollout), no blackhole when federated,
/// and the same seed replays the run identically, unaudited.
fn all_planes_case(drive: Drive) {
    let run = all_planes(drive, Audit::run);
    if drive.federated {
        // routing filters severed sites at dispatch time
        prop_assert_eq!(run.blackholed, 0, "the federated arm fed the partition");
    }
    let replay = all_planes(drive, unaudited).signature;
    prop_assert_eq!(replay, run.signature, "replay diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Every plane on at once under an arbitrary site outage on arbitrarily
    /// lossy, jittery WAN links: [`all_planes_case`] holds.
    #[test]
    fn fleet_conserves_requests_under_site_outages_and_link_faults(
        seed in any::<u64>(),
        canary in any::<bool>(),
        min_healthy in 1usize..3,
        federated in any::<bool>(),
        arrivals in 4u64..24,
        gap_ms in 500u64..3_000,
        outage_at_s in 8u64..30,
        outage_s in 2u64..40,
        drop_pct in 0u64..40,
        jitter_ms in 0u64..400,
    ) {
        let faults = Faults { outage_at_s, outage_s, drop_pct, jitter_ms, ..FAULTS };
        all_planes_case(Drive { seed, canary, min_healthy, federated, arrivals, gap_ms, faults });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// Every plane on at once, rollouts racing crashes every 60 to 400 s
    /// on average: [`all_planes_case`] holds.
    #[test]
    fn rollouts_hold_the_floor_keep_pins_live_and_replay(
        seed in any::<u64>(),
        canary in any::<bool>(),
        min_healthy in 1usize..3,
        federated in any::<bool>(),
        arrivals in 4u64..24,
        gap_ms in 500u64..3_000,
        crash_gap_s in 60u64..400,
    ) {
        let faults = Faults { crash_gap_s, ..FAULTS };
        all_planes_case(Drive { seed, canary, min_healthy, federated, arrivals, gap_ms, faults });
    }
}

/// The all-planes harness as a soak: one seed, 5 000 invocations paced a
/// second apart through a federated canary rollout, under the same fault
/// plan, audited, then replayed identically.
#[test]
fn all_planes_soak_conserves_5k_requests_and_replays() {
    let (seed, arrivals, gap_ms) = (0x50a5, 5_000, 1_000);
    let (canary, min_healthy, federated, faults) = (true, 2, true, FAULTS);
    let drive = Drive { seed, canary, min_healthy, federated, arrivals, gap_ms, faults };
    let first = all_planes(drive, Audit::run);
    assert_eq!(all_planes(drive, unaudited).signature, first.signature, "replay diverged");
    assert!(first.lost > 0, "chaos actually happened: {}", first.signature);
    // Measured at this seed: 4 614 of 5 000 complete. One a second keeps
    // the fleet near its capacity while the slow replica, the outage and
    // the crashes stretch latency, so the tenant stage sheds what would
    // wait past a full door queue, and almost nothing is lost to faults.
    // 90 % holds that result with a little headroom.
    let ok = first.ok;
    assert!(ok * 10 >= arrivals * 9, "goodput fell to {ok} of {arrivals}: {}", first.signature);
}

/// Finding, pinned: an upload broadcast does not route, so even with
/// federation on, a broadcast made during a site outage sends its branch
/// into the partition. The branch is swallowed, its watchdog ejects the
/// severed replica from the rotation after `request_timeout`, and the
/// join faults — uploads are at most once, and the ledgers close. The
/// ejected replica stays active in the fleet: only a crash is replaced.
#[test]
fn an_upload_during_a_federated_outage_feeds_the_partition_and_faults() {
    let mut sim = Sim::new(0xfed);
    let (fleet, geo) = geo_fleet(&mut sim, true, |spec| {
        spec.dispatcher.request_timeout = Some(Duration::from_secs(60));
    });
    fleet.attach_geo(Rc::clone(&geo));
    let audit = Audit::fleet(&fleet);
    let app = ("app.exe", 64 * 1024);
    common::boot_and_publish(&mut sim, &fleet, &audit, app, ExecutionProfile::quick());
    // replicas land on sites round-robin: replica1 is on s1
    let from = sim.now() + Duration::from_secs(10);
    geo.add_outage("s1", from, from + Duration::from_secs(30));
    let f2 = Rc::clone(&fleet);
    sim.schedule(Duration::from_secs(10), move |sim| f2.sever_site(sim, "s1"));
    let (door, answer) = (audit.sink(), Rc::new(Cell::new(None)));
    let a2 = Rc::clone(&answer);
    sim.schedule(Duration::from_secs(20), move |sim| {
        door(sim, upload("late.exe", 16 * 1024), Box::new(move |_, res| a2.set(Some(res.is_ok()))));
    });
    audit.run(&mut sim);
    assert_eq!(answer.get(), Some(false), "the join faults");
    assert_eq!(geo.counters().blackholed, 1, "one branch fed the partition");
    assert_eq!(fleet.dispatcher().counters().ejected, 1, "its watchdog ejected replica1");
    assert_eq!(fleet.dispatcher().live_backends(), 2);
    assert_eq!(fleet.active_replicas(), 3, "the fleet still counts it");
}
