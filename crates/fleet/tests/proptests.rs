//! Property-based invariants of the front-end dispatcher.
//!
//! The load-bearing property is *conservation*: every request submitted at
//! the front door is answered exactly once — shed at the door, completed,
//! or faulted — under arbitrary arrival schedules, replica counts, replica
//! speeds, fault injection, admission limits, and mid-run scale-downs, for
//! every routing policy.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use fleet::{
    Backend, Dispatcher, DispatcherConfig, Fleet, FleetSpec, GeoPlane, Policy, Request, Responder,
    RetryConfig, SiteMap, StorageTopology,
};
use onserve::profile::ExecutionProfile;
use proptest::prelude::*;
use simkit::fault::FaultPlan;
use simkit::{Duration, Sim, SimTime, SpanId, KB, MB};
use vappliance::ApplianceImage;
use wsstack::{SoapFault, SoapValue};

/// Test double: serves after a fixed delay, optionally always faulting.
struct Echo {
    name: String,
    delay: Duration,
    fault: bool,
}

impl Backend for Echo {
    fn name(&self) -> &str {
        &self.name
    }
    fn serve(&self, sim: &mut Sim, _req: Request, done: Responder) {
        let fault = self.fault;
        sim.schedule(self.delay, move |sim| {
            if fault {
                done(sim, Err(SoapFault::server("echo fault")));
            } else {
                done(sim, Ok(SoapValue::Bool(true)));
            }
        });
    }
}

/// One generated front-door submission: arrival offset and request kind.
fn arb_arrival() -> impl Strategy<Value = (u64, bool)> {
    (0u64..2_000, any::<bool>())
}

proptest! {
    /// Conservation: with `A` arrivals, the responder fires exactly `A`
    /// times, `accepted + shed == A`, `accepted == completed + faulted`,
    /// and nothing is left in flight once the simulation drains — for
    /// every policy, over arbitrary fleets, faults, admission limits and
    /// mid-run backend removals.
    #[test]
    fn dispatcher_conserves_requests(
        backends in proptest::collection::vec((1u64..400, any::<bool>()), 1..5),
        arrivals in proptest::collection::vec(arb_arrival(), 1..40),
        max_in_flight in 1usize..9,
        removals in proptest::collection::vec((0u64..2_000, 0usize..4), 0..3),
    ) {
        for policy in Policy::ALL {
            let mut sim = Sim::new(0xd15);
            let d = Dispatcher::new(DispatcherConfig {
                policy,
                max_in_flight,
                ..DispatcherConfig::default()
            });
            for (i, &(delay_ms, fault)) in backends.iter().enumerate() {
                d.add_backend(Rc::new(Echo {
                    name: format!("r{i}"),
                    delay: Duration::from_millis(delay_ms),
                    fault,
                }));
            }
            let answered = Rc::new(Cell::new(0u64));
            for &(at_ms, is_upload) in &arrivals {
                let d2 = Rc::clone(&d);
                let a = Rc::clone(&answered);
                sim.schedule(Duration::from_millis(at_ms), move |sim| {
                    let req = if is_upload {
                        Request::Upload {
                            file_name: "f.exe".into(),
                            payload: onserve::deployment::synth_executable(64),
                            profile: ExecutionProfile::quick(),
                        }
                    } else {
                        Request::Invoke { service: "svc".into(), args: Vec::new(), principal: None }
                    };
                    let fired = Cell::new(false);
                    d2.submit(sim, req, Box::new(move |_, _| {
                        assert!(!fired.replace(true), "responder fired twice");
                        a.set(a.get() + 1);
                    }));
                });
            }
            // scale-downs racing the traffic must not lose or double-answer
            // requests; removing an unknown/already-draining name is a no-op
            for &(at_ms, idx) in &removals {
                let d2 = Rc::clone(&d);
                let name = format!("r{}", idx % backends.len());
                sim.schedule(Duration::from_millis(at_ms), move |sim| {
                    let _ = d2.remove_backend(sim, &name);
                });
            }
            sim.run();
            let c = d.counters();
            let total = arrivals.len() as u64;
            prop_assert_eq!(answered.get(), total, "{}: answered != submitted", policy.label());
            prop_assert_eq!(c.accepted + c.shed, total, "{}: door ledger", policy.label());
            prop_assert_eq!(c.accepted, c.completed + c.faulted, "{}: outcome ledger", policy.label());
            prop_assert_eq!(d.in_flight(), 0, "{}: in-flight after drain", policy.label());
        }
    }

    /// The admission limit is a hard ceiling: at no instant do more than
    /// `max_in_flight` requests sit past the front door.
    #[test]
    fn in_flight_never_exceeds_limit(
        arrivals in proptest::collection::vec(arb_arrival(), 1..40),
        max_in_flight in 1usize..6,
        delay_ms in 1u64..1_000,
    ) {
        let mut sim = Sim::new(0xcab);
        let d = Dispatcher::new(DispatcherConfig {
            policy: Policy::LeastOutstanding,
            max_in_flight,
            ..DispatcherConfig::default()
        });
        d.add_backend(Rc::new(Echo {
            name: "r0".into(),
            delay: Duration::from_millis(delay_ms),
            fault: false,
        }));
        let high_water = Rc::new(Cell::new(0usize));
        for &(at_ms, _) in &arrivals {
            let d2 = Rc::clone(&d);
            let hw = Rc::clone(&high_water);
            sim.schedule(Duration::from_millis(at_ms), move |sim| {
                d2.submit(
                    sim,
                    Request::Invoke { service: "svc".into(), args: Vec::new(), principal: None },
                    Box::new(|_, _| {}),
                );
                hw.set(hw.get().max(d2.in_flight()));
            });
        }
        sim.run();
        prop_assert!(
            high_water.get() <= max_in_flight,
            "in-flight high water {} exceeded limit {}",
            high_water.get(),
            max_in_flight
        );
        prop_assert_eq!(d.in_flight(), 0);
    }

    /// Under an arbitrary seeded fault plan (Poisson crash schedule mapped
    /// onto backends) and every routing policy, with retry enabled:
    ///
    /// 1. the dispatcher never routes work to a backend after its eject —
    ///    no serve call carries a timestamp past the crash instant;
    /// 2. no request is retried more than `max_retries` times (counted per
    ///    request span from the `dispatcher.retry` telemetry trail);
    ///
    /// and conservation still holds on top of the chaos.
    #[test]
    fn fault_plans_never_reach_ejected_backends_and_retries_stay_capped(
        seed in any::<u64>(),
        mean_gap_ms in 100u64..1_500,
        n_backends in 2usize..5,
        arrivals in proptest::collection::vec(0u64..2_000, 1..40),
        max_retries in 0u32..4,
    ) {
        for policy in Policy::ALL {
            let mut sim = Sim::new(seed);
            sim.enable_telemetry();
            let d = Dispatcher::new(DispatcherConfig {
                policy,
                max_in_flight: 64,
                retry: Some(RetryConfig {
                    max_retries,
                    base_backoff: Duration::from_millis(50),
                    max_backoff: Duration::from_millis(400),
                    jitter: 0.2,
                }),
                ..DispatcherConfig::default()
            });
            let serves: Vec<Rc<RefCell<Vec<SimTime>>>> =
                (0..n_backends).map(|_| Rc::new(RefCell::new(Vec::new()))).collect();
            for (i, log) in serves.iter().enumerate() {
                d.add_backend(Rc::new(StampingEcho {
                    name: format!("r{i}"),
                    delay: Duration::from_millis(80),
                    log: Rc::clone(log),
                }));
            }
            // materialize the plan's crash schedule against backend indices
            let plan = FaultPlan::new(seed)
                .poisson_crashes(Duration::from_millis(mean_gap_ms), Duration::from_secs(2));
            let mut victims = plan.derived_rng(0xe1ec);
            let mut ejected_at: HashMap<usize, SimTime> = HashMap::new();
            for offset in plan.crash_times() {
                let idx = victims.below(n_backends as u64) as usize;
                let d2 = Rc::clone(&d);
                let name = format!("r{idx}");
                sim.schedule(offset, move |sim| {
                    let _ = d2.eject_backend(sim, &name);
                });
                // first eject of an index is the one that counts; later
                // strikes on the same name are no-ops
                ejected_at.entry(idx).or_insert(SimTime::ZERO + offset);
            }
            let answered = Rc::new(Cell::new(0u64));
            for &at_ms in &arrivals {
                let d2 = Rc::clone(&d);
                let a = Rc::clone(&answered);
                sim.schedule(Duration::from_millis(at_ms), move |sim| {
                    d2.submit(
                        sim,
                        Request::Invoke { service: "svc".into(), args: Vec::new(), principal: None },
                        Box::new(move |_, _| a.set(a.get() + 1)),
                    );
                });
            }
            sim.run();
            // 1. no serve after the backend's eject instant
            for (idx, log) in serves.iter().enumerate() {
                if let Some(&cutoff) = ejected_at.get(&idx) {
                    for &t in log.borrow().iter() {
                        prop_assert!(
                            t <= cutoff,
                            "{}: r{idx} served at {:?} after eject at {:?}",
                            policy.label(), t, cutoff
                        );
                    }
                }
            }
            // 2. per-request retry count never exceeds the cap
            let t = sim.telemetry().expect("telemetry on");
            let mut per_request: HashMap<SpanId, u32> = HashMap::new();
            for id in t.spans_named("dispatcher.retry") {
                let parent = t.span(id).expect("retry span").parent;
                *per_request.entry(parent).or_insert(0) += 1;
            }
            for (req, n) in &per_request {
                prop_assert!(
                    *n <= max_retries,
                    "{}: request span {:?} retried {} times, cap is {}",
                    policy.label(), req, n, max_retries
                );
            }
            // conservation still holds on top of the chaos
            let c = d.counters();
            let total = arrivals.len() as u64;
            prop_assert_eq!(answered.get(), total, "{}: answered != submitted", policy.label());
            prop_assert_eq!(c.accepted + c.shed, total, "{}: door ledger", policy.label());
            prop_assert_eq!(c.accepted, c.completed + c.faulted, "{}: outcome ledger", policy.label());
            prop_assert_eq!(d.in_flight(), 0, "{}: in-flight after drain", policy.label());
        }
    }
}

/// Test double: serves after a fixed delay, stamping the virtual time of
/// every serve call so the fault-plan property can prove no work reached
/// it after its eject.
struct StampingEcho {
    name: String,
    delay: Duration,
    log: Rc<RefCell<Vec<SimTime>>>,
}

impl Backend for StampingEcho {
    fn name(&self) -> &str {
        &self.name
    }
    fn serve(&self, sim: &mut Sim, _req: Request, done: Responder) {
        self.log.borrow_mut().push(sim.now());
        sim.schedule(self.delay, move |sim| done(sim, Ok(SoapValue::Bool(true))));
    }
}

proptest! {
    /// Session affinity must never override liveness: under an arbitrary
    /// seeded fault plan (ejects) plus arbitrary drains, a pinned request
    /// is never routed to an ejected or draining replica — no serve call
    /// lands on a replica after its first eject/drain instant. Every routed
    /// attempt records exactly one affinity outcome, and conservation holds.
    #[test]
    fn affinity_never_routes_to_ejected_or_draining_replicas(
        seed in any::<u64>(),
        mean_gap_ms in 100u64..1_500,
        n_backends in 2usize..5,
        arrivals in proptest::collection::vec((0u64..2_000, 0usize..6), 1..40),
        drains in proptest::collection::vec((0u64..2_000, 0usize..4), 0..3),
    ) {
        let mut sim = Sim::new(seed);
        let d = Dispatcher::new(DispatcherConfig {
            policy: Policy::RoundRobin,
            max_in_flight: 64,
            retry: Some(RetryConfig {
                max_retries: 2,
                base_backoff: Duration::from_millis(50),
                max_backoff: Duration::from_millis(400),
                jitter: 0.2,
            }),
            affinity: Some(fleet::AffinityConfig::default()),
            ..DispatcherConfig::default()
        });
        let serves: Vec<Rc<RefCell<Vec<SimTime>>>> =
            (0..n_backends).map(|_| Rc::new(RefCell::new(Vec::new()))).collect();
        for (i, log) in serves.iter().enumerate() {
            d.add_backend(Rc::new(StampingEcho {
                name: format!("r{i}"),
                delay: Duration::from_millis(80),
                log: Rc::clone(log),
            }));
        }
        // the cutoff for "no new work" per replica is its earliest eject or
        // drain instant: both stop new serves (drain keeps only what was
        // already dispatched, and those serve calls happened before it)
        let mut cutoff: HashMap<usize, SimTime> = HashMap::new();
        let plan = FaultPlan::new(seed)
            .poisson_crashes(Duration::from_millis(mean_gap_ms), Duration::from_secs(2));
        let mut victims = plan.derived_rng(0xe1ec);
        for offset in plan.crash_times() {
            let idx = victims.below(n_backends as u64) as usize;
            let d2 = Rc::clone(&d);
            let name = format!("r{idx}");
            sim.schedule(offset, move |sim| {
                let _ = d2.eject_backend(sim, &name);
            });
            let at = SimTime::ZERO + offset;
            cutoff.entry(idx).and_modify(|t| *t = (*t).min(at)).or_insert(at);
        }
        for &(at_ms, idx) in &drains {
            let idx = idx % n_backends;
            let d2 = Rc::clone(&d);
            let name = format!("r{idx}");
            sim.schedule(Duration::from_millis(at_ms), move |sim| {
                let _ = d2.remove_backend(sim, &name);
            });
            let at = SimTime::ZERO + Duration::from_millis(at_ms);
            cutoff.entry(idx).and_modify(|t| *t = (*t).min(at)).or_insert(at);
        }
        let answered = Rc::new(Cell::new(0u64));
        for &(at_ms, user) in &arrivals {
            let d2 = Rc::clone(&d);
            let a = Rc::clone(&answered);
            sim.schedule(Duration::from_millis(at_ms), move |sim| {
                d2.submit(
                    sim,
                    Request::Invoke {
                        service: "svc".into(),
                        args: Vec::new(),
                        principal: Some(format!("u{user}")),
                    },
                    Box::new(move |_, _| a.set(a.get() + 1)),
                );
            });
        }
        sim.run();
        // the pinned-routing safety property: no serve past the cutoff
        for (idx, log) in serves.iter().enumerate() {
            if let Some(&at) = cutoff.get(&idx) {
                for &t in log.borrow().iter() {
                    prop_assert!(
                        t <= at,
                        "r{idx} served pinned work at {:?} after loss/drain at {:?}",
                        t, at
                    );
                }
            }
        }
        // every routed attempt (== every serve call) recorded exactly one
        // affinity outcome, since every request here carries a principal
        let c = d.counters();
        let routed: u64 = serves.iter().map(|l| l.borrow().len() as u64).sum();
        prop_assert_eq!(c.affinity_hits + c.affinity_misses + c.affinity_repins, routed);
        let total = arrivals.len() as u64;
        prop_assert_eq!(answered.get(), total, "answered != submitted");
        prop_assert_eq!(c.accepted + c.shed, total, "door ledger");
        prop_assert_eq!(c.accepted, c.completed + c.faulted, "outcome ledger");
        prop_assert_eq!(d.in_flight(), 0, "in-flight after drain");
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
            map.link(
                &format!("s{a}"),
                &format!("s{b}"),
                Duration::from_millis(10 * (a + b + 1) as u64),
                100.0 * KB,
            );
        }
    }
    map
}

proptest! {
    /// Geo routing treats a site outage as a routing fact, never a
    /// request killer: under arbitrary site maps, outage windows, spill
    /// thresholds and pinned/unpinned arrival mixes,
    ///
    /// 1. no request is ever dispatched to a replica whose site is
    ///    severed at that instant — for the first-sight, sticky-hit,
    ///    federation-forward and repin paths alike;
    /// 2. a request arriving while *every* placed site is dark sheds at
    ///    the door instead of being fed into a partition;
    /// 3. every federation forward the dispatcher counts is one the geo
    ///    plane counts (the two ledgers agree);
    ///
    /// and conservation holds throughout.
    #[test]
    fn geo_routing_never_dispatches_into_a_severed_site(
        n_sites in 2usize..5,
        n_backends in 2usize..6,
        outages in proptest::collection::vec((0usize..5, 0u64..2_500, 100u64..1_500), 0..4),
        arrivals in proptest::collection::vec((0u64..3_000, 0usize..6, any::<bool>()), 1..40),
        spill in 1usize..4,
        federation in any::<bool>(),
    ) {
        let mut sim = Sim::new(0x9e0);
        let geo = GeoPlane::new(grid_map(n_sites));
        geo.set_spill_threshold(spill);
        geo.set_federation(federation);
        let d = Dispatcher::new(DispatcherConfig {
            policy: Policy::LeastOutstanding,
            max_in_flight: 64,
            affinity: Some(fleet::AffinityConfig::default()),
            ..DispatcherConfig::default()
        });
        let serves: Vec<Rc<RefCell<Vec<SimTime>>>> =
            (0..n_backends).map(|_| Rc::new(RefCell::new(Vec::new()))).collect();
        for (i, log) in serves.iter().enumerate() {
            d.add_backend(Rc::new(StampingEcho {
                name: format!("r{i}"),
                delay: Duration::from_millis(80),
                log: Rc::clone(log),
            }));
            geo.assign(&format!("r{i}"), &format!("s{}", i % n_sites));
        }
        d.set_geo(Rc::clone(&geo));
        for &(site_idx, from_ms, dur_ms) in &outages {
            let from = SimTime::ZERO + Duration::from_millis(from_ms);
            geo.add_outage(
                &format!("s{}", site_idx % n_sites),
                from,
                from + Duration::from_millis(dur_ms),
            );
        }
        let answered = Rc::new(Cell::new(0u64));
        for &(at_ms, user, pinned) in &arrivals {
            let d2 = Rc::clone(&d);
            let a = Rc::clone(&answered);
            sim.schedule(Duration::from_millis(at_ms), move |sim| {
                d2.submit(
                    sim,
                    Request::Invoke {
                        service: "svc".into(),
                        args: Vec::new(),
                        principal: pinned.then(|| format!("u{user}")),
                    },
                    Box::new(move |_, _| a.set(a.get() + 1)),
                );
            });
        }
        sim.run();
        // 1. no dispatch lands inside an outage window of the replica's site
        for (i, log) in serves.iter().enumerate() {
            let site = format!("s{}", i % n_sites);
            for &t in log.borrow().iter() {
                prop_assert!(
                    !geo.is_down(&site, t),
                    "r{i} on {site} was dispatched work at {t:?} while the site was severed"
                );
            }
        }
        let c = d.counters();
        let total = arrivals.len() as u64;
        // 2 + conservation: all-dark arrivals shed at the door, nothing lost
        prop_assert_eq!(answered.get(), total, "answered != submitted");
        prop_assert_eq!(c.accepted + c.shed, total, "door ledger");
        prop_assert_eq!(c.accepted, c.completed + c.faulted, "outcome ledger");
        prop_assert_eq!(d.in_flight(), 0, "in-flight after drain");
        // 3. the dispatcher's forward count and the plane's agree
        prop_assert_eq!(c.forwarded, geo.counters().forwards, "forward ledgers disagree");
    }
}

/// One full-fleet geo run; returns the run's observable signature so the
/// replay-determinism property can compare two executions bit for bit.
#[allow(clippy::too_many_arguments)]
fn geo_fleet_run(
    seed: u64,
    victim: usize,
    offset_s: u64,
    dur_s: u64,
    drop_pct: u64,
    jitter_ms: u64,
    n_arrivals: u64,
    gap_ms: u64,
    federated: bool,
) -> (u64, u64, u64, u64, u64, u64, u64, u64, u64, u64) {
    let mut sim = Sim::new(seed);
    let mut spec = FleetSpec::with_image(ApplianceImage {
        name: "onserve".into(),
        bytes: 600.0 * MB,
        boot_services: vec!["mysqld".into(), "tomcat".into(), "juddi".into()],
        recipe_fingerprint: 1,
    });
    spec.topology = StorageTopology::Replicated;
    spec.initial_replicas = 3;
    spec.dispatcher.max_in_flight = 64;
    spec.dispatcher.affinity = Some(fleet::AffinityConfig::default());
    spec.dispatcher.request_timeout = Some(Duration::from_secs(60));
    spec.dispatcher.retry = None;
    let fleet = Fleet::new(&mut sim, spec);
    // attach before the scheduled boots run so every replica activates
    // with its site placement
    let geo = GeoPlane::new(grid_map(3));
    geo.set_payload_bytes(32.0 * KB);
    geo.set_spill_threshold(1);
    geo.set_federation(federated);
    let inj = FaultPlan::new(seed)
        .link_drop(drop_pct as f64 / 100.0)
        .link_extra_delay(Duration::from_millis(jitter_ms))
        .injector();
    geo.set_injector(Rc::clone(&inj));
    fleet.attach_geo(Rc::clone(&geo));
    if federated {
        fleet.dispatcher().set_geo(Rc::clone(&geo));
    }
    sim.run();
    fleet.publish(&mut sim, "app.exe", 64 * 1024, ExecutionProfile::quick(), |_| {});
    sim.run();
    let t0 = sim.now();
    let site = format!("s{}", victim % 3);
    let from = t0 + Duration::from_secs(offset_s);
    geo.add_outage(&site, from, from + Duration::from_secs(dur_s));
    let (f2, s2) = (Rc::clone(&fleet), site.clone());
    sim.schedule(Duration::from_secs(offset_s), move |sim| {
        f2.sever_site(sim, &s2);
    });
    let f3 = Rc::clone(&fleet);
    sim.schedule(Duration::from_secs(offset_s + dur_s), move |sim| {
        f3.restore_site(sim, &site);
    });
    let answered = Rc::new(Cell::new(0u64));
    let completed = Rc::new(Cell::new(0u64));
    for i in 0..n_arrivals {
        let d2 = Rc::clone(fleet.dispatcher());
        let (a, c) = (Rc::clone(&answered), Rc::clone(&completed));
        sim.schedule(Duration::from_millis(i * gap_ms), move |sim| {
            d2.submit(
                sim,
                Request::Invoke {
                    service: "app".into(),
                    args: Vec::new(),
                    principal: Some(format!("u{}", i % 5)),
                },
                Box::new(move |_, res| {
                    a.set(a.get() + 1);
                    if res.is_ok() {
                        c.set(c.get() + 1);
                    }
                }),
            );
        });
    }
    sim.run(); // drain every answer, held result and watchdog
    let c = fleet.dispatcher().counters();
    let g = geo.counters();
    (
        answered.get(),
        completed.get(),
        c.accepted,
        c.shed,
        c.completed,
        c.faulted,
        fleet.dispatcher().in_flight() as u64,
        g.blackholed,
        g.wan_hops,
        inj.counts().link_drops,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// The full fleet — real replica boots, WAN answer delivery, held
    /// results, watchdogs — conserves requests under an arbitrary seeded
    /// site outage stacked on arbitrary link faults, in both the
    /// site-oblivious and federated arms; with geo routing on, nothing is
    /// ever fed into the partition (zero blackholes); and the entire run
    /// replays bit-identically from the same seed.
    #[test]
    fn fleet_conserves_requests_under_site_outages_and_link_faults(
        seed in any::<u64>(),
        victim in 0usize..3,
        offset_s in 1u64..30,
        dur_s in 2u64..40,
        drop_pct in 0u64..40,
        jitter_ms in 0u64..400,
        n_arrivals in 4u64..20,
        gap_ms in 500u64..3_000,
        federated in any::<bool>(),
    ) {
        let run = || geo_fleet_run(
            seed, victim, offset_s, dur_s, drop_pct, jitter_ms,
            n_arrivals, gap_ms, federated,
        );
        let sig = run();
        let (answered, _, accepted, shed, completed, faulted, in_flight, blackholed, _, _) = sig;
        prop_assert_eq!(answered, n_arrivals, "answered != submitted");
        prop_assert_eq!(accepted + shed, n_arrivals, "door ledger");
        prop_assert_eq!(accepted, completed + faulted, "outcome ledger");
        prop_assert_eq!(in_flight, 0, "in-flight after drain");
        if federated {
            // routing filters severed sites at dispatch time, so no
            // request can vanish into the partition
            prop_assert_eq!(blackholed, 0, "federated arm fed the partition");
        }
        // same seed, same knobs — same run, bit for bit
        prop_assert_eq!(run(), sig, "replay diverged");
    }
}

/// One full-fleet rollout run — rolling or canary — under an arbitrary
/// seeded crash schedule, returning the run's observable signature plus
/// the invariant evidence (pin-audit violations and the retire log).
#[allow(clippy::type_complexity)]
fn rollout_fleet_run(
    seed: u64,
    canary: bool,
    min_healthy: usize,
    mean_gap_s: u64,
    n_arrivals: u64,
    gap_ms: u64,
) -> (
    ((u64, u64, u64, u64, u64, u64), (u64, u64, i64), Vec<(u32, usize)>, (u64, u64, u64)),
    Vec<String>,
    Vec<fleet::RetireEvent>,
) {
    use fleet::{CanaryConfig, RolloutConfig, RolloutController, RolloutStrategy};
    use fleet::{ChaosMonkey, HealthConfig, HealthPlane};

    let mut sim = Sim::new(seed);
    let mut spec = FleetSpec::with_image(ApplianceImage {
        name: "onserve".into(),
        bytes: 600.0 * MB,
        boot_services: vec!["mysqld".into(), "tomcat".into(), "juddi".into()],
        recipe_fingerprint: 1,
    });
    spec.topology = StorageTopology::Replicated;
    spec.initial_replicas = 3;
    spec.dispatcher.max_in_flight = 64;
    spec.dispatcher.affinity = Some(fleet::AffinityConfig::default());
    spec.dispatcher.retry = Some(RetryConfig {
        max_retries: 2,
        base_backoff: Duration::from_millis(100),
        max_backoff: Duration::from_secs(1),
        jitter: 0.2,
    });
    let fleet = Fleet::new(&mut sim, spec);
    sim.run();
    fleet.publish(&mut sim, "app.exe", 64 * 1024, ExecutionProfile::quick(), |_| {});
    sim.run();
    let plane = HealthPlane::new(HealthConfig {
        window: Duration::from_secs(30),
        ring: 16,
        lookback: Duration::from_secs(240),
        interval: Duration::from_secs(30),
        min_samples: 2,
        ..HealthConfig::default()
    });
    fleet.dispatcher().set_health_plane(Rc::clone(&plane));
    let t0 = sim.now();

    let answered = Rc::new(Cell::new(0u64));
    for i in 0..n_arrivals {
        let d2 = Rc::clone(fleet.dispatcher());
        let a = Rc::clone(&answered);
        sim.schedule(Duration::from_millis(i * gap_ms), move |sim| {
            d2.submit(
                sim,
                Request::Invoke {
                    service: "app".into(),
                    args: Vec::new(),
                    principal: Some(format!("u{}", i % 5)),
                },
                Box::new(move |_, _| a.set(a.get() + 1)),
            );
        });
    }

    // arbitrary crash schedule overlapping the roll
    let plan = FaultPlan::new(seed)
        .poisson_crashes(Duration::from_secs(mean_gap_s), Duration::from_secs(240));
    let f2 = Rc::clone(&fleet);
    let monkey: Rc<RefCell<Option<Rc<ChaosMonkey>>>> = Rc::new(RefCell::new(None));
    let m2 = Rc::clone(&monkey);
    sim.schedule(Duration::from_secs(10), move |sim| {
        *m2.borrow_mut() = Some(ChaosMonkey::unleash(sim, &f2, &plan));
    });

    let strategy = if canary {
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
    let ctl: Rc<RefCell<Option<Rc<RolloutController>>>> = Rc::new(RefCell::new(None));
    let (f3, c3) = (Rc::clone(&fleet), Rc::clone(&ctl));
    sim.schedule(Duration::from_secs(10), move |sim| {
        *c3.borrow_mut() = Some(RolloutController::start(
            sim,
            &f3,
            RolloutConfig {
                to_version: 2,
                strategy,
                min_healthy,
                poll: Duration::from_secs(5),
            },
        ));
    });

    // recurring pin audit: a live pin must never target a replica that
    // is draining, retired, crashed, or still booting
    let violations: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
    fn audit(sim: &mut Sim, fleet: Rc<Fleet>, v: Rc<RefCell<Vec<String>>>, until: SimTime) {
        sim.schedule(Duration::from_secs(7), move |sim| {
            if sim.now() > until {
                return;
            }
            let active = fleet.active_replica_names();
            for (key, target) in fleet.dispatcher().live_pins() {
                if !active.contains(&target) {
                    v.borrow_mut()
                        .push(format!("{}: {key} -> non-active {target}", sim.now()));
                }
            }
            audit(sim, fleet, v, until);
        });
    }
    audit(&mut sim, Rc::clone(&fleet), Rc::clone(&violations), t0 + Duration::from_secs(1800));
    sim.run();

    let ctl = ctl.borrow().clone().expect("rollout started");
    let c = fleet.dispatcher().counters();
    let outcome = match ctl.outcome() {
        None => -1,
        Some(fleet::RolloutOutcome::Completed) => 0,
        Some(fleet::RolloutOutcome::Promoted) => 1,
        Some(fleet::RolloutOutcome::RolledBack) => 2,
    };
    let sig = (
        (
            answered.get(),
            c.accepted,
            c.shed,
            c.completed,
            c.faulted,
            fleet.dispatcher().in_flight() as u64,
        ),
        (ctl.replaced(), ctl.rollbacks(), outcome),
        fleet.version_counts().into_iter().collect::<Vec<_>>(),
        (fleet.lost_total(), fleet.booted_total(), sim.now().ticks()),
    );
    let v = violations.borrow().clone();
    let log = ctl.retire_log();
    (sig, v, log)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// Rollout invariants under arbitrary rolling/canary schedules
    /// crossed with arbitrary crash faults:
    ///
    /// 1. the controller always finishes (completed, promoted, or rolled
    ///    back) and voluntary retirement never cuts into the
    ///    `min_healthy` floor — every retire left `> min_healthy`
    ///    actives behind;
    /// 2. no affinity pin ever targets a draining, retired, crashed, or
    ///    mid-boot replica;
    /// 3. conservation holds at the front door throughout;
    /// 4. the same seed replays the entire run byte-identically.
    #[test]
    fn rollouts_hold_the_floor_keep_pins_live_and_replay(
        seed in any::<u64>(),
        canary in any::<bool>(),
        min_healthy in 1usize..3,
        mean_gap_s in 60u64..400,
        n_arrivals in 4u64..24,
        gap_ms in 500u64..3_000,
    ) {
        let run = || rollout_fleet_run(seed, canary, min_healthy, mean_gap_s, n_arrivals, gap_ms);
        let (sig, violations, log) = run();
        let (answered, accepted, shed, completed, faulted, in_flight) = sig.0;
        prop_assert_eq!(answered, n_arrivals, "answered != submitted");
        prop_assert_eq!(accepted + shed, n_arrivals, "door ledger");
        prop_assert_eq!(accepted, completed + faulted, "outcome ledger");
        prop_assert_eq!(in_flight, 0, "in-flight after drain");
        prop_assert!(sig.1 .2 >= 0, "the rollout never finished");
        for e in &log {
            prop_assert!(
                e.active_before > min_healthy,
                "retire of {} at the floor: {} actives, min_healthy {}",
                e.replica, e.active_before, min_healthy
            );
        }
        prop_assert!(violations.is_empty(), "pin audit failed: {:?}", violations);
        // same seed, same knobs — same run, bit for bit
        let (sig2, ..) = run();
        prop_assert_eq!(sig2, sig, "replay diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Per-tenant QoS invariants under arbitrary tenant mixes, tier
    /// assignments, quota knobs, and mid-run replica drains/ejects
    /// (the drain-window shed case: a request queued at the door and
    /// then flushed when the last replica leaves must count exactly
    /// once, as shed):
    ///
    /// 1. every tenant's ledger conserves — `issued == accepted + shed`
    ///    once drained, with `queued` and per-tenant `in_flight` at 0;
    /// 2. the per-tenant ledgers sum to the global door ledger, and
    ///    every responder fires exactly once;
    /// 3. fairness: at no audited instant does a tenant sit queued and
    ///    under-quota while the admission window has room — an
    ///    over-quota admission can only have happened when nobody
    ///    under-quota was waiting.
    #[test]
    fn qos_conserves_per_tenant_and_never_starves_underquota_tenants(
        backends in proptest::collection::vec((1u64..400, any::<bool>()), 1..4),
        arrivals in proptest::collection::vec((0u64..2_000, 0usize..4), 1..60),
        tiers in proptest::collection::vec(0usize..3, 4),
        max_in_flight in 1usize..9,
        queue_depth in 1usize..6,
        borrow in 0usize..3,
        removals in proptest::collection::vec((0u64..2_000, 0usize..4, any::<bool>()), 0..3),
    ) {
        use fleet::{QosConfig, QosTier};
        let mut sim = Sim::new(0x905);
        let d = Dispatcher::new(DispatcherConfig {
            policy: Policy::RoundRobin,
            max_in_flight,
            ..DispatcherConfig::default()
        });
        let tier_of = |i: usize| QosTier::ALL[tiers[i] % QosTier::ALL.len()];
        d.set_qos(QosConfig {
            tiers: (0..4).map(|i| (format!("t{i}"), tier_of(i))).collect(),
            queue_depth,
            borrow,
            ..QosConfig::default()
        });
        for (i, &(delay_ms, fault)) in backends.iter().enumerate() {
            d.add_backend(Rc::new(Echo {
                name: format!("r{i}"),
                delay: Duration::from_millis(delay_ms),
                fault,
            }));
        }
        let answered = Rc::new(Cell::new(0u64));
        let mut issued_by_tenant = HashMap::new();
        for &(at_ms, tenant_idx) in &arrivals {
            let tenant = format!("t{tenant_idx}");
            *issued_by_tenant.entry(tenant.clone()).or_insert(0u64) += 1;
            let d2 = Rc::clone(&d);
            let a = Rc::clone(&answered);
            sim.schedule(Duration::from_millis(at_ms), move |sim| {
                let fired = Cell::new(false);
                d2.submit(
                    sim,
                    Request::Invoke {
                        service: "svc".into(),
                        args: Vec::new(),
                        principal: Some(tenant),
                    },
                    Box::new(move |_, _| {
                        assert!(!fired.replace(true), "responder fired twice");
                        a.set(a.get() + 1);
                    }),
                );
            });
        }
        // scale-downs and crashes racing the queued traffic
        for &(at_ms, idx, eject) in &removals {
            let d2 = Rc::clone(&d);
            let name = format!("r{}", idx % backends.len());
            sim.schedule(Duration::from_millis(at_ms), move |sim| {
                if eject {
                    let _ = d2.eject_backend(sim, &name);
                } else {
                    let _ = d2.remove_backend(sim, &name);
                }
            });
        }
        // fairness audit on an off-cadence clock across the whole run
        let violations: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
        for k in 0..30u64 {
            let d2 = Rc::clone(&d);
            let v = Rc::clone(&violations);
            sim.schedule(Duration::from_millis(137 * k), move |_| {
                let window_full = d2.in_flight() >= max_in_flight;
                let dead = d2.live_backends() == 0;
                for (t, s) in d2.qos_tenants() {
                    if s.queued > 0 && s.in_flight < s.quota && !window_full && !dead {
                        v.borrow_mut().push(format!(
                            "{t}: queued {} under quota ({}/{}) with {} door slots free",
                            s.queued, s.in_flight, s.quota,
                            max_in_flight - d2.in_flight(),
                        ));
                    }
                }
            });
        }
        sim.run();
        prop_assert!(violations.borrow().is_empty(), "fairness audit: {:?}", violations.borrow());
        let total = arrivals.len() as u64;
        prop_assert_eq!(answered.get(), total, "answered != submitted");
        let c = d.counters();
        prop_assert_eq!(c.accepted + c.shed, total, "door ledger");
        prop_assert_eq!(c.accepted, c.completed + c.faulted, "outcome ledger");
        prop_assert_eq!(d.in_flight(), 0, "in-flight after drain");
        let snap = d.qos_tenants();
        let (mut sum_accepted, mut sum_shed) = (0u64, 0u64);
        for (t, s) in &snap {
            let issued = issued_by_tenant.get(t).copied().unwrap_or(0);
            prop_assert_eq!(s.issued, issued, "{}: issued ledger", t);
            prop_assert_eq!(s.queued, 0, "{}: queue drained", t);
            prop_assert_eq!(s.in_flight, 0, "{}: per-tenant in-flight", t);
            prop_assert_eq!(
                s.accepted + s.shed, s.issued,
                "{}: queued-then-shed must count exactly once", t
            );
            sum_accepted += s.accepted;
            sum_shed += s.shed;
        }
        prop_assert_eq!(sum_accepted, c.accepted, "tenant slices sum to the door ledger");
        prop_assert_eq!(sum_shed, c.shed, "tenant shed slices sum to the door ledger");
    }
}
