//! End-to-end rollout scenarios: rolling replacement, canary promote,
//! canary auto-rollback, and a chaos-crossed canary kill.
//!
//! The invariants under test are the zero-downtime contract:
//!
//! * a rolling upgrade drops no accepted request — retirement drains,
//!   boots precede retires, and the fleet never dips below the floor;
//! * answers are version-tagged and a principal never reads a version
//!   older than its session's first contact (monotonic-version read);
//! * an upload broadcast mid-roll reaches both the vN and vN+1 sides;
//! * a failed (or killed) canary rolls back cleanly: shifted pins are
//!   restored deterministically, the target version reverts, and no pin
//!   ever points at the dead canary;
//! * every scenario replays bit-identically from the same seed.
//!
//! Every scenario runs under the auditor, which also holds the floor, the
//! pins and the ledgers at every event and requires each roll to finish.

mod common;

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use common::invoke;
use fleet::{
    answer_version, AffinityConfig, Audit, CanaryConfig, ChaosMonkey, Fleet, HealthConfig,
    HealthPlane, Request, RetryConfig, RolloutConfig, RolloutController, RolloutOutcome,
    RolloutStrategy, SubmitFn,
};
use onserve::profile::ExecutionProfile;
use simkit::fault::FaultPlan;
use simkit::{Duration, Sim, SimTime, KB};

fn rollout_fleet(sim: &mut Sim, replicas: usize, retry: bool) -> Rc<Fleet> {
    common::fleet(sim, replicas, |spec| {
        spec.dispatcher.affinity = Some(AffinityConfig::default());
        spec.base.config.cache_grid_sessions = true;
        if retry {
            spec.dispatcher.retry = Some(RetryConfig {
                max_retries: 2,
                base_backoff: Duration::from_millis(100),
                max_backoff: Duration::from_secs(1),
                jitter: 0.2,
            });
        }
    })
}

/// Boot, publish the ~15.5 s end-to-end "app" service, drain.
fn boot_and_publish(sim: &mut Sim, fleet: &Rc<Fleet>, audit: &Audit) {
    let profile = ExecutionProfile::quick()
        .lasting(Duration::from_millis(200))
        .producing(16.0 * KB);
    common::boot_and_publish(sim, fleet, audit, ("app.exe", 64 * 1024), profile);
}

/// Windowing tuned to the appliance's ~15.5 s invoke latency, wide
/// enough to hold a 10×-degraded canary's completions.
fn health_config() -> HealthConfig {
    HealthConfig {
        window: Duration::from_secs(30),
        ring: 16,
        lookback: Duration::from_secs(240),
        interval: Duration::from_secs(30),
        latency_factor: 3.0,
        min_samples: 2,
        probation_strikes: 2,
        eject_strikes: 6,
        ..HealthConfig::default()
    }
}

/// Closed-loop traffic ledger: counts plus the version tag of every
/// completed answer, per principal, in completion (== per-principal
/// serve) order.
struct Traffic {
    issued: Cell<u64>,
    ok: Cell<u64>,
    bad: Cell<u64>,
    versions: RefCell<BTreeMap<String, Vec<u32>>>,
}

impl Traffic {
    fn new() -> Rc<Traffic> {
        Rc::new(Traffic {
            issued: Cell::new(0),
            ok: Cell::new(0),
            bad: Cell::new(0),
            versions: RefCell::new(BTreeMap::new()),
        })
    }
}

/// One closed-loop user: think, invoke `app` as `principal`, repeat
/// until `until`. Each request is submitted only after the previous one
/// answered, so the recorded version sequence is the serve order.
fn spawn_user(
    sim: &mut Sim,
    door: Rc<SubmitFn>,
    traffic: Rc<Traffic>,
    principal: String,
    think: Duration,
    until: SimTime,
) {
    sim.schedule(think, move |sim| {
        if sim.now() > until {
            return;
        }
        traffic.issued.set(traffic.issued.get() + 1);
        let d2 = Rc::clone(&door);
        let t2 = Rc::clone(&traffic);
        let p2 = principal.clone();
        door(
            sim,
            invoke("app", Some(&principal)),
            Box::new(move |sim, res| {
                match res {
                    Ok(v) => {
                        t2.ok.set(t2.ok.get() + 1);
                        if let Some(ver) = answer_version(&v) {
                            t2.versions.borrow_mut().entry(p2.clone()).or_default().push(ver);
                        }
                    }
                    Err(_) => t2.bad.set(t2.bad.get() + 1),
                }
                spawn_user(sim, d2, t2, p2, think, until);
            }),
        );
    });
}

const USERS: usize = 6;

fn spawn_population(sim: &mut Sim, door: &Rc<SubmitFn>, traffic: &Rc<Traffic>, until: SimTime) {
    for i in 0..USERS {
        // staggered starts so arrivals interleave without an RNG
        let think = Duration::from_secs(10) + Duration::from_millis(700 * i as u64);
        spawn_user(
            sim,
            Rc::clone(door),
            Rc::clone(traffic),
            format!("user{i}"),
            think,
            until,
        );
    }
}

/// Everything a scenario measures; two same-seed runs must agree exactly.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    issued: u64,
    ok: u64,
    bad: u64,
    shed: u64,
    faulted: u64,
    replaced: u64,
    rollbacks: u64,
    outcome: Option<RolloutOutcome>,
    version_counts: Vec<(u32, usize)>,
    end_ticks: u64,
}

fn fingerprint(
    sim: &Sim,
    fleet: &Rc<Fleet>,
    traffic: &Rc<Traffic>,
    ctl: &Rc<RolloutController>,
) -> Fingerprint {
    let c = fleet.dispatcher().counters();
    Fingerprint {
        issued: traffic.issued.get(),
        ok: traffic.ok.get(),
        bad: traffic.bad.get(),
        shed: c.shed,
        faulted: c.faulted,
        replaced: ctl.replaced(),
        rollbacks: ctl.rollbacks(),
        outcome: ctl.outcome(),
        version_counts: fleet.version_counts().into_iter().collect(),
        end_ticks: sim.now().ticks(),
    }
}

/// Full rolling-upgrade scenario; returns the fingerprint plus the
/// per-principal version tapes and the upload-broadcast observations.
fn rolling_run() -> (Fingerprint, BTreeMap<String, Vec<u32>>, bool, u64, String) {
    let mut sim = Sim::new(0x4011);
    let fleet = rollout_fleet(&mut sim, 3, false);
    let audit = Audit::fleet(&fleet);
    boot_and_publish(&mut sim, &fleet, &audit);
    let plane = HealthPlane::new(health_config());
    fleet.dispatcher().set_health_plane(Rc::clone(&plane));
    let t0 = sim.now();
    let until = t0 + Duration::from_secs(600);
    let traffic = Traffic::new();
    let door = audit.sink();
    spawn_population(&mut sim, &door, &traffic, until);
    let cfg = RolloutConfig {
        min_healthy: 2,
        ..RolloutConfig::rolling(2)
    };
    let ctl = start_rollout(&mut sim, &fleet, &audit, cfg);

    // mid-roll upload: the broadcast must reach whatever mix of vN and
    // vN+1 replicas is live, and catalog replay hands it to later boots
    let both_versions_at_upload = Rc::new(Cell::new(false));
    let extra_published = Rc::new(Cell::new(false));
    let (f3, d3) = (Rc::clone(&fleet), Rc::clone(&door));
    let (b3, e3) = (Rc::clone(&both_versions_at_upload), Rc::clone(&extra_published));
    sim.schedule(Duration::from_secs(150), move |sim| {
        b3.set(f3.version_counts().len() == 2);
        let e = Rc::clone(&e3);
        d3(
            sim,
            Request::Upload {
                file_name: "extra.exe".into(),
                payload: onserve::deployment::synth_executable(32 * 1024),
                profile: ExecutionProfile::quick()
                    .lasting(Duration::from_millis(100))
                    .producing(8.0 * KB),
            },
            Box::new(move |_, res| {
                assert!(res.is_ok(), "mid-roll upload broadcast faulted: {res:?}");
                e.set(true);
            }),
        );
    });

    // after the roll: the mid-roll service must answer from the new
    // fleet, version-tagged with the target version
    let extra_ok = Rc::new(Cell::new(0u64));
    let (d4, x4) = (Rc::clone(&door), Rc::clone(&extra_ok));
    sim.schedule(Duration::from_secs(450), move |sim| {
        for i in 0..USERS {
            let x = Rc::clone(&x4);
            d4(
                sim,
                invoke("extra", Some(&format!("user{i}"))),
                Box::new(move |_, res| {
                    let v = res.expect("post-roll invoke of the mid-roll service");
                    assert_eq!(answer_version(&v), Some(2), "answer not tagged v2");
                    x.set(x.get() + 1);
                }),
            );
        }
    });
    audit.run(&mut sim);

    let ctl = ctl.borrow().clone().expect("rollout started");
    let fp = fingerprint(&sim, &fleet, &traffic, &ctl);
    let log = ctl.retire_log();
    assert_eq!(log.len(), 3, "three v1 replicas retired: {log:?}");
    assert!(extra_published.get(), "mid-roll upload never completed");
    let prom = plane.prometheus_text(sim.now());
    let versions = traffic.versions.borrow().clone();
    (fp, versions, both_versions_at_upload.get(), extra_ok.get(), prom)
}

/// The rollout controller started 30 s from now, watched by the auditor.
type Started = Rc<RefCell<Option<Rc<RolloutController>>>>;

fn start_rollout(
    sim: &mut Sim,
    fleet: &Rc<Fleet>,
    audit: &Rc<Audit>,
    cfg: RolloutConfig,
) -> Started {
    let ctl: Started = Rc::default();
    let (f2, a2, c2) = (Rc::clone(fleet), Rc::clone(audit), Rc::clone(&ctl));
    sim.schedule(Duration::from_secs(30), move |sim| {
        let started = RolloutController::start(sim, &f2, cfg);
        a2.watch_rollout(&started);
        *c2.borrow_mut() = Some(started);
    });
    ctl
}

#[test]
fn rolling_upgrade_drops_nothing_and_versions_read_monotonic() {
    let (fp, versions, both_at_upload, extra_ok, prom) = rolling_run();
    assert_eq!(fp.outcome, Some(RolloutOutcome::Completed), "{fp:?}");
    assert_eq!(fp.replaced, 3, "{fp:?}");
    assert_eq!(fp.rollbacks, 0, "{fp:?}");
    assert_eq!(fp.version_counts, vec![(2, 3)], "fleet fully on v2: {fp:?}");
    // the zero-downtime contract: nothing shed, nothing faulted, every
    // issued request answered
    assert_eq!(fp.shed, 0, "{fp:?}");
    assert_eq!(fp.faulted, 0, "{fp:?}");
    assert_eq!(fp.bad, 0, "{fp:?}");
    assert_eq!(fp.ok, fp.issued, "{fp:?}");
    assert!(fp.issued > 100, "the roll ran under real load: {fp:?}");
    // monotonic-version read: no principal ever sees a version older
    // than one it already read; the roll moved everyone from 1 to 2
    let mut saw = [false, false];
    for (who, tape) in &versions {
        assert!(!tape.is_empty(), "{who} never completed a request");
        for pair in tape.windows(2) {
            assert!(pair[1] >= pair[0], "{who} read backwards: {tape:?}");
        }
        saw[0] |= tape.contains(&1);
        saw[1] |= tape.contains(&2);
    }
    assert!(saw[0] && saw[1], "both versions served during the roll");
    // the mid-roll broadcast hit a mixed fleet and the service survived
    assert!(both_at_upload, "upload landed while both versions were live");
    assert_eq!(extra_ok, USERS as u64, "mid-roll service answers post-roll");
    // the health plane exports the served version as a label
    assert!(prom.contains("version=\"v2\""), "missing version label:\n{prom}");
    simkit::metrics::validate_prometheus_text(&prom).expect("well-formed exposition");
}

#[test]
fn rolling_upgrade_replays_byte_identical() {
    assert_eq!(rolling_run().0, rolling_run().0, "same-seed roll diverged");
}

/// Canary scenario harness: start a canary roll at +30 s and let
/// `meddle` interfere (degrade the canary, crash it, or nothing).
#[allow(clippy::type_complexity)]
fn canary_run(
    seed: u64,
    meddle: impl Fn(&mut Sim, &Rc<Fleet>, &Started) + 'static,
) -> (Fingerprint, Rc<Fleet>, Rc<RolloutController>, Vec<(String, String)>) {
    let mut sim = Sim::new(seed);
    let fleet = rollout_fleet(&mut sim, 3, true);
    let audit = Audit::fleet(&fleet);
    boot_and_publish(&mut sim, &fleet, &audit);
    let plane = HealthPlane::new(health_config());
    fleet.dispatcher().set_health_plane(Rc::clone(&plane));
    let t0 = sim.now();
    let until = t0 + Duration::from_secs(1200);
    let traffic = Traffic::new();
    spawn_population(&mut sim, &audit.sink(), &traffic, until);

    // the pin table the moment the roll starts, for the rollback's restore
    let pre_roll_pins: Rc<RefCell<Vec<(String, String)>>> = Rc::new(RefCell::new(Vec::new()));
    let (f2, p2) = (Rc::clone(&fleet), Rc::clone(&pre_roll_pins));
    sim.schedule(Duration::from_secs(30), move |_| {
        *p2.borrow_mut() = f2.dispatcher().live_pins();
    });
    let cfg = RolloutConfig {
        to_version: 2,
        strategy: RolloutStrategy::Canary(CanaryConfig {
            pin_fraction: 0.5,
            first_sight_pct: 50,
            judgment: Duration::from_secs(240),
            p99_factor: 3.0,
            min_samples: 2,
        }),
        min_healthy: 2,
        poll: Duration::from_secs(5),
    };
    let ctl = start_rollout(&mut sim, &fleet, &audit, cfg);
    meddle(&mut sim, &fleet, &ctl);
    audit.run(&mut sim);

    let ctl = ctl.borrow().clone().expect("rollout started");
    let fp = fingerprint(&sim, &fleet, &traffic, &ctl);
    let pins = pre_roll_pins.borrow().clone();
    (fp, fleet, ctl, pins)
}

#[test]
fn canary_promotes_and_completes_the_roll() {
    let (fp, fleet, ctl, _) = canary_run(0xca7a, |_, _, _| {});
    assert_eq!(fp.outcome, Some(RolloutOutcome::Promoted), "{fp:?}");
    assert_eq!(fp.rollbacks, 0, "{fp:?}");
    assert_eq!(fp.replaced, 3, "{fp:?}");
    assert_eq!(fp.version_counts, vec![(2, 3)], "{fp:?}");
    assert_eq!(fp.shed, 0, "{fp:?}");
    assert_eq!(fp.faulted, 0, "promotion drops nothing: {fp:?}");
    assert!(
        ctl.shifted_pins() >= 1,
        "the canary took a pin share before judgment"
    );
    assert!(fleet.dispatcher().canary_target().is_none(), "share cleared");
}

#[test]
fn degraded_canary_rolls_back_and_restores_pins() {
    // degrade the canary to 10× the moment it enters rotation: judgment
    // must fail, the fleet must return to v1, and every shifted pin must
    // land back on its original replica
    let degraded = Rc::new(Cell::new(false));
    let d2 = Rc::clone(&degraded);
    let (fp, fleet, ctl, pre_roll_pins) =
        canary_run(0xca7b, move |sim, fleet, ctl| {
            watch_and_degrade(sim, Rc::clone(fleet), Rc::clone(ctl), Rc::clone(&d2));
        });
    assert!(degraded.get(), "the canary was degraded");
    assert_eq!(fp.outcome, Some(RolloutOutcome::RolledBack), "{fp:?}");
    assert_eq!(fp.rollbacks, 1, "{fp:?}");
    assert_eq!(fp.replaced, 0, "no v1 replica was retired: {fp:?}");
    assert_eq!(fp.version_counts, vec![(1, 3)], "fleet back on v1: {fp:?}");
    assert_eq!(fleet.target_version(), 1, "target version reverted");
    assert_eq!(fp.shed, 0, "{fp:?}");
    assert_eq!(fp.faulted, 0, "rollback drains, drops nothing: {fp:?}");
    assert!(ctl.shifted_pins() >= 1, "pins were shifted before judgment");
    let canary = ctl.canary_name().expect("canary booted");
    assert!(
        !fleet.active_replica_names().contains(&canary),
        "the failed canary left the rotation"
    );
    // deterministic restore: the pin table is exactly its pre-roll self
    let now_pins: BTreeMap<_, _> = fleet.dispatcher().live_pins().into_iter().collect();
    for (key, target) in &pre_roll_pins {
        assert_eq!(
            now_pins.get(key),
            Some(target),
            "{key} not restored to {target}: {now_pins:?}"
        );
    }
}

/// Poll until the canary is in rotation, then degrade it once.
fn watch_and_degrade(
    sim: &mut Sim,
    fleet: Rc<Fleet>,
    ctl: Started,
    done: Rc<Cell<bool>>,
) {
    sim.schedule(Duration::from_secs(5), move |sim| {
        if done.get() {
            return;
        }
        let canary = ctl.borrow().as_ref().and_then(|c| c.canary_name());
        if let Some(name) = canary {
            if fleet.replica_version(&name).is_some() {
                assert!(fleet.degrade_replica(sim, &name, 10.0));
                done.set(true);
                return;
            }
        }
        watch_and_degrade(sim, fleet, ctl, done);
    });
}

/// Chaos × rollout: a seeded [`ChaosMonkey`] crash lands on the canary
/// in the middle of its judgment window. The controller must roll back
/// cleanly — conservation holds, the fleet returns to v1, and no pin
/// ever points at the dead canary.
#[test]
fn chaos_kill_of_canary_mid_judgment_rolls_back_cleanly() {
    // plan seed chosen so the crash victim drawn at +205 s (4 actives:
    // 3×v1 + the canary) is the canary itself
    const PLAN_SEED: u64 = 0;
    let monkey: Rc<RefCell<Option<Rc<ChaosMonkey>>>> = Rc::new(RefCell::new(None));
    let m2 = Rc::clone(&monkey);
    let (fp, fleet, ctl, _) = canary_run(0xca7c, move |sim, fleet, _| {
        let plan = FaultPlan::new(PLAN_SEED).crash_at(Duration::from_secs(205));
        let f = Rc::clone(fleet);
        let m = Rc::clone(&m2);
        sim.schedule(Duration::from_secs(30), move |sim| {
            *m.borrow_mut() = Some(ChaosMonkey::unleash(sim, &f, &plan));
        });
    });
    let monkey = monkey.borrow().clone().expect("monkey unleashed");
    let canary = ctl.canary_name().expect("canary booted");
    assert_eq!(monkey.landed(), 1, "the pinned crash landed");
    assert_eq!(fleet.lost_total(), 1);
    assert!(
        fleet.replica_version(&canary).is_none(),
        "the crash victim was the canary (re-pick PLAN_SEED if this fails)"
    );
    assert_eq!(fp.outcome, Some(RolloutOutcome::RolledBack), "{fp:?}");
    assert_eq!(fp.rollbacks, 1, "{fp:?}");
    assert_eq!(fp.version_counts, vec![(1, 3)], "fleet back on v1: {fp:?}");
    assert_eq!(fleet.target_version(), 1, "target version reverted");
    assert_eq!(fp.shed, 0, "{fp:?}");
    // in-flight work on the killed canary was retried on survivors
    assert_eq!(fp.bad, 0, "retries absorbed the crash: {fp:?}");
}

#[test]
fn canary_rollback_replays_byte_identical() {
    let run = || {
        let degraded = Rc::new(Cell::new(false));
        let d = Rc::clone(&degraded);
        canary_run(0xca7d, move |sim, fleet, ctl| {
            watch_and_degrade(sim, Rc::clone(fleet), Rc::clone(ctl), Rc::clone(&d));
        })
        .0
    };
    assert_eq!(run(), run(), "same-seed canary rollback diverged");
}

