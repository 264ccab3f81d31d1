//! Chaos soak and telemetry coverage for involuntary replica loss.
//!
//! The soak drives a seeded 10 000-request closed loop against a fleet
//! under Poisson replica crashes with autoscaler replacement. The auditor
//! holds it to request conservation at every event — crashes may cost
//! goodput, never answers — and the same run twice must produce an
//! identical fingerprint, byte-for-byte determinism being what makes a
//! chaos schedule a reproducible test fixture rather than flake.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use fleet::{
    AffinityConfig, Audit, Autoscaler, AutoscalerConfig, ChaosMonkey, DispatchCounters, Fleet,
    SubmitFn,
};
use onserve::profile::ExecutionProfile;
use simkit::fault::FaultPlan;
use simkit::telemetry::{validate_chrome_trace, AttrValue};
use simkit::{Duration, Rng, Sim};

mod common;

use common::invoke;

fn chaos_fleet(sim: &mut Sim, replicas: usize, affinity: bool) -> Rc<Fleet> {
    common::fleet(sim, replicas, |spec| {
        if affinity {
            // sticky routing pays off through the per-replica session
            // cache, so the two switches travel together in these scenarios
            spec.dispatcher.affinity = Some(AffinityConfig::default());
            spec.base.config.cache_grid_sessions = true;
        }
    })
}

/// Everything the soak measures; two same-seed runs must agree exactly.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    counters: DispatchCounters,
    lost: u64,
    booted: u64,
    end_ticks: u64,
}

const SOAK_TOTAL: u64 = 10_000;
const SOAK_USERS: usize = 40;

/// One closed-loop user: think, invoke `app`, and go again once
/// answered, until the population has issued [`SOAK_TOTAL`].
fn spawn_user(sim: &mut Sim, door: Rc<SubmitFn>, issued: Rc<Cell<u64>>, rng: Rc<RefCell<Rng>>) {
    let think = Duration::from_millis(rng.borrow_mut().range(50, 400));
    sim.schedule(think, move |sim| {
        if issued.get() >= SOAK_TOTAL {
            return; // population drains once the budget is spent
        }
        issued.set(issued.get() + 1);
        let again = Rc::clone(&door);
        let answered = Box::new(move |sim: &mut Sim, _| spawn_user(sim, again, issued, rng));
        door(sim, invoke("app", None), answered);
    });
}

fn soak(seed: u64, drain: fn(&Audit, &mut Sim)) -> Fingerprint {
    let mut sim = Sim::new(seed);
    let fleet = chaos_fleet(&mut sim, 3, false);
    let audit = Audit::fleet(&fleet);
    drain(&audit, &mut sim);
    fleet.publish(
        &mut sim,
        "app.exe",
        64 * 1024,
        ExecutionProfile::quick()
            .lasting(Duration::from_millis(500))
            .producing(16.0 * 1024.0),
        |_| {},
    );
    drain(&audit, &mut sim);
    // replacement-only autoscaler: crash loss is re-ordered, load is not
    let until = sim.now() + Duration::from_secs(3600);
    let _scaler = Autoscaler::install(
        &mut sim,
        &fleet,
        AutoscalerConfig {
            interval: Duration::from_secs(10),
            cooldown: Duration::from_secs(60),
            scale_up_load: f64::INFINITY,
            scale_down_load: 0.0,
            min_replicas: 3,
            max_replicas: 6,
            ..AutoscalerConfig::default()
        },
        until,
    );
    let plan = FaultPlan::new(seed)
        .poisson_crashes(Duration::from_secs(120), Duration::from_secs(600));
    let monkey = ChaosMonkey::unleash(&mut sim, &fleet, &plan);
    let issued = Rc::new(Cell::new(0));
    let rng = Rc::new(RefCell::new(sim.rng().fork()));
    for _ in 0..SOAK_USERS {
        spawn_user(&mut sim, audit.sink(), Rc::clone(&issued), Rc::clone(&rng));
    }
    drain(&audit, &mut sim);

    assert_eq!(issued.get(), SOAK_TOTAL);
    assert_eq!(monkey.landed(), fleet.lost_total());
    assert!(
        monkey.landed() >= 2,
        "the Poisson schedule should land several crashes, got {}",
        monkey.landed()
    );
    assert_eq!(fleet.retired_total(), 0, "nothing was voluntarily retired");
    // the fleet healed: replacements restored the floor
    assert!(fleet.active_replicas() >= 3);
    Fingerprint {
        counters: fleet.dispatcher().counters(),
        lost: fleet.lost_total(),
        booted: fleet.booted_total(),
        end_ticks: sim.now().ticks(),
    }
}

#[test]
fn soak_10k_requests_conserved_under_poisson_crashes_and_deterministic() {
    const SEED: u64 = 0x50a4;
    let first = soak(SEED, Audit::run);
    let replay = soak(SEED, common::unaudited);
    assert_eq!(first, replay, "same-seed chaos soak must replay exactly");
    assert!(first.lost > 0, "chaos actually happened: {first:?}");
    assert!(
        first.counters.completed > SOAK_TOTAL * 9 / 10,
        "retry should keep goodput high: {first:?}"
    );
}

/// Crash → eject → retry → success leaves a causal telemetry trail naming
/// the dead replica, and the export stays strictly well-formed.
#[test]
fn crash_retry_success_emits_replica_lost_and_retry_spans() {
    let mut sim = Sim::new(77);
    let fleet = chaos_fleet(&mut sim, 2, false);
    let audit = Audit::fleet(&fleet);
    let slow = ExecutionProfile::quick().lasting(Duration::from_secs(30));
    common::boot_and_publish(&mut sim, &fleet, &audit, ("slow.exe", 1024 * 1024), slow);
    // occupy both replicas, then kill replica0 mid-flight
    let ok = Rc::new(Cell::new(0u32));
    let door = audit.sink();
    for _ in 0..2 {
        let ok = Rc::clone(&ok);
        door(
            &mut sim,
            invoke("slow", None),
            Box::new(move |_, res| {
                assert!(res.is_ok(), "{res:?}");
                ok.set(ok.get() + 1);
            }),
        );
    }
    let victim = fleet.active_replica_names()[0].clone();
    let fleet2 = Rc::clone(&fleet);
    let v2 = victim.clone();
    sim.schedule(Duration::from_secs(5), move |sim| {
        assert!(fleet2.crash_replica(sim, &v2));
    });
    audit.run(&mut sim);
    assert_eq!(ok.get(), 2);

    let t = sim.telemetry().expect("telemetry on");
    let dead = AttrValue::Str(victim.clone());
    // the fleet recorded the loss, attributed to the dead replica
    let lost = t.spans_named("fleet.replica_lost");
    assert_eq!(lost.len(), 1);
    let lost_rec = t.span(lost[0]).expect("resolvable");
    assert_eq!(lost_rec.attr("replica"), Some(&dead));
    assert!(lost_rec.end.is_some(), "fleet.replica_lost never closed");
    // the dispatcher retried the in-flight request, blaming the same
    // replica, under the original request span
    let retries = t.spans_named("dispatcher.retry");
    assert!(!retries.is_empty(), "no dispatcher.retry span");
    for id in retries {
        let rec = t.span(id).expect("resolvable");
        assert_eq!(rec.attr("replica"), Some(&dead));
        assert!(rec.end.is_some(), "retry span never closed");
        assert_ne!(rec.parent, simkit::SpanId::NONE, "retry span is parented");
    }
    let check = validate_chrome_trace(&sim.export_chrome_trace()).expect("well-formed trace");
    assert!(check.events > 0);
    assert_eq!(check.begins, check.ends, "unbalanced B/E events");
}

/// A sticky user whose pinned replica crashes mid-request is retried on the
/// survivor and re-authenticates there exactly once — the session cache
/// absorbs every later request, so the crash costs one credential exchange,
/// not one per request.
#[test]
fn sticky_replica_crash_retries_on_survivor_and_reauthenticates_once() {
    let mut sim = Sim::new(78);
    let fleet = chaos_fleet(&mut sim, 2, true);
    let audit = Audit::fleet(&fleet);
    let slow = ExecutionProfile::quick().lasting(Duration::from_secs(30));
    common::boot_and_publish(&mut sim, &fleet, &audit, ("slow.exe", 1024 * 1024), slow);
    let auth_spans =
        |sim: &Sim| sim.telemetry().expect("telemetry on").spans_named("agent.authenticate").len();
    let door = audit.sink();
    let invoke_as_alice = |sim: &mut Sim, ok: &Rc<Cell<u32>>| {
        let ok = Rc::clone(ok);
        door(
            sim,
            invoke("slow", Some("alice")),
            Box::new(move |_, res| {
                assert!(res.is_ok(), "{res:?}");
                ok.set(ok.get() + 1);
            }),
        );
    };
    let ok = Rc::new(Cell::new(0u32));

    // request 1 pins alice to a replica and authenticates there once
    let base = auth_spans(&sim);
    invoke_as_alice(&mut sim, &ok);
    audit.run(&mut sim);
    assert_eq!(ok.get(), 1);
    assert_eq!(auth_spans(&sim), base + 1, "first request authenticates once");
    let t = sim.telemetry().expect("telemetry on");
    let dispatches = t.spans_named("dispatcher.dispatch");
    let Some(AttrValue::Str(pinned)) =
        t.span(*dispatches.last().expect("dispatched")).expect("resolvable").attr("replica").cloned()
    else {
        panic!("dispatch span records the chosen replica")
    };

    // request 2 heads for the pinned replica; kill it mid-flight
    invoke_as_alice(&mut sim, &ok);
    let fleet2 = Rc::clone(&fleet);
    let victim = pinned.clone();
    sim.schedule(Duration::from_secs(5), move |sim| {
        assert!(fleet2.crash_replica(sim, &victim));
    });
    audit.run(&mut sim);
    assert_eq!(ok.get(), 2, "retry must answer the interrupted request");
    // the retry re-pinned onto the survivor and authenticated there — once
    assert_eq!(auth_spans(&sim), base + 2, "crash costs exactly one re-auth");
    assert_eq!(fleet.dispatcher().counters().affinity_repins, 1);

    // request 3 rides the survivor's cached session: no new credential work
    invoke_as_alice(&mut sim, &ok);
    audit.run(&mut sim);
    assert_eq!(ok.get(), 3);
    assert_eq!(auth_spans(&sim), base + 2, "cached session absorbs request 3");
    assert!(fleet.dispatcher().counters().affinity_hits >= 1);
    // and the retry trail blames the dead replica
    let t = sim.telemetry().expect("telemetry on");
    let retries = t.spans_named("dispatcher.retry");
    assert!(!retries.is_empty());
    for id in retries {
        assert_eq!(
            t.span(id).expect("resolvable").attr("replica"),
            Some(&AttrValue::Str(pinned.clone()))
        );
    }
}
