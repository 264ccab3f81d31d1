//! End-to-end gray-failure detection against a real fleet.
//!
//! A replica is degraded to 10× its normal service latency — it still
//! answers, so crash-signal detection never fires. The health plane's
//! peer-relative detector must put it on probation within a bounded number
//! of ticks, keep probing it, and eject it for continued degradation —
//! while never flagging a healthy peer. A second test pins the plane's
//! result-neutrality: attaching it must not move a single event.

mod common;

use std::cell::Cell;
use std::rc::Rc;

use common::invoke;
use fleet::{
    Audit, DetectorAction, Fleet, GrayFailureDetector, HealthConfig, HealthPlane, SubmitFn,
};
use onserve::profile::ExecutionProfile;
use simkit::{Duration, Sim, SimTime};

/// Boot, publish a 200ms service, and drain the provisioning.
fn boot_and_publish(sim: &mut Sim, fleet: &Rc<Fleet>, audit: &Audit) {
    let profile = ExecutionProfile::quick().lasting(Duration::from_millis(200));
    common::boot_and_publish(sim, fleet, audit, ("svc.exe", 256 * 1024), profile);
}

/// Submit one invoke every `every` until `until`, counting completions.
fn pump(sim: &mut Sim, door: &Rc<SubmitFn>, every: Duration, until: SimTime, ok: Rc<Cell<u64>>) {
    if sim.now() > until {
        return;
    }
    let c = Rc::clone(&ok);
    door(
        sim,
        invoke("svc", Some("alice")),
        Box::new(move |_, res| {
            if res.is_ok() {
                c.set(c.get() + 1);
            }
        }),
    );
    let door = Rc::clone(door);
    sim.schedule(every, move |sim| pump(sim, &door, every, until, ok));
}

/// Windowing tuned to the appliance's real invoke latency (~15s end to
/// end through upload-fetch + grid job): the lookback must hold several
/// completions per replica, degraded ones included.
fn test_cfg(eject_strikes: u32) -> HealthConfig {
    HealthConfig {
        window: Duration::from_secs(15),
        ring: 32,
        lookback: Duration::from_secs(120),
        interval: Duration::from_secs(15),
        latency_factor: 3.0,
        min_samples: 2,
        probation_strikes: 2,
        eject_strikes,
        ..HealthConfig::default()
    }
}

#[test]
fn detector_probations_then_ejects_a_gray_replica() {
    let mut sim = Sim::new(31);
    let fleet = common::fleet(&mut sim, 3, |_| {});
    let audit = Audit::fleet(&fleet);
    boot_and_publish(&mut sim, &fleet, &audit);
    let cfg = test_cfg(5);
    let plane = HealthPlane::new(cfg);
    fleet.dispatcher().set_health_plane(Rc::clone(&plane));
    let t0 = sim.now();
    let until = t0 + Duration::from_secs(900);
    let detector = GrayFailureDetector::install(&mut sim, &fleet, &plane, until);
    let ok = Rc::new(Cell::new(0u64));
    // paced so the two healthy replicas stay stable even while they carry
    // the probationer's share (~15s service time per replica)
    pump(&mut sim, &audit.sink(), Duration::from_secs(15), until, Rc::clone(&ok));
    let victim = fleet.active_replica_names()[1].clone();
    let degrade_at = t0 + Duration::from_secs(90);
    let (f2, v2) = (Rc::clone(&fleet), victim.clone());
    sim.schedule(degrade_at - t0, move |sim| {
        assert!(f2.degrade_replica(sim, &v2, 3.0));
    });
    audit.run(&mut sim);

    let events = detector.events();
    assert!(
        events.iter().all(|e| e.replica == victim),
        "only the degraded replica may be flagged: {events:?}"
    );
    let probation = events
        .iter()
        .find(|e| e.action == DetectorAction::Probation)
        .expect("victim goes on probation");
    let eject = events
        .iter()
        .find(|e| e.action == DetectorAction::Ejected)
        .expect("continued degradation ejects the victim");
    assert!(
        probation.at <= degrade_at + Duration::from_secs(150),
        "probation within 10 ticks of the degrade, got +{:.0}s",
        (probation.at - degrade_at).as_secs_f64()
    );
    assert!(eject.at > probation.at, "probation precedes ejection");
    assert!(
        eject.at <= degrade_at + Duration::from_secs(270),
        "bounded time to eject, got +{:.0}s",
        (eject.at - degrade_at).as_secs_f64()
    );
    assert!(
        probation.p99_s >= cfg.latency_factor * probation.median_p99_s,
        "the flag was justified by the windowed stats: {probation:?}"
    );
    assert_eq!(detector.ejections(), 1);
    assert_eq!(fleet.lost_total(), 1, "ejection looks like a crash to the fleet");
    assert_eq!(fleet.active_replicas(), 2);
    assert!(ok.get() > 40, "traffic kept flowing, got {}", ok.get());
}

#[test]
fn cleared_probation_restores_a_recovered_replica() {
    let mut sim = Sim::new(32);
    let fleet = common::fleet(&mut sim, 3, |_| {});
    let audit = Audit::fleet(&fleet);
    boot_and_publish(&mut sim, &fleet, &audit);
    // plenty of strike room: recovery must beat ejection
    let cfg = test_cfg(30);
    let plane = HealthPlane::new(cfg);
    fleet.dispatcher().set_health_plane(Rc::clone(&plane));
    let t0 = sim.now();
    let until = t0 + Duration::from_secs(900);
    let detector = GrayFailureDetector::install(&mut sim, &fleet, &plane, until);
    let ok = Rc::new(Cell::new(0u64));
    pump(&mut sim, &audit.sink(), Duration::from_secs(6), until, Rc::clone(&ok));
    let victim = fleet.active_replica_names()[0].clone();
    let (f2, v2) = (Rc::clone(&fleet), victim.clone());
    sim.schedule(Duration::from_secs(90), move |sim| {
        assert!(f2.degrade_replica(sim, &v2, 3.0));
    });
    // recover well before the (generous) eject threshold
    let (f3, v3) = (Rc::clone(&fleet), victim.clone());
    sim.schedule(Duration::from_secs(330), move |sim| {
        assert!(f3.degrade_replica(sim, &v3, 1.0));
    });
    audit.run(&mut sim);

    let events = detector.events();
    assert!(events.iter().all(|e| e.replica == victim));
    assert!(detector.probations() >= 1, "degrade was caught: {events:?}");
    assert_eq!(detector.ejections(), 0, "recovered replica is not ejected");
    assert!(
        events
            .iter()
            .any(|e| e.action == DetectorAction::Cleared),
        "probation lifts once the replica rejoins the pack: {events:?}"
    );
    assert_eq!(fleet.active_replicas(), 3, "nobody lost");
    assert_eq!(fleet.dispatcher().probation_count(), 0);
}

/// Blobstore write-fault injection on one replica must surface as SOAP
/// faults on the upload path, feed the health plane's per-replica error
/// series, and drive the peer-relative detector to put the replica on
/// probation — an error outlier, not a latency one.
#[test]
fn write_faults_surface_as_soap_faults_and_draw_probation() {
    use fleet::ChaosMonkey;
    use simkit::fault::FaultPlan;

    let mut sim = Sim::new(33);
    let fleet = common::fleet(&mut sim, 3, |_| {});
    let audit = Audit::fleet(&fleet);
    boot_and_publish(&mut sim, &fleet, &audit);
    let cfg = test_cfg(999); // probation is the claim; never escalate
    let plane = HealthPlane::new(cfg);
    fleet.dispatcher().set_health_plane(Rc::clone(&plane));
    let t0 = sim.now();
    let until = t0 + Duration::from_secs(600);
    let detector = GrayFailureDetector::install(&mut sim, &fleet, &plane, until);
    // every DB write on the seeded victim fails from here on
    let monkey = ChaosMonkey::unleash(&mut sim, &fleet, &FaultPlan::new(21).write_fail(1.0));
    let victim = monkey.write_faulted().expect("one replica armed");
    // steady invokes keep latency samples flowing on every replica …
    let ok = Rc::new(Cell::new(0u64));
    pump(&mut sim, &audit.sink(), Duration::from_secs(6), until, Rc::clone(&ok));
    // … while periodic uploads hit the broken write path
    let upload_faults = Rc::new(Cell::new(0u64));
    fn upload_every(
        sim: &mut Sim,
        door: &Rc<SubmitFn>,
        until: SimTime,
        n: u64,
        faults: Rc<Cell<u64>>,
    ) {
        if sim.now() > until {
            return;
        }
        let f2 = Rc::clone(&faults);
        door(
            sim,
            fleet::Request::Upload {
                file_name: format!("w{n}.exe"),
                payload: onserve::deployment::synth_executable(16 * 1024),
                profile: onserve::profile::ExecutionProfile::quick(),
            },
            Box::new(move |_, res| {
                if res.is_err() {
                    f2.set(f2.get() + 1);
                }
            }),
        );
        let door = Rc::clone(door);
        sim.schedule(Duration::from_secs(30), move |sim| {
            upload_every(sim, &door, until, n + 1, faults)
        });
    }
    upload_every(&mut sim, &audit.sink(), until, 0, Rc::clone(&upload_faults));
    audit.run(&mut sim);

    // the broken store surfaced at the front door as SOAP faults
    assert!(
        upload_faults.get() >= 3,
        "uploads through the armed replica must fault, got {}",
        upload_faults.get()
    );
    // the error series carries the evidence
    let h = plane
        .replica_health(until, &victim)
        .expect("victim has windowed stats");
    assert!(
        h.error_rate > 0.0,
        "victim error series stayed clean: {h:?}"
    );
    // and the detector acted on it — probation for the victim, nobody else
    let events = detector.events();
    assert!(
        events.iter().all(|e| e.replica == victim),
        "only the write-faulted replica may be flagged: {events:?}"
    );
    assert!(
        events.iter().any(|e| e.action == DetectorAction::Probation),
        "victim never went on probation: {events:?}"
    );
    assert!(ok.get() > 40, "invoke traffic kept flowing, got {}", ok.get());
}

/// Tenants are request principals, so two of them may differ only in
/// characters the Prometheus name rule folds (`a.b`, `a_b`). The second
/// to arrive must not open a second family of the same name: it folds
/// into `other`, under both tenant caps, and its samples still count.
#[test]
fn tenants_that_sanitize_alike_fold_into_other_and_the_exposition_validates() {
    let plane = HealthPlane::new(HealthConfig::default());
    let t = SimTime::from_secs(3);
    for tenant in ["a.b", "a_b"] {
        plane.record_submit(t, 1, 0, Some(tenant));
        plane.record_tenant_accepted(t, tenant);
        plane.record_tenant_latency(t, tenant, Duration::from_millis(4), true);
    }
    let text = plane.prometheus_text(t);
    simkit::validate_prometheus_text(&text).expect("no family is declared twice");
    for sample in [
        "tenant_a_b_requests 1\n",
        "tenant_other_requests 1\n",
        "fleet_tenant_a_b_accepted{tenant=\"a.b\"} 1\n",
        "fleet_tenant_other_accepted{tenant=\"other\"} 1\n",
        "fleet_tenant_a_b_errors{tenant=\"a.b\"} 1\n",
        "fleet_tenant_other_errors{tenant=\"other\"} 1\n",
        "fleet_tenant_a_b_latency_us_count{tenant=\"a.b\"} 1\n",
        "fleet_tenant_other_latency_us_count{tenant=\"other\"} 1\n",
    ] {
        assert_eq!(text.matches(sample).count(), 1, "{sample:?} in:\n{text}");
    }
}

#[test]
fn health_plane_attachment_is_result_neutral() {
    let run = |attach: bool| {
        let mut sim = Sim::new(57);
        let fleet = common::fleet(&mut sim, 2, |_| {});
        let audit = Audit::fleet(&fleet);
        boot_and_publish(&mut sim, &fleet, &audit);
        if attach {
            fleet
                .dispatcher()
                .set_health_plane(HealthPlane::new(HealthConfig::default()));
        }
        let until = sim.now() + Duration::from_secs(120);
        let ok = Rc::new(Cell::new(0u64));
        pump(&mut sim, &audit.sink(), Duration::from_millis(250), until, Rc::clone(&ok));
        // a gray failure mid-run exercises the stretch path under the plane
        let f2 = Rc::clone(&fleet);
        sim.schedule(Duration::from_secs(30), move |sim| {
            let name = f2.active_replica_names()[0].clone();
            assert!(f2.degrade_replica(sim, &name, 3.0));
        });
        audit.run(&mut sim);
        (
            sim.now().ticks(),
            sim.events_executed(),
            fleet.dispatcher().counters(),
            ok.get(),
        )
    };
    assert_eq!(
        run(false),
        run(true),
        "attaching the plane must not move a single event"
    );
}

