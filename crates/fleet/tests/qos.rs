//! Per-tenant QoS end-to-end: the ticket's tenant + tier identity is
//! assigned exactly once, at admission, and provably survives every
//! path that re-routes an in-flight request afterwards:
//!
//! * a crash-driven retry (the replica dies mid-request and the ticket
//!   re-routes on the survivor);
//! * a rendezvous re-pin (the pinned replica leaves rotation and the
//!   principal's next request reassigns);
//! * a canary `shift_pins` (the pin is deliberately moved onto a canary
//!   target);
//! * a door-queued request granted later by the DRR stage.
//!
//! Each scenario runs under the auditor, which holds the per-tenant
//! ledgers at every event, and reads the `tenant`/`tier` span attributes
//! off the telemetry to prove the identity rode along rather than being
//! re-derived.

mod common;

use std::cell::Cell;
use std::rc::Rc;

use common::{invoke, BlackHole, Echo};
use fleet::{
    AffinityConfig, Audit, Dispatcher, DispatcherConfig, Policy, QosConfig, QosTier, Request,
    RetryConfig,
};
use simkit::{AttrValue, Duration, Sim};

fn invoke_as(principal: &str) -> Request {
    invoke("svc", Some(principal))
}

fn qos_dispatcher(tiers: &[(&str, QosTier)], max_in_flight: usize) -> Rc<Dispatcher> {
    let d = Dispatcher::new(DispatcherConfig {
        policy: Policy::RoundRobin,
        max_in_flight,
        affinity: Some(AffinityConfig::default()),
        retry: Some(RetryConfig {
            max_retries: 2,
            base_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_secs(1),
            jitter: 0.0,
        }),
        ..DispatcherConfig::default()
    });
    d.set_qos(QosConfig {
        tiers: tiers
            .iter()
            .map(|(t, w)| ((*t).to_owned(), *w))
            .collect(),
        ..QosConfig::default()
    });
    d
}

fn str_attr<'a>(sim: &'a Sim, span: simkit::SpanId, key: &str) -> Option<&'a str> {
    match sim.telemetry().expect("telemetry on").span(span)?.attr(key)? {
        AttrValue::Str(s) => Some(s.as_str()),
        _ => None,
    }
}

/// The tenant was admitted `issued` times and never shed; the auditor
/// holds the rest of its ledger.
fn assert_all_admitted(d: &Dispatcher, tenant: &str, issued: u64) {
    let snap = &d.qos_tenants()[tenant];
    assert_eq!(snap.issued, issued);
    assert_eq!(snap.accepted, issued, "nothing shed in this scenario");
}

#[test]
fn tier_survives_crash_retry() {
    let mut sim = Sim::new(70);
    sim.enable_telemetry();
    let d = qos_dispatcher(&[("alice", QosTier::Gold)], 8);
    let b = Echo::new("b", 10, false);
    d.add_backend(Rc::new(BlackHole("a")));
    d.add_backend(b.clone());
    let audit = Audit::new(&d);
    let ok = Rc::new(Cell::new(false));
    let o = ok.clone();
    // round-robin sends alice's first request to the black hole "a"
    audit.sink()(
        &mut sim,
        invoke_as("alice"),
        Box::new(move |_, r| o.set(r.is_ok())),
    );
    // the replica dies mid-request: the ticket must retry on "b" at its
    // admission-time identity, not re-enter the door
    let d2 = Rc::clone(&d);
    sim.schedule(Duration::from_millis(50), move |sim| {
        assert!(d2.eject_backend(sim, "a"));
    });
    audit.run(&mut sim);
    assert!(ok.get(), "retried onto the survivor");
    assert_eq!(b.served.get(), 1);
    assert_all_admitted(&d, "alice", 1);
    let snap = &d.qos_tenants()["alice"];
    assert_eq!(snap.tier, QosTier::Gold);
    // the retry span carries the admission-time tenant and tier
    let t = sim.telemetry().expect("telemetry on");
    let retries = t.spans_named("dispatcher.retry");
    assert_eq!(retries.len(), 1);
    assert_eq!(str_attr(&sim, retries[0], "tenant"), Some("alice"));
    assert_eq!(str_attr(&sim, retries[0], "tier"), Some("gold"));
    // the dispatch span was tagged once, at admission
    let dispatches = t.spans_named("dispatcher.dispatch");
    assert_eq!(str_attr(&sim, dispatches[0], "tenant"), Some("alice"));
    assert_eq!(str_attr(&sim, dispatches[0], "tier"), Some("gold"));
}

#[test]
fn tier_survives_rendezvous_repin() {
    let mut sim = Sim::new(71);
    sim.enable_telemetry();
    let d = qos_dispatcher(&[("alice", QosTier::Batch)], 8);
    let (a, b) = (Echo::new("a", 10, false), Echo::new("b", 10, false));
    d.add_backend(a.clone());
    d.add_backend(b.clone());
    let audit = Audit::new(&d);
    let door = audit.sink();
    // request 1 pins alice to "a"
    door(
        &mut sim,
        invoke_as("alice"),
        Box::new(|_, r| assert!(r.is_ok())),
    );
    audit.run(&mut sim);
    assert_eq!(d.pin_target("alice").as_deref(), Some("a"));
    // the pinned replica leaves rotation; the orphaned pin reassigns by
    // rendezvous on alice's next request — at her original tier
    assert!(d.eject_backend(&mut sim, "a"));
    door(
        &mut sim,
        invoke_as("alice"),
        Box::new(|_, r| assert!(r.is_ok())),
    );
    audit.run(&mut sim);
    assert_eq!(d.pin_target("alice").as_deref(), Some("b"), "re-pinned");
    assert_eq!(d.counters().affinity_repins, 1);
    assert_eq!(b.served.get(), 1);
    assert_all_admitted(&d, "alice", 2);
    assert_eq!(d.qos_tenants()["alice"].tier, QosTier::Batch);
    let t = sim.telemetry().expect("telemetry on");
    let dispatches = t.spans_named("dispatcher.dispatch");
    assert_eq!(dispatches.len(), 2);
    for span in dispatches {
        assert_eq!(str_attr(&sim, span, "tenant"), Some("alice"));
        assert_eq!(str_attr(&sim, span, "tier"), Some("batch"));
    }
}

#[test]
fn tier_survives_canary_shift_pins() {
    let mut sim = Sim::new(72);
    sim.enable_telemetry();
    let d = qos_dispatcher(&[("alice", QosTier::Gold)], 8);
    let (a, b) = (Echo::new("a", 10, false), Echo::new("b", 10, false));
    d.add_backend(a.clone());
    d.add_backend(b.clone());
    let audit = Audit::new(&d);
    let door = audit.sink();
    door(
        &mut sim,
        invoke_as("alice"),
        Box::new(|_, r| assert!(r.is_ok())),
    );
    audit.run(&mut sim);
    assert_eq!(d.pin_target("alice").as_deref(), Some("a"));
    // a canary deliberately moves every live pin onto "b"
    let shifted = d.shift_pins("b", 1.0);
    assert_eq!(shifted.len(), 1);
    assert_eq!(d.pin_target("alice").as_deref(), Some("b"));
    door(
        &mut sim,
        invoke_as("alice"),
        Box::new(|_, r| assert!(r.is_ok())),
    );
    audit.run(&mut sim);
    assert_eq!(b.served.get(), 1, "shifted pin routed to the canary");
    assert_all_admitted(&d, "alice", 2);
    assert_eq!(d.qos_tenants()["alice"].tier, QosTier::Gold);
    let t = sim.telemetry().expect("telemetry on");
    for span in t.spans_named("dispatcher.dispatch") {
        assert_eq!(str_attr(&sim, span, "tenant"), Some("alice"));
        assert_eq!(str_attr(&sim, span, "tier"), Some("gold"));
    }
    // and the undo restores the pin to its pre-shift replica
    assert_eq!(d.restore_pins("b", &shifted), 1);
    assert_eq!(d.pin_target("alice").as_deref(), Some("a"));
}

#[test]
fn door_queued_request_is_granted_at_its_tier() {
    let mut sim = Sim::new(73);
    sim.enable_telemetry();
    // window of 1: bob's request occupies the door, alice queues
    let d = qos_dispatcher(&[("alice", QosTier::Gold), ("bob", QosTier::Standard)], 1);
    d.add_backend(Echo::new("a", 100, false));
    let audit = Audit::new(&d);
    let door = audit.sink();
    door(
        &mut sim,
        invoke_as("bob"),
        Box::new(|_, r| assert!(r.is_ok())),
    );
    let finished_at = Rc::new(Cell::new(0u64));
    let f = finished_at.clone();
    door(
        &mut sim,
        invoke_as("alice"),
        Box::new(move |sim, r| {
            assert!(r.is_ok());
            f.set(sim.now().ticks() / 1_000);
        }),
    );
    {
        let snap = d.qos_tenants();
        assert_eq!(snap["alice"].queued, 1, "alice queued behind the window");
        assert_eq!(snap["alice"].enqueued, 1);
    }
    audit.run(&mut sim);
    assert_eq!(
        finished_at.get(),
        200,
        "granted when bob's slot freed, served for 100 ms"
    );
    assert_all_admitted(&d, "alice", 1);
    assert_all_admitted(&d, "bob", 1);
    let t = sim.telemetry().expect("telemetry on");
    let dispatches = t.spans_named("dispatcher.dispatch");
    // alice's span shows both the queue transit and the gold tier
    assert_eq!(str_attr(&sim, dispatches[1], "tenant"), Some("alice"));
    assert_eq!(str_attr(&sim, dispatches[1], "tier"), Some("gold"));
    assert_eq!(str_attr(&sim, dispatches[1], "qos"), Some("queued"));
    assert_eq!(d.qos_tenants()["alice"].tier, QosTier::Gold);
}

#[test]
fn queued_shed_and_admitted_requests_all_settle_their_responders() {
    // soak of the queue paths: every submitted request must resolve its
    // responder exactly once whatever mix of grant/shed it hits — the
    // auditor's door and tenant ledgers, checked after every event
    let mut sim = Sim::new(74);
    let d = qos_dispatcher(&[("alice", QosTier::Gold), ("bob", QosTier::Batch)], 2);
    d.add_backend(Echo::new("a", 30, false));
    let audit = Audit::new(&d);
    for k in 0..40u64 {
        let tenant = if k % 2 == 0 { "alice" } else { "bob" };
        let door = audit.sink();
        sim.schedule(Duration::from_millis(10 * k), move |sim| {
            door(sim, invoke_as(tenant), Box::new(|_, _| {}));
        });
    }
    audit.run(&mut sim);
    let snap = d.qos_tenants();
    assert_eq!((snap["alice"].issued, snap["bob"].issued), (20, 20));
}
