//! Every fleet invariant, stated once.
//!
//! The fleet has six planes — affinity, health, geo, QoS, autoscaling and
//! rollout — and each was first pinned by tests written with the others
//! off, every one restating the door ledger beside its own claim. An
//! [`Audit`] is that statement, made once. Attached to a run, it holds the
//! run to all of these, whichever planes are on:
//!
//! | invariant | check |
//! |---|---|
//! | **door ledger**: `accepted + shed + parked == issued`, `accepted == completed + faulted + in flight`, the window never over-full | `check_door` |
//! | **tenant ledger**: `issued == accepted + shed + queued` per tenant | `check_tenants` |
//! | **routing**: into rotation, never a severed site; no retried upload; retries capped | `check_routes`, `Trail` |
//! | **pins**: a live pin targets a replica in rotation | `check_pins` |
//! | **rotation agreement** (fleet): the fleet's active replicas are the dispatcher's live slots | `check_rotation` |
//! | **fairness**: nobody waits under quota beside a free slot | `check_fairness` |
//! | **rollout floor**: no retirement at `min_healthy` | `check_floor` |
//!
//! All hold at every event boundary. At close the run must also be
//! drained — every request answered once; nothing in flight, outstanding
//! on a replica, pending in the kernel, open on the trail or queued at a
//! tenant — each tenant must have issued what its principal's callers
//! issued, every watched rollout must have finished, and a fleet's
//! **replica ledger** must balance: every replica that reached the
//! rotation is active, retired or lost (`check_replicas`).
//!
//! Nothing is hooked into the request path. [`Audit::run`] replaces
//! `sim.run()`: it steps the simulation — `Sim::step` executes events in
//! exactly the order `Sim::run` does — and checks after every event. It
//! switches telemetry on to read the span trail the dispatcher already
//! writes, and telemetry never moves an event, so an audited run is the
//! unaudited run event for event. [`Audit::close`] is the end-of-run check
//! alone, for a run drained by `sim.run()`. On the client side,
//! [`Audit::responder`] and [`Audit::sink`] count what callers issued and
//! what they were answered.
//!
//! Everything is read from public state: the dispatcher's ledgers, pin
//! tables and geo plane, the fleet's active replicas and replica ledger,
//! the rollout controllers' retire logs, the kernel's pending count and
//! the span trail. Each check is a function over such a snapshot or over
//! the trail, and panics naming the invariant it found broken.
//!
//! **Known gap.** A check sees the state between events, not the order of
//! things inside one. If a single event takes a replica out of rotation
//! and then dispatches to it, the replica was in rotation when the event
//! began, and the routing check passes the dispatch. Work done outside
//! any event — a test driving the dispatcher between runs — has no
//! boundary before it either, and its routes go unchecked.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use simkit::telemetry::{AttrValue, SpanRecord};
use simkit::Sim;

use crate::dispatcher::{DispatchCounters, Dispatcher, Responder, TenantQos};
use crate::fleet::Fleet;
use crate::rollout::{RetireEvent, RolloutController};
use crate::workload::SubmitFn;

const DISPATCH: &str = "dispatcher.dispatch";
const RETRY: &str = "dispatcher.retry";

/// Replicas in rotation, by name — `Dispatcher::live_pin_counts`.
type Rotation = BTreeMap<String, usize>;

/// Tenant ledgers, by name — `Dispatcher::qos_tenants`.
type Tenants = BTreeMap<String, TenantQos>;

/// The fleet's invariant auditor. See the module docs.
pub struct Audit {
    dispatcher: Rc<Dispatcher>,
    /// Set for a fleet run: the fleet's active replicas are then held to
    /// the dispatcher's rotation, and its replica ledger closed.
    fleet: Option<Rc<Fleet>>,
    rollouts: RefCell<Vec<Rc<RolloutController>>>,
    client: RefCell<Client>,
    trail: RefCell<Trail>,
}

/// What the callers issued and what they were answered.
#[derive(Default)]
struct Client {
    issued: u64,
    answered: u64,
    /// Issues per principal, counted while the door has a tenant stage to
    /// hold them against.
    by_principal: BTreeMap<String, u64>,
}

impl Audit {
    /// Audit a bare dispatcher. Create it before any traffic.
    pub fn new(dispatcher: &Rc<Dispatcher>) -> Rc<Audit> {
        Audit::build(dispatcher, None)
    }

    /// Audit a fleet run: its dispatcher, and the fleet's replicas against
    /// it. Create it before any traffic.
    pub fn fleet(fleet: &Rc<Fleet>) -> Rc<Audit> {
        Audit::build(fleet.dispatcher(), Some(Rc::clone(fleet)))
    }

    fn build(dispatcher: &Rc<Dispatcher>, fleet: Option<Rc<Fleet>>) -> Rc<Audit> {
        Rc::new(Audit {
            dispatcher: Rc::clone(dispatcher),
            fleet,
            rollouts: RefCell::default(),
            client: RefCell::default(),
            trail: RefCell::default(),
        })
    }

    /// Hold a rollout to its floor from now on, and to finishing by
    /// [`Audit::close`].
    pub fn watch_rollout(&self, ctl: &Rc<RolloutController>) {
        self.rollouts.borrow_mut().push(Rc::clone(ctl));
    }

    /// Wrap a caller's responder: its request counts as issued — as issued
    /// by `principal` too, while the door has a tenant stage — and as
    /// answered when it fires. A [`Responder`] is `FnOnce`, so its type
    /// already rules out a second answer; [`Audit::close`] requires a first.
    pub fn responder(self: &Rc<Self>, principal: Option<&str>, done: Responder) -> Responder {
        {
            let mut client = self.client.borrow_mut();
            client.issued += 1;
            if let Some(p) = principal.filter(|_| self.dispatcher.has_qos()) {
                *client.by_principal.entry(p.to_owned()).or_default() += 1;
            }
        }
        let audit = Rc::clone(self);
        Box::new(move |sim, res| {
            audit.client.borrow_mut().answered += 1;
            done(sim, res)
        })
    }

    /// The audited front door as a workload sink: each request is counted
    /// as [`Audit::responder`] counts it, then submitted.
    pub fn sink(self: &Rc<Self>) -> Rc<SubmitFn> {
        let audit = Rc::clone(self);
        Rc::new(move |sim, req, done| {
            let done = audit.responder(req.principal(), done);
            audit.dispatcher.submit(sim, req, done)
        })
    }

    /// Run the simulation to quiescence, checking every invariant after
    /// every event, then [`Audit::close`] it. Switches telemetry on first.
    pub fn run(&self, sim: &mut Sim) {
        sim.enable_telemetry();
        // routes taken before this run had no boundary in front of them
        self.routes(sim);
        let mut before = self.dispatcher.live_pin_counts();
        while sim.step() {
            let after = self.dispatcher.live_pin_counts();
            self.boundary(sim, &before, &after);
            before = after;
        }
        self.close(sim);
    }

    /// The end-of-run check alone: the run is drained and every ledger
    /// closed. Reads the span trail only if telemetry is on.
    pub fn close(&self, sim: &Sim) {
        let d = &self.dispatcher;
        let client = self.client.borrow();
        check_door(client.issued, &d.counters(), 0, 0, d.config().max_in_flight);
        let (in_flight, outstanding, pending) = (d.in_flight(), d.queued_depth(), sim.pending());
        assert!(
            in_flight == 0 && outstanding == 0 && pending == 0,
            "audit: not drained: {in_flight} in flight, {outstanding} outstanding on replicas, \
             {pending} events pending"
        );
        let (issued, answered) = (client.issued, client.answered);
        assert!(answered == issued, "audit: unanswered: {answered} of {issued} answered");
        let tenants = d.qos_tenants();
        check_tenants(&tenants);
        check_tenants_closed(&tenants, &client.by_principal, &d.counters());
        self.rotation(&d.live_pin_counts());
        if let Some(f) = &self.fleet {
            let active = f.active_replicas() as u64;
            check_replicas(f.booted_total(), active, f.retired_total(), f.lost_total());
        }
        if let Some(t) = sim.telemetry() {
            check_trail_closed(t.spans());
        }
        for ctl in self.rollouts.borrow().iter() {
            check_floor(&ctl.retire_log(), ctl.min_healthy());
            assert!(ctl.outcome().is_some(), "audit: rollout unfinished");
        }
    }

    /// Every check that holds between events.
    fn boundary(&self, sim: &Sim, before: &Rotation, after: &Rotation) {
        let d = &self.dispatcher;
        let window = d.config().max_in_flight;
        let tenants = d.qos_tenants();
        let parked = tenants.values().map(|s| s.queued as u64).sum();
        let issued = self.client.borrow().issued;
        check_door(issued, &d.counters(), d.in_flight(), parked, window);
        check_tenants(&tenants);
        check_fairness(&tenants, d.in_flight(), window, !after.is_empty());
        self.rotation(after);
        for ctl in self.rollouts.borrow().iter() {
            check_floor(&ctl.retire_log(), ctl.min_healthy());
        }
        let routed = self.routes(sim);
        if routed.is_empty() {
            return;
        }
        let geo = d.geo_plane();
        let severed = |replica: &str| {
            let site = geo.as_ref().and_then(|g| Some((g, g.site_of(replica)?)));
            site.is_some_and(|(g, site)| g.is_down(&site, sim.now()))
        };
        let in_rotation = |r: &str| before.contains_key(r) || after.contains_key(r);
        check_routes(&routed, in_rotation, severed);
    }

    /// Advance the trail: the replicas dispatched to since the last read.
    fn routes(&self, sim: &Sim) -> Vec<String> {
        let Some(t) = sim.telemetry() else {
            return Vec::new();
        };
        let max_retries = self.dispatcher.config().retry.map_or(0, |r| r.max_retries);
        self.trail.borrow_mut().advance(t.spans(), max_retries)
    }

    /// The fleet's active replicas, if a fleet is audited, and every live
    /// pin against the dispatcher's `rotation`.
    fn rotation(&self, rotation: &Rotation) {
        if let Some(fleet) = &self.fleet {
            check_rotation(&fleet.active_replica_names(), rotation);
        }
        check_pins(&self.dispatcher.live_pins(), |r| rotation.contains_key(r));
    }
}

/// The door ledger: everything issued was admitted, shed or is `parked` at
/// the door; everything admitted settled or is among the `in_flight`,
/// which never exceed the window.
fn check_door(issued: u64, c: &DispatchCounters, in_flight: usize, parked: u64, window: usize) {
    let DispatchCounters { accepted, completed, faulted, shed, .. } = *c;
    assert!(
        accepted == completed + faulted + in_flight as u64,
        "audit: request conservation violated: accepted {accepted} != completed {completed} + \
         faulted {faulted} + in flight {in_flight}"
    );
    assert!(
        accepted + shed + parked == issued,
        "audit: door ledger: accepted {accepted} + shed {shed} + parked {parked} != issued {issued}"
    );
    assert!(in_flight <= window, "audit: window over-full: {in_flight} in flight of {window}");
}

/// Every tenant's books balance.
fn check_tenants(tenants: &Tenants) {
    for (t, s) in tenants {
        let TenantQos { issued, accepted, shed, queued, .. } = *s;
        assert!(
            issued == accepted + shed + queued as u64,
            "audit: tenant ledger: {t}: issued {issued} != accepted {accepted} + shed {shed} + \
             queued {queued}"
        );
    }
}

/// At close: no tenant has work waiting or running, each issued exactly
/// what callers issued under its principal, and the tenant slices fit
/// inside the door's ledger.
fn check_tenants_closed(tenants: &Tenants, callers: &BTreeMap<String, u64>, c: &DispatchCounters) {
    for (t, s) in tenants {
        let (queued, in_flight) = (s.queued, s.in_flight);
        assert!(
            queued == 0 && in_flight == 0,
            "audit: tenant ledger: {t} closed with {queued} queued and {in_flight} in flight"
        );
    }
    for name in tenants.keys().chain(callers.keys()) {
        let door = tenants.get(name).map_or(0, |s| s.issued);
        let theirs = callers.get(name).copied().unwrap_or(0);
        assert!(
            door == theirs,
            "audit: tenant ledger: {name} issued {door} at the door, its callers {theirs}"
        );
    }
    let accepted: u64 = tenants.values().map(|s| s.accepted).sum();
    let shed: u64 = tenants.values().map(|s| s.shed).sum();
    assert!(
        accepted <= c.accepted && shed <= c.shed,
        "audit: tenant ledger: tenants accepted {accepted} and shed {shed}, more than the door"
    );
}

/// No tenant waits under quota while the window has room and a replica
/// is live: over-quota work never held a slot an under-quota waiter
/// wanted.
fn check_fairness(tenants: &Tenants, in_flight: usize, window: usize, live: bool) {
    if in_flight >= window || !live {
        return;
    }
    for (t, s) in tenants {
        let TenantQos { queued, in_flight: running, quota, .. } = *s;
        assert!(
            queued == 0 || running >= quota,
            "audit: fairness: {t} waits with {queued} queued under quota ({running}/{quota}) \
             while {} window slots are free",
            window - in_flight
        );
    }
}

/// Every live pin targets a replica `active` admits.
fn check_pins(pins: &[(String, String)], active: impl Fn(&str) -> bool) {
    for (key, target) in pins {
        assert!(active(target), "audit: pin: {key} is pinned to {target}, not an active replica");
    }
}

/// The fleet's `active` replicas are exactly the dispatcher's `rotation`:
/// a replica leaves one only by leaving the other.
fn check_rotation(active: &[String], rotation: &Rotation) {
    let mut sorted: Vec<&String> = active.iter().collect();
    sorted.sort();
    assert!(
        sorted.iter().copied().eq(rotation.keys()),
        "audit: rotation: the fleet's active replicas {sorted:?} are not the dispatcher's live \
         slots {:?}",
        rotation.keys().collect::<Vec<_>>()
    );
}

/// Every replica that reached the rotation is still active, or was
/// retired or lost.
fn check_replicas(booted: u64, active: u64, retired: u64, lost: u64) {
    assert!(
        booted == active + retired + lost,
        "audit: replica ledger: booted {booted} != active {active} + retired {retired} + lost \
         {lost}"
    );
}

/// No retirement cut into the floor.
fn check_floor(log: &[RetireEvent], min_healthy: usize) {
    for RetireEvent { replica, active_before } in log {
        assert!(
            *active_before > min_healthy,
            "audit: rollout floor: retired {replica} with {active_before} active, min_healthy \
             {min_healthy}"
        );
    }
}

/// Each replica dispatched to during an event was in rotation at its start
/// or joined during it, and sits on no severed site.
fn check_routes(
    routed: &[String],
    in_rotation: impl Fn(&str) -> bool,
    severed: impl Fn(&str) -> bool,
) {
    for r in routed {
        assert!(in_rotation(r), "audit: routing: dispatched to {r}, out of rotation");
        assert!(!severed(r), "audit: routing: dispatched to {r}, on a severed site");
    }
}

/// At close every front-door request's span is closed: nothing the door
/// took in was left unanswered.
fn check_trail_closed(spans: &[SpanRecord]) {
    if let Some(i) = spans.iter().position(|s| s.name == DISPATCH && s.end.is_none()) {
        panic!("audit: not drained: dispatch span {} still open", i + 1);
    }
}

/// The dispatcher's span trail, read as it grows.
#[derive(Default)]
struct Trail {
    /// Spans already read.
    read: usize,
    /// Dispatch spans still open, oldest first.
    open: Vec<Open>,
}

/// One front-door request whose dispatch span is still open.
struct Open {
    span: usize,
    /// Its attributes already read.
    attrs: usize,
    retries: u32,
}

impl Trail {
    /// Read what the trail gained since the last call and return the
    /// replicas dispatched to. A new retry must hang under an invocation,
    /// never an upload (uploads apply at most once), and be within
    /// `max_retries` for its request.
    fn advance(&mut self, spans: &[SpanRecord], max_retries: u32) -> Vec<String> {
        for (i, span) in spans.iter().enumerate().skip(self.read) {
            if span.name == DISPATCH {
                self.open.push(Open { span: i, attrs: 0, retries: 0 });
            }
            // a root retry's request predates the trail
            let parent = (span.parent.raw() as usize).checked_sub(1);
            let Some(parent) = parent.filter(|_| span.name == RETRY) else {
                continue;
            };
            let (retry, request) = (i + 1, parent + 1);
            let upload = spans[parent].attr("fanout").is_some();
            assert!(!upload, "audit: routing: retry span {retry} under upload span {request}");
            if let Some(req) = self.open.iter_mut().find(|o| o.span == parent) {
                req.retries += 1;
                let n = req.retries;
                assert!(
                    n <= max_retries,
                    "audit: routing: request span {request} retried {n} times, cap {max_retries}"
                );
            }
        }
        self.read = spans.len();
        let (mut routed, mut closed) = (Vec::new(), false);
        for req in &mut self.open {
            let span = &spans[req.span];
            for (key, value) in &span.attrs[req.attrs..] {
                if let ("replica", AttrValue::Str(replica)) = (*key, value) {
                    routed.push(replica.clone());
                }
            }
            req.attrs = span.attrs.len();
            closed |= span.end.is_some();
        }
        if closed {
            self.open.retain(|req| spans[req.span].end.is_none());
        }
        routed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use simkit::SpanId;

    fn counters(accepted: u64, completed: u64, faulted: u64, shed: u64) -> DispatchCounters {
        DispatchCounters { accepted, completed, faulted, shed, ..DispatchCounters::default() }
    }

    /// One tenant `t` at quota 2, running `in_flight`.
    fn tenant(issued: u64, accepted: u64, shed: u64, queued: usize, in_flight: usize) -> Tenants {
        let (quota, tier) = (2, Default::default());
        let s = TenantQos { quota, issued, accepted, shed, queued, in_flight, tier, enqueued: 0 };
        BTreeMap::from([("t".to_owned(), s)])
    }

    #[test]
    #[should_panic(expected = "request conservation violated")]
    fn an_admit_that_never_settles_breaks_conservation() {
        check_door(1, &counters(1, 0, 0, 0), 0, 0, 4);
    }

    #[test]
    #[should_panic(expected = "door ledger")]
    fn a_request_neither_admitted_nor_shed_breaks_the_door_ledger() {
        check_door(3, &counters(1, 1, 0, 1), 0, 0, 4);
    }

    #[test]
    #[should_panic(expected = "window over-full")]
    fn more_in_flight_than_the_window_is_caught() {
        check_door(5, &counters(5, 0, 0, 0), 5, 0, 4);
    }

    #[test]
    #[should_panic(expected = "tenant ledger: t: issued 5")]
    fn a_tenant_whose_books_do_not_balance_is_caught() {
        check_tenants(&tenant(5, 2, 1, 1, 0));
    }

    #[test]
    #[should_panic(expected = "tenant ledger: t closed with 1 queued")]
    fn a_tenant_still_queued_at_close_is_caught() {
        check_tenants_closed(&tenant(1, 0, 0, 1, 0), &BTreeMap::new(), &counters(0, 0, 0, 0));
    }

    #[test]
    #[should_panic(expected = "tenant ledger: u issued 0 at the door, its callers 2")]
    fn callers_the_tenant_stage_never_saw_are_caught() {
        let callers = BTreeMap::from([("u".to_owned(), 2)]);
        check_tenants_closed(&BTreeMap::new(), &callers, &counters(2, 2, 0, 0));
    }

    #[test]
    #[should_panic(expected = "fairness")]
    fn an_under_quota_waiter_beside_a_free_slot_is_caught() {
        check_fairness(&tenant(3, 1, 0, 2, 1), 1, 4, true);
    }

    #[test]
    #[should_panic(expected = "pin: k is pinned to gone")]
    fn a_pin_on_an_inactive_replica_is_caught() {
        check_pins(&[("k".into(), "gone".into())], |r| r == "r0");
    }

    #[test]
    #[should_panic(expected = "rotation: the fleet's active replicas [\"r0\", \"r1\"]")]
    fn an_active_replica_out_of_the_dispatcher_is_caught() {
        let rotation = BTreeMap::from([("r0".to_owned(), 0)]);
        check_rotation(&["r1".into(), "r0".into()], &rotation);
    }

    #[test]
    #[should_panic(expected = "replica ledger: booted 3 != active 2 + retired 0 + lost 0")]
    fn a_replica_counted_nowhere_is_caught() {
        check_replicas(3, 2, 0, 0);
    }

    #[test]
    #[should_panic(expected = "rollout floor")]
    fn a_retirement_at_the_floor_is_caught() {
        check_floor(&[RetireEvent { replica: "r0".into(), active_before: 2 }], 2);
    }

    #[test]
    #[should_panic(expected = "dispatched to r1, out of rotation")]
    fn a_dispatch_out_of_rotation_is_caught() {
        check_routes(&["r1".into()], |r| r == "r0", |_| false);
    }

    #[test]
    #[should_panic(expected = "dispatched to r0, on a severed site")]
    fn a_dispatch_into_a_severed_site_is_caught() {
        check_routes(&["r0".into()], |_| true, |r| r == "r0");
    }

    /// A trail with one dispatch span per `(upload, replicas)` entry.
    fn trail(sim: &mut Sim, requests: &[(bool, &[&str])]) -> Vec<SpanId> {
        sim.enable_telemetry();
        let spans = requests.iter().map(|&(upload, replicas)| {
            let span = sim.span_begin(DISPATCH);
            if upload {
                sim.span_attr(span, "fanout", 2u64);
            }
            for r in replicas {
                sim.span_attr(span, "replica", *r);
            }
            span
        });
        spans.collect()
    }

    fn spans(sim: &Sim) -> &[SpanRecord] {
        sim.telemetry().expect("on").spans()
    }

    #[test]
    fn the_trail_reports_each_dispatch_once_and_forgets_closed_requests() {
        let mut sim = Sim::new(1);
        let ids = trail(&mut sim, &[(false, &["r0"]), (false, &["r1"])]);
        let mut t = Trail::default();
        assert_eq!(t.advance(spans(&sim), 1), ["r0", "r1"]);
        sim.span_end(ids[0]);
        let retry = sim.span_child(RETRY, ids[1]);
        sim.span_end(retry);
        sim.span_attr(ids[1], "replica", "r2");
        assert_eq!(t.advance(spans(&sim), 1), ["r2"]);
        assert_eq!(t.open.len(), 1, "the closed request left the trail");
    }

    #[test]
    #[should_panic(expected = "retry span 2 under upload span 1")]
    fn a_retried_upload_is_caught() {
        let mut sim = Sim::new(2);
        let ids = trail(&mut sim, &[(true, &[])]);
        sim.span_child(RETRY, ids[0]);
        Trail::default().advance(spans(&sim), 3);
    }

    #[test]
    #[should_panic(expected = "retried 2 times, cap 1")]
    fn retries_past_the_cap_are_caught() {
        let mut sim = Sim::new(3);
        let ids = trail(&mut sim, &[(false, &["r0"])]);
        sim.span_child(RETRY, ids[0]);
        sim.span_child(RETRY, ids[0]);
        Trail::default().advance(spans(&sim), 1);
    }

    #[test]
    #[should_panic(expected = "dispatch span 1 still open")]
    fn an_open_dispatch_span_at_close_is_caught() {
        let mut sim = Sim::new(4);
        trail(&mut sim, &[(false, &["r0"])]);
        check_trail_closed(spans(&sim));
    }
}
