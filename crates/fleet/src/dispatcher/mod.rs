//! The fleet front end: one published endpoint fanning out to N replicas.
//!
//! The dispatcher owns the request path the paper never built: it holds the
//! published UDDI binding, admits requests under a bounded in-flight limit
//! (shedding overload as a SOAP `Server` fault, the way a SOAP intermediary
//! would), and routes each admitted invocation to one replica under a
//! pluggable [`Policy`]. Uploads are *broadcast* — every replica must hold
//! the executable before the generated service can be served from any of
//! them.
//!
//! Backends are abstract ([`Backend`]) so the routing and conservation
//! logic is testable without booting appliances; the production backend
//! wrapping a replica's [`onserve::Deployment`] lives in [`crate::fleet`].
//!
//! ## Three stages
//!
//! A request crosses three stages, each a plain `&mut self` type in its
//! own module that knows nothing of the other two; [`Dispatcher`] is the
//! thin composition that carries a request from one to the next and does
//! the telemetry, the counters and the health-plane samples on the way.
//!
//! 1. **Admission** (`admission`): the in-flight window and, when
//!    [`Dispatcher::set_qos`] attached it, the per-tenant quota / door
//!    queue / deficit-round-robin stage. Let in, park, or shed.
//! 2. **Routing** (`routing`): base policy, probation probe window, canary
//!    share, affinity pins and the geo plane. Picks a replica per attempt.
//! 3. **Op table** (`ops`): one entry per outstanding attempt with its
//!    watchdog, keyed by a stable replica id. Resolves each attempt once.
//!
//! An optional plane is state inside the stage that owns it — absent, the
//! stage simply behaves as it did before the plane existed — not a check
//! repeated along the request path.
//!
//! ## Failure model
//!
//! Replicas can die without draining ([`Dispatcher::eject_backend`]). Every
//! dispatched attempt is registered in the op table; ejecting a backend
//! resolves its outstanding ops as `backend lost`, and any response the
//! dead replica produces later finds its op gone and is dropped (no zombie
//! completions, no double-settle). Lost or suspect invocations are retried
//! on surviving replicas under [`RetryConfig`] — capped attempts,
//! exponential backoff with seeded jitter — and shed as a SOAP fault only
//! when retries are exhausted or no backend remains. Uploads are *not*
//! retried (at-most-once; see DESIGN.md §failure model). An optional
//! per-attempt timeout treats a silent backend as dead and ejects it.

mod admission;
mod ops;
mod routing;

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use blobstore::Blob;
use onserve::profile::ExecutionProfile;
use simkit::engine::EventId;
use simkit::{Duration, Sim, SimTime, SpanId};
use wsstack::{SoapFault, SoapValue};

use crate::geo::GeoPlane;
use crate::health::HealthPlane;

pub use admission::{QosConfig, QosTier, TenantQos};
pub use routing::{AffinityConfig, Policy};

use admission::{Admission, Offer, QosTag, NO_REPLICAS};
use ops::{OpTable, ReplicaId};
use routing::{Candidate, RouteOutcome, Routing};

/// One front-door request.
#[derive(Clone, Debug)]
pub enum Request {
    /// Provision a new executable on every replica (portal upload).
    Upload {
        /// Executable file name (must be fleet-unique; replica databases
        /// reject duplicates).
        file_name: String,
        /// The executable. The broadcast clones the request per replica,
        /// which shares these bytes and whatever has been derived from
        /// them: one file fanned out.
        payload: Blob,
        /// What the executable does when invoked.
        profile: ExecutionProfile,
    },
    /// Call a published service on one replica.
    Invoke {
        /// Service name (the executable's base name).
        service: String,
        /// SOAP arguments.
        args: Vec<(String, SoapValue)>,
        /// Stable identity of the authenticating principal — today the
        /// service owner's grid user. Session-affinity routing keys on it;
        /// `None` opts the request out of affinity.
        principal: Option<String>,
    },
}

impl Request {
    /// The authenticating principal of an invocation that carries one: the
    /// tenant for admission, the affinity key for routing.
    fn principal(&self) -> Option<&str> {
        match self {
            Request::Invoke { principal, .. } => principal.as_deref(),
            Request::Upload { .. } => None,
        }
    }
}

/// Completion callback: called exactly once per submitted request.
pub type Responder = Box<dyn FnOnce(&mut Sim, Result<SoapValue, SoapFault>)>;

/// Something that can serve front-door requests — a replica, or a test
/// double.
pub trait Backend {
    /// Stable replica name (the metric prefix of its appliance host).
    fn name(&self) -> &str;
    /// Serve one request, calling `done` exactly once (now or later).
    /// After the backend's owner has ejected it, `done` may also never
    /// fire — the dispatcher's op table absorbs both shapes.
    fn serve(&self, sim: &mut Sim, req: Request, done: Responder);
    /// Liveness hint. A backend that answers with a fault *while
    /// unhealthy* is treated as lost (fault-signal detection) rather than
    /// as an application error. Defaults to healthy.
    fn healthy(&self) -> bool {
        true
    }
}

/// Front-door retry behaviour for invocations that lose their replica.
#[derive(Clone, Copy, Debug)]
pub struct RetryConfig {
    /// Retries per request on top of the first attempt.
    pub max_retries: u32,
    /// Backoff before retry *n* is `base * 2^(n-1)`, capped at `max`.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Jitter fraction in `[0, 1]`: the backoff is scaled by a seeded
    /// uniform draw from `[1-jitter, 1+jitter]` so synchronized losses
    /// don't retry in lock-step.
    pub jitter: f64,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            max_retries: 3,
            base_backoff: Duration::from_millis(200),
            max_backoff: Duration::from_secs(5),
            jitter: 0.2,
        }
    }
}

impl RetryConfig {
    /// Backoff before retry `attempt` (1-based), jittered from the sim rng.
    fn backoff(&self, sim: &mut Sim, attempt: u32) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(32));
        let capped = exp.min(self.max_backoff);
        if self.jitter <= 0.0 {
            return capped;
        }
        let j = self.jitter.min(1.0);
        let scale = sim.rng().range_f64(1.0 - j, 1.0 + j);
        Duration::from_secs_f64(capped.as_secs_f64() * scale)
    }
}

/// Dispatcher parameters.
#[derive(Clone, Copy, Debug)]
pub struct DispatcherConfig {
    /// Replica-selection policy.
    pub policy: Policy,
    /// Admission limit: requests in flight across the whole fleet before
    /// new arrivals are shed.
    pub max_in_flight: usize,
    /// Retry invocations whose replica was lost mid-flight. `None`
    /// fail-fasts the loss to the client as a SOAP fault.
    pub retry: Option<RetryConfig>,
    /// Eject a backend that has not answered an attempt within this long
    /// (the timeout dead-backend signal). `None` disables the watchdog.
    pub request_timeout: Option<Duration>,
    /// Pin each principal to one replica. `None` routes every attempt by
    /// `policy` alone.
    pub affinity: Option<AffinityConfig>,
}

impl Default for DispatcherConfig {
    fn default() -> Self {
        DispatcherConfig {
            policy: Policy::LeastOutstanding,
            max_in_flight: 64,
            retry: Some(RetryConfig::default()),
            request_timeout: None,
            affinity: None,
        }
    }
}

/// Conservation ledger: `accepted == completed + faulted` once the
/// simulation drains, and `accepted + shed` equals every request ever
/// submitted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DispatchCounters {
    /// Requests admitted past the in-flight limit.
    pub accepted: u64,
    /// Admitted requests that completed successfully.
    pub completed: u64,
    /// Admitted requests that came back as a SOAP fault.
    pub faulted: u64,
    /// Requests refused at the door (admission limit or no replicas).
    pub shed: u64,
    /// Admitted requests that had to wait behind another request already
    /// outstanding on their chosen replica.
    pub queued: u64,
    /// Retry attempts dispatched after a replica loss (does not change
    /// `accepted`: a retried request is still one admitted request).
    pub retried: u64,
    /// Backends thrown out of rotation without drain.
    pub ejected: u64,
    /// Attempts routed to the replica their principal was pinned to.
    pub affinity_hits: u64,
    /// Attempts whose principal had no pin yet (pinned by base policy).
    pub affinity_misses: u64,
    /// Attempts whose pin had been invalidated by a replica loss or drain
    /// (reassigned by rendezvous hash).
    pub affinity_repins: u64,
    /// Attempts whose pinned replica sat behind a severed site and were
    /// forwarded to a peer site with the pin preserved (federation); the
    /// principal comes home when the site reconnects.
    pub forwarded: u64,
}

/// One replica in (or draining out of) rotation.
struct Slot {
    id: ReplicaId,
    backend: Rc<dyn Backend>,
    draining: bool,
    /// Probation-weighted by the gray-failure detector: the slot stays in
    /// rotation but only receives probe traffic until the detector clears
    /// or ejects it.
    probation: bool,
    /// The backend's `<name>.cpu.busy` recorder key, precomputed for the
    /// utilization-weighted policy.
    busy_key: String,
}

impl Slot {
    /// Is this the in-rotation slot of the backend called `name`?
    fn live_as(&self, name: &str) -> bool {
        !self.draining && self.backend.name() == name
    }
}

/// One front-door request on its way through: parked by admission until
/// granted, then — an invocation — carried from attempt to attempt until
/// it settles, or — an upload — held by the join of its broadcast. Boxed
/// once at the door, so every hand-over after that moves a pointer.
struct Ticket {
    req: Request,
    done: Responder,
    span: SpanId,
    retries: u32,
    /// Present iff the request was admitted through the tenant stage.
    /// Retries, re-pins and canary shifts never re-enter admission, so the
    /// tenant and tier survive end-to-end.
    qos: Option<QosTag>,
}

/// An owner-installed callback cell.
type Hook<F> = RefCell<Option<Box<F>>>;
type DrainHook = dyn Fn(&mut Sim, &str);
type UploadHook = dyn Fn(&mut Sim, &Request);

/// Fire `hook` with its cell released, so the callback may re-enter the
/// dispatcher — or install its successor, in which case the old hook is
/// not put back.
fn fire<F: ?Sized>(hook: &Hook<F>, call: impl FnOnce(&F)) {
    let Some(f) = hook.borrow_mut().take() else {
        return;
    };
    call(&f);
    hook.borrow_mut().get_or_insert(f);
}

/// The join of one upload broadcast: settles its ticket once, when the
/// slowest replica has answered, with the first fault any replica raised.
struct UploadJoin {
    ticket: RefCell<Option<Ticket>>,
    remaining: Cell<usize>,
    first_fault: RefCell<Option<SoapFault>>,
}

/// What an outstanding op is working for.
enum Work {
    /// One try of an admitted invocation.
    Attempt(Box<Ticket>),
    /// One replica's share of an upload broadcast.
    Branch(Rc<UploadJoin>),
}

/// What a request is answered with, by a backend or on its behalf.
type Answer = Result<SoapValue, SoapFault>;

/// How an op ended: the backend's answer, or `Err` with the name of the
/// replica lost under it (ejected, watchdog fired, or faulting while
/// unhealthy).
type Fate<'a> = Result<Answer, &'a str>;

/// Stamp a span with the QoS identity of the request it follows.
fn stamp_qos(sim: &mut Sim, span: SpanId, tag: &QosTag) {
    sim.span_attr(span, "tenant", tag.tenant.as_str());
    sim.span_attr(span, "tier", tag.tier.label());
}

/// The front-end request router.
pub struct Dispatcher {
    cfg: DispatcherConfig,
    slots: RefCell<Vec<Slot>>,
    admission: RefCell<Admission<Box<Ticket>>>,
    routing: RefCell<Routing>,
    ops: RefCell<OpTable<Work>>,
    counters: RefCell<DispatchCounters>,
    /// Optional fleet health plane; when attached, every attempt feeds a
    /// per-replica latency/error sample and every admitted request feeds
    /// queue-depth and per-tenant series. Pure measurement — attaching it
    /// schedules nothing and draws no randomness.
    health: RefCell<Option<Rc<HealthPlane>>>,
    drain_hook: Hook<DrainHook>,
    upload_hook: Hook<UploadHook>,
}

impl Dispatcher {
    /// New dispatcher with no backends yet.
    pub fn new(cfg: DispatcherConfig) -> Rc<Dispatcher> {
        Rc::new(Dispatcher {
            cfg,
            slots: RefCell::new(Vec::new()),
            admission: RefCell::new(Admission::new(cfg.max_in_flight)),
            routing: RefCell::new(Routing::new(cfg.policy, cfg.affinity)),
            ops: RefCell::new(OpTable::new()),
            counters: RefCell::new(DispatchCounters::default()),
            health: RefCell::new(None),
            drain_hook: RefCell::new(None),
            upload_hook: RefCell::new(None),
        })
    }

    // -- planes and hooks ----------------------------------------------------

    /// Turn on the per-tenant QoS stage: invocations carrying a principal
    /// are admitted against per-tenant quotas, wait in weighted-fair door
    /// queues when at quota, and shed (with per-tenant accounting) when
    /// their queue overflows. Attach before traffic; anonymous requests
    /// and uploads keep the plain global gate.
    pub fn set_qos(&self, cfg: QosConfig) {
        self.admission.borrow_mut().set_qos(cfg);
    }

    /// Per-tenant QoS ledgers and live state (empty map with QoS off).
    /// Every tenant satisfies `issued == accepted + shed + queued`, and
    /// an under-quota tenant only ever waits because the global window is
    /// full (or no replica is left) — the fairness invariant the
    /// proptests audit mid-run.
    pub fn qos_tenants(&self) -> BTreeMap<String, TenantQos> {
        self.admission.borrow().tenants()
    }

    /// Attach a health plane. From now on every answered (or lost) attempt
    /// records a per-replica latency/error sample and every admitted
    /// invocation records in-flight depth and its tenant. Measurement
    /// only: the request path is unchanged event-for-event.
    pub fn set_health_plane(&self, plane: Rc<HealthPlane>) {
        *self.health.borrow_mut() = Some(plane);
    }

    /// The attached health plane, if any.
    pub fn health_plane(&self) -> Option<Rc<HealthPlane>> {
        self.health.borrow().clone()
    }

    /// Feed the health plane, if one is attached.
    fn observe(&self, sample: impl FnOnce(&HealthPlane)) {
        if let Some(plane) = self.health.borrow().as_deref() {
            sample(plane);
        }
    }

    /// Attach a geo plane: routing becomes latency-aware (nearest healthy
    /// site first, spill outward at the plane's saturation threshold) and
    /// severed sites drop out of rotation for the length of their outage
    /// window; with federation on, pinned work whose home site is severed
    /// is forwarded to the nearest healthy peer without losing the pin.
    /// Attach the same plane to the owning [`crate::Fleet`] (see
    /// [`crate::Fleet::attach_geo`]) so replicas are placed and WAN costs
    /// are charged; a fleet can carry the plane *without* the dispatcher
    /// knowing — that is the site-oblivious control.
    pub fn set_geo(&self, plane: Rc<GeoPlane>) {
        self.routing.borrow_mut().set_geo(plane);
    }

    /// Called once per drained (removed + idle) backend, with its name.
    pub fn set_drain_hook(&self, f: impl Fn(&mut Sim, &str) + 'static) {
        *self.drain_hook.borrow_mut() = Some(Box::new(f));
    }

    /// Called once per *accepted* upload broadcast, before any backend
    /// sees it — the fleet uses this to catalog the executable for
    /// replicas that boot later.
    pub fn set_upload_hook(&self, f: impl Fn(&mut Sim, &Request) + 'static) {
        *self.upload_hook.borrow_mut() = Some(Box::new(f));
    }

    // -- replicas ------------------------------------------------------------

    /// Put a backend into rotation.
    pub fn add_backend(&self, backend: Rc<dyn Backend>) {
        let busy_key = format!("{}.cpu.busy", backend.name());
        self.slots.borrow_mut().push(Slot {
            id: self.ops.borrow_mut().add_replica(),
            backend,
            draining: false,
            probation: false,
            busy_key,
        });
    }

    /// Take `name` out of rotation. New requests stop routing to it
    /// immediately; once its outstanding requests finish, the slot is
    /// dropped and the drain hook fires. Returns `false` if no live
    /// backend has that name.
    pub fn remove_backend(&self, sim: &mut Sim, name: &str) -> bool {
        let (id, idle) = {
            let mut slots = self.slots.borrow_mut();
            let Some(slot) = slots.iter_mut().find(|s| s.live_as(name)) else {
                return false;
            };
            slot.draining = true;
            (slot.id, self.ops.borrow().outstanding(slot.id) == 0)
        };
        // a draining replica takes no new work, sticky or not
        self.routing.borrow_mut().orphan_replica(name);
        if idle {
            self.retire(sim, id, name);
        }
        true
    }

    /// Drop a drained slot and notify the owner.
    fn retire(&self, sim: &mut Sim, id: ReplicaId, name: &str) {
        self.slots.borrow_mut().retain(|s| s.id != id);
        fire(&self.drain_hook, |hook| hook(sim, name));
    }

    /// Throw a backend out of rotation *now*, no drain: the involuntary
    /// loss path. Every op outstanding on it resolves as lost — retried
    /// for invocations, faulted for upload branches — and any answer the
    /// dead backend produces later is dropped. The drain hook does NOT
    /// fire (nothing drained); the owner handles teardown itself. Returns
    /// `false` if no backend has that name.
    pub fn eject_backend(self: &Rc<Self>, sim: &mut Sim, name: &str) -> bool {
        self.eject_where(sim, |s| s.backend.name() == name)
    }

    /// Eject the first slot `which` picks — by name for the owner, by
    /// replica id for a watchdog.
    fn eject_where(self: &Rc<Self>, sim: &mut Sim, which: impl Fn(&Slot) -> bool) -> bool {
        let slot = {
            let mut slots = self.slots.borrow_mut();
            match slots.iter().position(which) {
                None => return false,
                Some(i) => slots.remove(i),
            }
        };
        let name = slot.backend.name();
        self.count(sim, "dispatcher.ejected", |c| &mut c.ejected);
        // pins to the dead replica die with it; the keys reassign by
        // rendezvous hash on their next request
        self.routing.borrow_mut().orphan_replica(name);
        let lost = self.ops.borrow_mut().lose_replica(sim, slot.id);
        // borrows dropped: completions may re-enter the dispatcher
        for op in lost {
            self.observe(|plane| {
                plane.record_attempt(sim.now(), name, sim.now() - op.started, true)
            });
            self.resolve(sim, op.work, Err(name));
        }
        true
    }

    /// Put `name` on (or take it off) probation: it stays in rotation but
    /// receives only probe traffic (one route window in eight) until
    /// cleared. Returns `false` if no live backend has that name.
    pub fn set_probation(&self, name: &str, on: bool) -> bool {
        let mut slots = self.slots.borrow_mut();
        let slot = slots.iter_mut().find(|s| s.live_as(name));
        slot.map(|s| s.probation = on).is_some()
    }

    /// Live backends currently on probation.
    pub fn probation_count(&self) -> usize {
        let slots = self.slots.borrow();
        slots.iter().filter(|s| !s.draining && s.probation).count()
    }

    /// Backends still in rotation.
    pub fn live_backends(&self) -> usize {
        self.slots.borrow().iter().filter(|s| !s.draining).count()
    }

    /// Attempts currently outstanding on the named backend (0 if it is
    /// not in rotation).
    pub fn outstanding_on(&self, name: &str) -> usize {
        let slots = self.slots.borrow();
        let slot = slots.iter().find(|s| s.backend.name() == name);
        slot.map_or(0, |s| self.ops.borrow().outstanding(s.id))
    }

    /// Attempts outstanding across all backends (queued + being served).
    pub fn queued_depth(&self) -> usize {
        self.ops.borrow().total_outstanding()
    }

    /// Requests currently admitted and not yet answered.
    pub fn in_flight(&self) -> usize {
        self.admission.borrow().in_flight()
    }

    /// The conservation ledger.
    pub fn counters(&self) -> DispatchCounters {
        *self.counters.borrow()
    }

    /// Bump one ledger field and the telemetry counter that mirrors it.
    fn count(
        &self,
        sim: &mut Sim,
        metric: &'static str,
        field: impl FnOnce(&mut DispatchCounters) -> &mut u64,
    ) {
        *field(&mut self.counters.borrow_mut()) += 1;
        sim.counter_add(metric, 1);
    }

    // -- the request path: admission ----------------------------------------

    /// Admit and route one request; `done` is called exactly once whether
    /// the request is served, faulted, or shed at the door.
    pub fn submit(self: &Rc<Self>, sim: &mut Sim, req: Request, done: Responder) {
        let span = sim.span_begin("dispatcher.dispatch");
        sim.span_attr(span, "policy", self.cfg.policy.label());
        let any_live = self.live_backends() > 0;
        let offer = self
            .admission
            .borrow_mut()
            .offer(req.principal(), any_live, sim.now());
        let mut ticket = Box::new(Ticket {
            req,
            done,
            span,
            retries: 0,
            qos: None,
        });
        match offer {
            Offer::Shed(why, tag) => {
                if let Some(tag) = &tag {
                    sim.span_attr(span, "tenant", tag.tenant.as_str());
                    self.tenant_shed(sim, tag);
                }
                self.shed(sim, *ticket, why);
            }
            Offer::Queue { tag, depth } => {
                stamp_qos(sim, span, &tag);
                sim.span_attr(span, "qos", "queued");
                sim.counter_add("dispatcher.qos_enqueued", 1);
                self.observe(|plane| {
                    plane.record_tenant_queue_depth(sim.now(), &tag.tenant, depth as u64)
                });
                self.admission.borrow_mut().park(tag, ticket);
            }
            Offer::Admit(qos) => {
                if let Some(tag) = &qos {
                    stamp_qos(sim, span, tag);
                }
                ticket.qos = qos;
                self.enter(sim, ticket);
            }
        }
    }

    /// Front-door bookkeeping for a request admission let in — fresh, or
    /// granted from a door queue — then its first attempt, or its fan-out
    /// if it is an upload.
    fn enter(self: &Rc<Self>, sim: &mut Sim, ticket: Box<Ticket>) {
        self.count(sim, "dispatcher.accepted", |c| &mut c.accepted);
        // The health plane's in-flight and tenant series describe
        // invocations: a broadcast leaves no submit sample.
        if matches!(ticket.req, Request::Upload { .. }) {
            return self.broadcast(sim, *ticket);
        }
        let in_flight = self.in_flight() as u64;
        sim.span_attr(ticket.span, "in_flight", in_flight);
        self.observe(|plane| {
            let queued = self.queued_depth() as u64;
            plane.record_submit(sim.now(), in_flight, queued, ticket.req.principal());
            if let Some(tag) = &ticket.qos {
                plane.record_tenant_accepted(sim.now(), &tag.tenant);
            }
        });
        self.attempt(sim, ticket);
    }

    /// Refuse a request at the door.
    fn shed(&self, sim: &mut Sim, ticket: Ticket, why: &str) {
        self.count(sim, "dispatcher.shed", |c| &mut c.shed);
        sim.span_attr(ticket.span, "outcome", "shed");
        sim.span_fail(ticket.span, why);
        (ticket.done)(sim, Err(SoapFault::server(&format!("dispatcher: {why}"))));
    }

    /// Per-tenant accounting for a request the tenant stage refused.
    fn tenant_shed(&self, sim: &mut Sim, tag: &QosTag) {
        sim.counter_add("dispatcher.qos_shed", 1);
        self.observe(|plane| plane.record_tenant_shed(sim.now(), &tag.tenant));
    }

    /// Resolve an admitted request exactly once: close its front-door
    /// books, hand the capacity it frees to door-queued tenants, answer.
    fn settle(self: &Rc<Self>, sim: &mut Sim, ticket: Ticket, res: Answer) {
        self.admission.borrow_mut().release(ticket.qos.as_ref());
        if let Some(tag) = &ticket.qos {
            self.observe(|plane| {
                let waited = sim.now() - tag.submitted_at;
                plane.record_tenant_latency(sim.now(), &tag.tenant, waited, res.is_err())
            });
        }
        if res.is_ok() {
            self.count(sim, "dispatcher.completed", |c| &mut c.completed);
            sim.span_end(ticket.span);
        } else {
            self.count(sim, "dispatcher.faulted", |c| &mut c.faulted);
            sim.span_fail(ticket.span, "replica returned a fault");
        }
        self.grant_freed_capacity(sim);
        (ticket.done)(sim, res);
    }

    /// Resolve an admitted invocation as a dispatcher-level fault.
    fn fail(self: &Rc<Self>, sim: &mut Sim, ticket: Ticket, why: &str) {
        let fault = SoapFault::server(&format!("dispatcher: {why}"));
        self.settle(sim, ticket, Err(fault));
    }

    /// A request just closed: let door-queued tenants in, by deficit
    /// round-robin, until the window refills or nothing is eligible. When
    /// the last replica is gone nothing can ever be granted: shed them.
    fn grant_freed_capacity(self: &Rc<Self>, sim: &mut Sim) {
        if self.live_backends() == 0 {
            let stranded = self.admission.borrow_mut().flush();
            for (tag, ticket) in stranded {
                self.tenant_shed(sim, &tag);
                self.shed(sim, *ticket, NO_REPLICAS);
            }
            return;
        }
        loop {
            let granted = self.admission.borrow_mut().next_grant();
            let Some((tag, mut ticket)) = granted else {
                return;
            };
            sim.counter_add("dispatcher.qos_granted", 1);
            ticket.qos = Some(tag);
            self.enter(sim, ticket);
        }
    }

    // -- the request path: routing and attempts -----------------------------

    /// One routing attempt for an admitted invocation (first try or retry).
    fn attempt(self: &Rc<Self>, sim: &mut Sim, ticket: Box<Ticket>) {
        let routed = {
            let (slots, ops) = (self.slots.borrow(), self.ops.borrow());
            let view: Vec<Candidate<'_>> = slots
                .iter()
                .map(|s| Candidate {
                    name: s.backend.name(),
                    outstanding: ops.outstanding(s.id),
                    draining: s.draining,
                    probation: s.probation,
                    busy_key: &s.busy_key,
                })
                .collect();
            let mut routing = self.routing.borrow_mut();
            let routed = routing.route(sim, &view, ticket.req.principal());
            routed.map(|(i, outcome)| (slots[i].id, Rc::clone(&slots[i].backend), outcome))
        };
        let Some((replica, backend, outcome)) = routed else {
            // every backend is gone: re-shed to the client as a SOAP fault
            return self.fail(sim, *ticket, NO_REPLICAS);
        };
        let (span, attempt_no) = (ticket.span, ticket.retries);
        if let Some(outcome) = outcome {
            let mut c = self.counters.borrow_mut();
            let (label, metric, n) = match outcome {
                RouteOutcome::Hit => ("hit", "dispatcher.affinity_hit", &mut c.affinity_hits),
                RouteOutcome::Miss => ("miss", "dispatcher.affinity_miss", &mut c.affinity_misses),
                RouteOutcome::Repin => {
                    ("repin", "dispatcher.affinity_repin", &mut c.affinity_repins)
                }
                RouteOutcome::Forward => {
                    ("forward", "dispatcher.affinity_forward", &mut c.forwarded)
                }
            };
            *n += 1;
            sim.span_attr(span, "affinity", label);
            sim.counter_add(metric, 1);
        }
        let req = ticket.req.clone();
        let (answer, queued) =
            self.register_op(sim, replica, backend.name(), Work::Attempt(ticket));
        if queued {
            self.count(sim, "dispatcher.queued", |c| &mut c.queued);
        }
        sim.span_attr(span, "replica", backend.name());
        if attempt_no > 0 {
            sim.span_attr(span, "attempt", attempt_no as u64);
        }
        // parent replica-internal spans under the dispatch span
        let prev = sim.set_span_parent(span);
        backend.serve(sim, req, answer);
        sim.set_span_parent(prev);
    }

    /// The attempt's replica was lost: back off and go again on whatever
    /// survives, or give up when the cap is hit / retry is disabled.
    fn retry_or_fail(self: &Rc<Self>, sim: &mut Sim, mut ticket: Box<Ticket>, lost: &str) {
        let Some(rc) = self.cfg.retry.filter(|rc| ticket.retries < rc.max_retries) else {
            let why = match self.cfg.retry {
                Some(_) => "retries exhausted",
                None => "retry disabled",
            };
            return self.fail(sim, *ticket, &format!("replica {lost} lost; {why}"));
        };
        ticket.retries += 1;
        self.count(sim, "dispatcher.retried", |c| &mut c.retried);
        let rspan = sim.span_child("dispatcher.retry", ticket.span);
        sim.span_attr(rspan, "replica", lost);
        sim.span_attr(rspan, "attempt", ticket.retries as u64);
        if let Some(tag) = &ticket.qos {
            // the retry keeps the admission-time identity: it re-routes,
            // it does not re-queue
            stamp_qos(sim, rspan, tag);
        }
        let delay = rc.backoff(sim, ticket.retries);
        sim.span_attr(rspan, "backoff_ms", delay.as_secs_f64() * 1e3);
        let this = Rc::clone(self);
        // the retry span covers the backoff window
        sim.schedule(delay, move |sim| {
            sim.span_end(rspan);
            this.attempt(sim, ticket);
        });
    }

    /// Fan an admitted upload out to every live replica; the front-door
    /// request completes when the slowest replica has it, and faults if
    /// any replica faulted.
    fn broadcast(self: &Rc<Self>, sim: &mut Sim, ticket: Ticket) {
        let targets: Vec<(ReplicaId, Rc<dyn Backend>)> = {
            let slots = self.slots.borrow();
            let live = slots.iter().filter(|s| !s.draining);
            live.map(|s| (s.id, Rc::clone(&s.backend))).collect()
        };
        let (span, req) = (ticket.span, ticket.req.clone());
        sim.span_attr(span, "fanout", targets.len() as u64);
        fire(&self.upload_hook, |hook| hook(sim, &req));
        let join = Rc::new(UploadJoin {
            ticket: RefCell::new(Some(ticket)),
            remaining: Cell::new(targets.len()),
            first_fault: RefCell::new(None),
        });
        // register every branch as an op first (ejecting a target backend
        // then resolves its branch as a fault instead of hanging the join),
        // serve after — so a synchronous completion can't eject a target
        // before its branch is registered.
        let mut branches = Vec::with_capacity(targets.len());
        for (replica, backend) in targets {
            let work = Work::Branch(Rc::clone(&join));
            let (answer, _) = self.register_op(sim, replica, backend.name(), work);
            branches.push((backend, answer));
        }
        for (backend, answer) in branches {
            let prev = sim.set_span_parent(span);
            backend.serve(sim, req.clone(), answer);
            sim.set_span_parent(prev);
        }
    }

    // -- the request path: the op table --------------------------------------

    /// Register one attempt on `replica` and arm its watchdog. Returns the
    /// responder that answers the op, and whether the attempt queued
    /// behind other work on that replica.
    fn register_op(
        self: &Rc<Self>,
        sim: &mut Sim,
        replica: ReplicaId,
        name: &str,
        work: Work,
    ) -> (Responder, bool) {
        let (op_id, depth) = self
            .ops
            .borrow_mut()
            .register(sim, replica, work, |sim, op_id| {
                let after = self.cfg.request_timeout?;
                Some(self.arm_watchdog(sim, op_id, after))
            });
        self.observe(|plane| plane.record_depth(sim.now(), name, depth as u64));
        let this = Rc::clone(self);
        let answer = Box::new(move |sim: &mut Sim, res| this.op_answered(sim, op_id, res));
        (answer, depth > 1)
    }

    /// An op's fate is known: carry its work forward.
    fn resolve(self: &Rc<Self>, sim: &mut Sim, work: Work, fate: Fate<'_>) {
        let (join, fate) = match (work, fate) {
            (Work::Attempt(ticket), Ok(res)) => return self.settle(sim, *ticket, res),
            (Work::Attempt(ticket), Err(lost)) => return self.retry_or_fail(sim, ticket, lost),
            (Work::Branch(join), fate) => (join, fate),
        };
        let res = fate.unwrap_or_else(|lost| {
            Err(SoapFault::server(&format!(
                "replica {lost} lost during upload"
            )))
        });
        if let Err(f) = res {
            join.first_fault.borrow_mut().get_or_insert(f);
        }
        join.remaining.set(join.remaining.get() - 1);
        if join.remaining.get() == 0 {
            let ticket = join.ticket.borrow_mut().take().expect("single join");
            let fault = join.first_fault.borrow_mut().take();
            self.settle(sim, ticket, fault.map_or(Ok(SoapValue::Bool(true)), Err));
        }
    }

    /// Schedule the watchdog of `op_id` to fire `after` from now.
    fn arm_watchdog(self: &Rc<Self>, sim: &mut Sim, op_id: u64, after: Duration) -> EventId {
        let this = Rc::clone(self);
        sim.schedule(after, move |sim| this.op_timed_out(sim, op_id))
    }

    /// A backend's `done` fired. Stale ops (already resolved by an eject)
    /// are dropped here — this is what makes a dead replica's late answer
    /// a no-op instead of a double-settle.
    fn op_answered(self: &Rc<Self>, sim: &mut Sim, op_id: u64, res: Answer) {
        let taken = self.ops.borrow_mut().take(sim, op_id);
        let Some((op, idle)) = taken else {
            return; // zombie response from an ejected backend
        };
        let (backend, retired) = {
            let slots = self.slots.borrow();
            let slot = slots.iter().find(|s| s.id == op.replica);
            let slot = slot.expect("a pending op's replica is still in the table");
            (Rc::clone(&slot.backend), slot.draining && idle)
        };
        if retired {
            self.retire(sim, op.replica, backend.name());
        }
        self.observe(|plane| {
            let latency = sim.now() - op.started;
            plane.record_attempt(sim.now(), backend.name(), latency, res.is_err())
        });
        // fault-signal detection: an error from a backend that reports
        // unhealthy — or that this very answer just retired — is a loss,
        // not an application fault
        let lost = res.is_err() && (retired || !backend.healthy());
        let fate = if lost { Err(backend.name()) } else { Ok(res) };
        self.resolve(sim, op.work, fate);
    }

    /// Watchdog: an attempt went unanswered for `request_timeout`. The
    /// whole backend is suspect — eject it, which resolves this op and
    /// every other op outstanding on it as lost.
    fn op_timed_out(self: &Rc<Self>, sim: &mut Sim, op_id: u64) {
        let Some(replica) = self.ops.borrow().replica_of(op_id) else {
            return;
        };
        sim.counter_add("dispatcher.timeout", 1);
        self.eject_where(sim, |s| s.id == replica);
    }

    /// Park every op outstanding on `site`'s replicas across an outage:
    /// each watchdog is re-armed to `reconnect_at + request_timeout`, so
    /// work already inside the partition is *waited out* instead of
    /// ejected — the severed site holds its answers and delivers them on
    /// reconnect (see [`GeoPlane`] outage semantics), which is what makes
    /// a federated site outage lose nothing. No-op without a geo plane or
    /// without a request timeout (nothing to re-arm). Returns how many
    /// ops were parked.
    pub fn park_site(self: &Rc<Self>, sim: &mut Sim, site: &str, reconnect_at: SimTime) -> usize {
        let Some(grace) = self.cfg.request_timeout else {
            return 0;
        };
        let on_site: Vec<ReplicaId> = {
            let (slots, routing) = (self.slots.borrow(), self.routing.borrow());
            let placed = slots
                .iter()
                .filter(|s| routing.on_site(s.backend.name(), site));
            placed.map(|s| s.id).collect()
        };
        let wait = (reconnect_at - sim.now()) + grace;
        let parked = self.ops.borrow_mut().park(sim, &on_site, |sim, op_id| {
            self.arm_watchdog(sim, op_id, wait)
        });
        if parked > 0 {
            sim.counter_add("dispatcher.parked", parked as u64);
        }
        parked
    }

    // -- pins and the canary share --------------------------------------------

    /// Live (non-draining) backends with the count of affinity pins each
    /// currently holds — zero-pin backends included. The autoscaler's
    /// scale-down victim choice keys on this: evicting the least-pinned
    /// replica orphans the fewest sessions.
    pub fn live_pin_counts(&self) -> BTreeMap<String, usize> {
        let slots = self.slots.borrow();
        let live = slots.iter().filter(|s| !s.draining);
        self.routing
            .borrow()
            .live_pin_counts(live.map(|s| s.backend.name()))
    }

    /// Divert `share_pct`% of first-sight routes to `target` for a
    /// canary judgment window. Deterministic (counter-based, no RNG);
    /// the counter restarts at zero so same-seed replays shift the same
    /// requests. Pinned principals are untouched — shift those
    /// explicitly with [`Dispatcher::shift_pins`].
    pub fn set_canary(&self, target: &str, share_pct: u32) {
        self.routing.borrow_mut().set_canary(target, share_pct);
    }

    /// End the canary share: first-sight routing reverts to the base
    /// policy.
    pub fn clear_canary(&self) {
        self.routing.borrow_mut().clear_canary();
    }

    /// The replica currently receiving the canary share, if any.
    pub fn canary_target(&self) -> Option<String> {
        self.routing.borrow().canary_target()
    }

    /// Shift the top `fraction` of live affinity pins onto `target`,
    /// ranked by the rendezvous score of `(key, target)` — the same hash
    /// that reassigns pins after a loss, so the shifted set is a pure
    /// function of (pinned keys, target) and each shifted principal
    /// re-authenticates exactly once, on its first request to `target`.
    /// Pins already on `target` are skipped. Returns the shifted
    /// `(principal, previous replica)` pairs in rank order, the undo
    /// log for [`Dispatcher::restore_pins`].
    pub fn shift_pins(&self, target: &str, fraction: f64) -> Vec<(String, String)> {
        self.routing.borrow_mut().shift_pins(target, fraction)
    }

    /// Undo a [`Dispatcher::shift_pins`]: every pin still on `target`
    /// goes back to its previous replica (or is orphaned for rendezvous
    /// reassignment when that replica has since left rotation). Pins no
    /// longer on `target` — orphaned by a canary crash, evicted, or
    /// re-pinned — are left alone. Returns how many pins were restored.
    pub fn restore_pins(&self, target: &str, shifted: &[(String, String)]) -> usize {
        let slots = self.slots.borrow();
        let in_rotation = |name: &str| slots.iter().any(|s| s.live_as(name));
        self.routing
            .borrow_mut()
            .restore_pins(target, shifted, in_rotation)
    }

    /// The replica `key`'s live affinity pin targets, if any (orphaned
    /// pins return `None`).
    pub fn pin_target(&self, key: &str) -> Option<String> {
        self.routing.borrow().pin_target(key)
    }

    /// Every live affinity pin as sorted `(principal, replica)` pairs —
    /// the rollout proptests' pin-validity witness.
    pub fn live_pins(&self) -> Vec<(String, String)> {
        self.routing.borrow().live_pins()
    }
}
#[cfg(test)]
mod tests {
    use super::routing::rendezvous_score;
    use super::*;
    use simkit::Duration;

    /// Serves every request after a fixed delay; can be told to fault.
    struct Echo {
        name: String,
        delay: Duration,
        fault: bool,
        served: Cell<u64>,
    }

    impl Echo {
        fn new(name: &str, delay_ms: u64) -> Rc<Echo> {
            Rc::new(Echo {
                name: name.into(),
                delay: Duration::from_millis(delay_ms),
                fault: false,
                served: Cell::new(0),
            })
        }
    }

    impl Backend for Echo {
        fn name(&self) -> &str {
            &self.name
        }
        fn serve(&self, sim: &mut Sim, _req: Request, done: Responder) {
            self.served.set(self.served.get() + 1);
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

    fn invoke() -> Request {
        Request::Invoke {
            service: "svc".into(),
            args: Vec::new(),
            principal: None,
        }
    }

    fn invoke_as(principal: &str) -> Request {
        Request::Invoke {
            service: "svc".into(),
            args: Vec::new(),
            principal: Some(principal.into()),
        }
    }

    #[test]
    fn round_robin_cycles() {
        let mut sim = Sim::new(1);
        let d = Dispatcher::new(DispatcherConfig {
            policy: Policy::RoundRobin,
            max_in_flight: 16,
            ..DispatcherConfig::default()
        });
        let (a, b) = (Echo::new("a", 10), Echo::new("b", 10));
        d.add_backend(a.clone());
        d.add_backend(b.clone());
        for _ in 0..6 {
            d.submit(&mut sim, invoke(), Box::new(|_, r| assert!(r.is_ok())));
        }
        sim.run();
        assert_eq!(a.served.get(), 3);
        assert_eq!(b.served.get(), 3);
        assert_eq!(d.counters().completed, 6);
        assert_eq!(d.in_flight(), 0);
    }

    #[test]
    fn least_outstanding_prefers_idle() {
        let mut sim = Sim::new(2);
        let d = Dispatcher::new(DispatcherConfig {
            policy: Policy::LeastOutstanding,
            max_in_flight: 16,
            ..DispatcherConfig::default()
        });
        // a is slow, so it stays loaded; b should absorb the burst
        let (a, b) = (Echo::new("a", 10_000), Echo::new("b", 10));
        d.add_backend(a.clone());
        d.add_backend(b.clone());
        d.submit(&mut sim, invoke(), Box::new(|_, _| {})); // lands on a
        // staggered arrivals: b finishes each before the next arrives, so
        // least-outstanding keeps preferring it over the loaded a
        for k in 0..4u64 {
            let d2 = Rc::clone(&d);
            sim.schedule(Duration::from_millis(100 + 50 * k), move |sim| {
                d2.submit(sim, invoke(), Box::new(|_, _| {}));
            });
        }
        sim.run();
        assert_eq!(a.served.get(), 1);
        assert_eq!(b.served.get(), 4);
    }

    #[test]
    fn admission_limit_sheds_with_fault() {
        let mut sim = Sim::new(3);
        let d = Dispatcher::new(DispatcherConfig {
            policy: Policy::RoundRobin,
            max_in_flight: 2,
            ..DispatcherConfig::default()
        });
        d.add_backend(Echo::new("a", 1000));
        let shed_seen = Rc::new(Cell::new(0u32));
        for _ in 0..5 {
            let s = shed_seen.clone();
            d.submit(
                &mut sim,
                invoke(),
                Box::new(move |_, r| {
                    if r.is_err() {
                        s.set(s.get() + 1);
                    }
                }),
            );
        }
        sim.run();
        let c = d.counters();
        assert_eq!(c.accepted, 2);
        assert_eq!(c.shed, 3);
        assert_eq!(shed_seen.get(), 3);
        assert_eq!(c.completed, 2);
    }

    #[test]
    fn no_backends_faults_every_request() {
        let mut sim = Sim::new(4);
        let d = Dispatcher::new(DispatcherConfig::default());
        let got = Rc::new(Cell::new(0u32));
        let g = got.clone();
        d.submit(
            &mut sim,
            invoke(),
            Box::new(move |_, r| {
                assert!(r.is_err());
                g.set(g.get() + 1);
            }),
        );
        sim.run();
        assert_eq!(got.get(), 1);
        assert_eq!(d.counters().shed, 1);
    }

    #[test]
    fn upload_broadcasts_to_all_live_backends() {
        let mut sim = Sim::new(5);
        let d = Dispatcher::new(DispatcherConfig::default());
        let (a, b, c) = (Echo::new("a", 10), Echo::new("b", 20), Echo::new("c", 30));
        d.add_backend(a.clone());
        d.add_backend(b.clone());
        d.add_backend(c.clone());
        let seen = Rc::new(Cell::new(0u32));
        let s = seen.clone();
        d.submit(
            &mut sim,
            Request::Upload {
                file_name: "f.exe".into(),
                payload: onserve::deployment::synth_executable(64),
                profile: ExecutionProfile::quick(),
            },
            Box::new(move |_, r| {
                assert!(r.is_ok());
                s.set(s.get() + 1);
            }),
        );
        sim.run();
        assert_eq!(seen.get(), 1, "join answers exactly once");
        assert_eq!(a.served.get() + b.served.get() + c.served.get(), 3);
        assert_eq!(d.counters().accepted, 1, "one front-door request");
        assert_eq!(d.counters().completed, 1);
    }

    #[test]
    fn drain_waits_for_outstanding_then_fires_hook() {
        let mut sim = Sim::new(6);
        let d = Dispatcher::new(DispatcherConfig {
            policy: Policy::RoundRobin,
            max_in_flight: 8,
            ..DispatcherConfig::default()
        });
        let (a, b) = (Echo::new("a", 500), Echo::new("b", 500));
        d.add_backend(a.clone());
        d.add_backend(b);
        d.submit(&mut sim, invoke(), Box::new(|_, _| {})); // on a
        let drained: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
        let dr = drained.clone();
        d.set_drain_hook(move |_, name| dr.borrow_mut().push(name.to_owned()));
        assert!(d.remove_backend(&mut sim, "a"));
        assert!(!d.remove_backend(&mut sim, "a"), "already draining");
        assert_eq!(d.live_backends(), 1);
        assert!(drained.borrow().is_empty(), "still has work in flight");
        // new traffic avoids the draining replica
        d.submit(&mut sim, invoke(), Box::new(|_, _| {}));
        sim.run();
        assert_eq!(*drained.borrow(), vec!["a".to_owned()]);
        assert_eq!(a.served.get(), 1);
        assert_eq!(d.counters().completed, 2);
    }

    #[test]
    fn idle_backend_retires_immediately() {
        let mut sim = Sim::new(7);
        let d = Dispatcher::new(DispatcherConfig::default());
        d.add_backend(Echo::new("a", 10));
        d.add_backend(Echo::new("b", 10));
        let drained = Rc::new(Cell::new(0u32));
        let dr = drained.clone();
        d.set_drain_hook(move |_, _| dr.set(dr.get() + 1));
        assert!(d.remove_backend(&mut sim, "b"));
        assert_eq!(drained.get(), 1);
        assert_eq!(d.live_backends(), 1);
    }

    #[test]
    fn conservation_under_faults() {
        let mut sim = Sim::new(8);
        let d = Dispatcher::new(DispatcherConfig {
            policy: Policy::LeastOutstanding,
            max_in_flight: 4,
            ..DispatcherConfig::default()
        });
        let bad = Echo {
            name: "bad".into(),
            delay: Duration::from_millis(50),
            fault: true,
            served: Cell::new(0),
        };
        d.add_backend(Rc::new(bad));
        d.add_backend(Echo::new("good", 50));
        let answered = Rc::new(Cell::new(0u32));
        for i in 0..10 {
            let d2 = Rc::clone(&d);
            let a = answered.clone();
            sim.schedule(Duration::from_millis(i * 20), move |sim| {
                let a = a.clone();
                d2.submit(sim, invoke(), Box::new(move |_, _| a.set(a.get() + 1)));
            });
        }
        sim.run();
        let c = d.counters();
        assert_eq!(answered.get(), 10, "every request answered exactly once");
        assert_eq!(c.accepted + c.shed, 10);
        assert_eq!(c.accepted, c.completed + c.faulted);
        assert_eq!(d.in_flight(), 0);
    }

    /// Accepts requests and never answers them — a hung/dead backend.
    struct BlackHole {
        name: String,
        served: Cell<u64>,
        swallowed: RefCell<Vec<Responder>>,
    }

    impl BlackHole {
        fn new(name: &str) -> Rc<BlackHole> {
            Rc::new(BlackHole {
                name: name.into(),
                served: Cell::new(0),
                swallowed: RefCell::new(Vec::new()),
            })
        }
    }

    impl Backend for BlackHole {
        fn name(&self) -> &str {
            &self.name
        }
        fn serve(&self, _sim: &mut Sim, _req: Request, done: Responder) {
            self.served.set(self.served.get() + 1);
            self.swallowed.borrow_mut().push(done);
        }
    }

    fn retrying(policy: Policy, max_retries: u32) -> DispatcherConfig {
        DispatcherConfig {
            policy,
            max_in_flight: 16,
            retry: Some(RetryConfig {
                max_retries,
                ..RetryConfig::default()
            }),
            request_timeout: None,
            affinity: None,
        }
    }

    #[test]
    fn eject_retries_in_flight_work_on_the_survivor() {
        let mut sim = Sim::new(31);
        let d = Dispatcher::new(retrying(Policy::RoundRobin, 3));
        let hole = BlackHole::new("dead");
        let good = Echo::new("good", 10);
        d.add_backend(hole.clone()); // rr: first request lands here
        d.add_backend(good.clone());
        let got = Rc::new(Cell::new(0u32));
        let g = got.clone();
        d.submit(
            &mut sim,
            invoke(),
            Box::new(move |_, r| {
                assert!(r.is_ok(), "retried onto the survivor: {r:?}");
                g.set(g.get() + 1);
            }),
        );
        // the crash arrives while the request is swallowed
        let d2 = Rc::clone(&d);
        sim.schedule(Duration::from_millis(50), move |sim| {
            assert!(d2.eject_backend(sim, "dead"));
        });
        sim.run();
        assert_eq!(got.get(), 1, "answered exactly once");
        assert_eq!(hole.served.get(), 1);
        assert_eq!(good.served.get(), 1);
        let c = d.counters();
        assert_eq!((c.accepted, c.completed, c.faulted), (1, 1, 0));
        assert_eq!(c.retried, 1);
        assert_eq!(c.ejected, 1);
        assert_eq!(d.live_backends(), 1);
        assert_eq!(d.in_flight(), 0);
    }

    #[test]
    fn zombie_answer_after_eject_is_dropped() {
        let mut sim = Sim::new(32);
        let d = Dispatcher::new(retrying(Policy::RoundRobin, 3));
        let hole = BlackHole::new("dead");
        let good = Echo::new("good", 10);
        d.add_backend(hole.clone());
        d.add_backend(good.clone());
        let got = Rc::new(Cell::new(0u32));
        let g = got.clone();
        d.submit(&mut sim, invoke(), Box::new(move |_, _| g.set(g.get() + 1)));
        let d2 = Rc::clone(&d);
        let hole2 = Rc::clone(&hole);
        sim.schedule(Duration::from_millis(20), move |sim| {
            d2.eject_backend(sim, "dead");
            // the dead replica answers *after* the eject resolved the op
            for done in hole2.swallowed.borrow_mut().drain(..) {
                done(sim, Ok(SoapValue::Bool(true)));
            }
        });
        sim.run();
        assert_eq!(got.get(), 1, "the zombie answer did not double-settle");
        let c = d.counters();
        assert_eq!(c.accepted, c.completed + c.faulted);
        assert_eq!(d.in_flight(), 0);
    }

    #[test]
    fn retries_exhaust_into_a_soap_fault() {
        let mut sim = Sim::new(33);
        // both backends are black holes killed in sequence; cap of 1 retry
        let d = Dispatcher::new(retrying(Policy::RoundRobin, 1));
        let (h1, h2) = (BlackHole::new("h1"), BlackHole::new("h2"));
        d.add_backend(h1.clone());
        d.add_backend(h2.clone());
        let fault = Rc::new(Cell::new(false));
        let f = fault.clone();
        d.submit(
            &mut sim,
            invoke(),
            Box::new(move |_, r| f.set(r.is_err())),
        );
        let d2 = Rc::clone(&d);
        sim.schedule(Duration::from_millis(10), move |sim| {
            d2.eject_backend(sim, "h1");
        });
        let d3 = Rc::clone(&d);
        // after the backoff, the retry lands on h2; kill it too
        sim.schedule(Duration::from_secs(5), move |sim| {
            d3.eject_backend(sim, "h2");
        });
        sim.run();
        assert!(fault.get(), "cap hit → SOAP fault to the client");
        let c = d.counters();
        assert_eq!((c.accepted, c.completed, c.faulted), (1, 0, 1));
        assert_eq!(c.retried, 1, "exactly the capped retry was attempted");
    }

    #[test]
    fn retry_disabled_fail_fasts_the_loss() {
        let mut sim = Sim::new(34);
        let d = Dispatcher::new(DispatcherConfig {
            policy: Policy::RoundRobin,
            max_in_flight: 16,
            retry: None,
            request_timeout: None,
            affinity: None,
        });
        d.add_backend(BlackHole::new("dead"));
        d.add_backend(Echo::new("good", 10));
        let fault = Rc::new(Cell::new(false));
        let f = fault.clone();
        d.submit(
            &mut sim,
            invoke(),
            Box::new(move |_, r| f.set(r.is_err())),
        );
        let d2 = Rc::clone(&d);
        sim.schedule(Duration::from_millis(10), move |sim| {
            d2.eject_backend(sim, "dead");
        });
        sim.run();
        assert!(fault.get());
        let c = d.counters();
        assert_eq!((c.faulted, c.retried), (1, 0));
    }

    #[test]
    fn request_timeout_ejects_the_silent_backend_and_retries() {
        let mut sim = Sim::new(35);
        let d = Dispatcher::new(DispatcherConfig {
            policy: Policy::RoundRobin,
            max_in_flight: 16,
            retry: Some(RetryConfig::default()),
            request_timeout: Some(Duration::from_secs(10)),
            affinity: None,
        });
        let hole = BlackHole::new("silent");
        let good = Echo::new("good", 10);
        d.add_backend(hole.clone());
        d.add_backend(good.clone());
        let got = Rc::new(Cell::new(0u32));
        let g = got.clone();
        d.submit(
            &mut sim,
            invoke(),
            Box::new(move |_, r| {
                assert!(r.is_ok());
                g.set(g.get() + 1);
            }),
        );
        sim.run();
        assert_eq!(got.get(), 1, "watchdog fired, retry landed on survivor");
        assert_eq!(d.live_backends(), 1, "silent backend was ejected");
        let c = d.counters();
        assert_eq!((c.completed, c.retried, c.ejected), (1, 1, 1));
    }

    #[test]
    fn timeout_does_not_fire_for_answered_requests() {
        let mut sim = Sim::new(36);
        let d = Dispatcher::new(DispatcherConfig {
            policy: Policy::RoundRobin,
            max_in_flight: 16,
            retry: Some(RetryConfig::default()),
            request_timeout: Some(Duration::from_secs(10)),
            affinity: None,
        });
        d.add_backend(Echo::new("a", 100)); // answers well inside the window
        for _ in 0..5 {
            d.submit(&mut sim, invoke(), Box::new(|_, r| assert!(r.is_ok())));
        }
        sim.run();
        let c = d.counters();
        assert_eq!((c.completed, c.ejected, c.retried), (5, 0, 0));
        assert_eq!(d.live_backends(), 1);
    }

    #[test]
    fn eject_mid_broadcast_faults_the_upload_join() {
        let mut sim = Sim::new(37);
        let d = Dispatcher::new(retrying(Policy::RoundRobin, 3));
        let hole = BlackHole::new("dead");
        let good = Echo::new("good", 10);
        d.add_backend(hole.clone());
        d.add_backend(good.clone());
        let got = Rc::new(Cell::new(0u32));
        let g = got.clone();
        d.submit(
            &mut sim,
            Request::Upload {
                file_name: "f.exe".into(),
                payload: onserve::deployment::synth_executable(64),
                profile: ExecutionProfile::quick(),
            },
            Box::new(move |_, r| {
                // uploads are at-most-once: the lost branch faults the join
                assert!(r.is_err());
                g.set(g.get() + 1);
            }),
        );
        let d2 = Rc::clone(&d);
        sim.schedule(Duration::from_millis(20), move |sim| {
            d2.eject_backend(sim, "dead");
        });
        sim.run();
        assert_eq!(got.get(), 1, "join answered exactly once despite the loss");
        let c = d.counters();
        assert_eq!(c.accepted, c.completed + c.faulted);
        assert_eq!((c.faulted, c.retried), (1, 0));
        assert_eq!(d.in_flight(), 0);
    }

    #[test]
    fn ejecting_every_backend_sheds_new_arrivals() {
        let mut sim = Sim::new(38);
        let d = Dispatcher::new(retrying(Policy::RoundRobin, 3));
        d.add_backend(Echo::new("only", 10));
        let d2 = Rc::clone(&d);
        sim.schedule(Duration::from_millis(5), move |sim| {
            d2.eject_backend(sim, "only");
        });
        let d3 = Rc::clone(&d);
        let shed = Rc::new(Cell::new(false));
        let s = shed.clone();
        sim.schedule(Duration::from_millis(10), move |sim| {
            d3.submit(
                sim,
                invoke(),
                Box::new(move |_, r| s.set(r.is_err())),
            );
        });
        sim.run();
        assert!(shed.get(), "no backends at all → immediate SOAP fault");
        assert_eq!(d.counters().shed, 1);
    }

    fn sticky(policy: Policy) -> DispatcherConfig {
        DispatcherConfig {
            policy,
            max_in_flight: 64,
            affinity: Some(AffinityConfig::default()),
            ..DispatcherConfig::default()
        }
    }

    #[test]
    fn affinity_pins_a_principal_to_one_replica() {
        let mut sim = Sim::new(40);
        let d = Dispatcher::new(sticky(Policy::RoundRobin));
        let backends: Vec<Rc<Echo>> = (0..3).map(|i| Echo::new(&format!("r{i}"), 10)).collect();
        for b in &backends {
            d.add_backend(b.clone());
        }
        for _ in 0..9 {
            d.submit(&mut sim, invoke_as("alice"), Box::new(|_, r| assert!(r.is_ok())));
            sim.run();
        }
        // round-robin would spread 3/3/3; affinity keeps all 9 together
        let served: Vec<u64> = backends.iter().map(|b| b.served.get()).collect();
        assert_eq!(served.iter().sum::<u64>(), 9);
        assert_eq!(served.iter().filter(|&&n| n > 0).count(), 1, "{served:?}");
        let c = d.counters();
        assert_eq!((c.affinity_misses, c.affinity_hits, c.affinity_repins), (1, 8, 0));
    }

    #[test]
    fn affinity_first_sight_spreads_by_base_policy() {
        let mut sim = Sim::new(41);
        let d = Dispatcher::new(sticky(Policy::RoundRobin));
        let backends: Vec<Rc<Echo>> = (0..3).map(|i| Echo::new(&format!("r{i}"), 10)).collect();
        for b in &backends {
            d.add_backend(b.clone());
        }
        // three fresh principals, two requests each: round-robin assigns
        // each principal its own replica, then stickiness holds
        for user in ["a", "b", "c"] {
            d.submit(&mut sim, invoke_as(user), Box::new(|_, r| assert!(r.is_ok())));
        }
        sim.run();
        for user in ["a", "b", "c"] {
            d.submit(&mut sim, invoke_as(user), Box::new(|_, r| assert!(r.is_ok())));
        }
        sim.run();
        let served: Vec<u64> = backends.iter().map(|b| b.served.get()).collect();
        assert_eq!(served, vec![2, 2, 2], "one principal per replica, sticky");
        let c = d.counters();
        assert_eq!((c.affinity_misses, c.affinity_hits), (3, 3));
    }

    #[test]
    fn affinity_requests_without_principal_use_base_policy() {
        let mut sim = Sim::new(42);
        let d = Dispatcher::new(sticky(Policy::RoundRobin));
        let backends: Vec<Rc<Echo>> = (0..2).map(|i| Echo::new(&format!("r{i}"), 10)).collect();
        for b in &backends {
            d.add_backend(b.clone());
        }
        for _ in 0..6 {
            d.submit(&mut sim, invoke(), Box::new(|_, r| assert!(r.is_ok())));
        }
        sim.run();
        let served: Vec<u64> = backends.iter().map(|b| b.served.get()).collect();
        assert_eq!(served, vec![3, 3], "no principal → plain round-robin");
        let c = d.counters();
        assert_eq!((c.affinity_misses, c.affinity_hits, c.affinity_repins), (0, 0, 0));
    }

    #[test]
    fn affinity_repins_by_rendezvous_after_eject() {
        let mut sim = Sim::new(43);
        let d = Dispatcher::new(sticky(Policy::RoundRobin));
        let backends: Vec<Rc<Echo>> = (0..3).map(|i| Echo::new(&format!("r{i}"), 10)).collect();
        for b in &backends {
            d.add_backend(b.clone());
        }
        d.submit(&mut sim, invoke_as("alice"), Box::new(|_, r| assert!(r.is_ok())));
        sim.run();
        let pinned = backends
            .iter()
            .position(|b| b.served.get() == 1)
            .expect("first request pinned somewhere");
        assert!(d.eject_backend(&mut sim, &format!("r{pinned}")));
        d.submit(&mut sim, invoke_as("alice"), Box::new(|_, r| assert!(r.is_ok())));
        sim.run();
        // the reassignment must equal the rendezvous argmax over survivors
        let expect = (0..3)
            .filter(|&i| i != pinned)
            .max_by_key(|&i| rendezvous_score("alice", &format!("r{i}")))
            .unwrap();
        assert_eq!(backends[expect].served.get(), 1, "repinned off-rendezvous");
        let c = d.counters();
        assert_eq!((c.affinity_misses, c.affinity_hits, c.affinity_repins), (1, 0, 1));
        // and the new pin sticks
        d.submit(&mut sim, invoke_as("alice"), Box::new(|_, r| assert!(r.is_ok())));
        sim.run();
        assert_eq!(backends[expect].served.get(), 2);
        assert_eq!(d.counters().affinity_hits, 1);
    }

    #[test]
    fn affinity_never_routes_to_a_draining_replica() {
        let mut sim = Sim::new(44);
        let d = Dispatcher::new(sticky(Policy::RoundRobin));
        let backends: Vec<Rc<Echo>> = (0..2).map(|i| Echo::new(&format!("r{i}"), 10)).collect();
        for b in &backends {
            d.add_backend(b.clone());
        }
        d.submit(&mut sim, invoke_as("alice"), Box::new(|_, r| assert!(r.is_ok())));
        sim.run();
        let pinned = backends.iter().position(|b| b.served.get() == 1).unwrap();
        // drain the pinned replica: the pin must be invalidated immediately
        assert!(d.remove_backend(&mut sim, &format!("r{pinned}")));
        for _ in 0..4 {
            d.submit(&mut sim, invoke_as("alice"), Box::new(|_, r| assert!(r.is_ok())));
            sim.run();
        }
        assert_eq!(backends[pinned].served.get(), 1, "drained replica took new work");
        assert_eq!(backends[1 - pinned].served.get(), 4);
        assert_eq!(d.counters().affinity_repins, 1, "one rendezvous reassignment");
    }

    #[test]
    fn affinity_table_capacity_evicts_the_oldest_key() {
        let mut sim = Sim::new(45);
        let d = Dispatcher::new(DispatcherConfig {
            policy: Policy::RoundRobin,
            max_in_flight: 64,
            affinity: Some(AffinityConfig { capacity: 2 }),
            ..DispatcherConfig::default()
        });
        d.add_backend(Echo::new("r0", 10));
        d.add_backend(Echo::new("r1", 10));
        for user in ["a", "b"] {
            d.submit(&mut sim, invoke_as(user), Box::new(|_, _| {}));
            sim.run();
        }
        assert_eq!(d.counters().affinity_misses, 2);
        // "c" evicts "a" (oldest); "a" then re-enters as a fresh miss
        d.submit(&mut sim, invoke_as("c"), Box::new(|_, _| {}));
        sim.run();
        d.submit(&mut sim, invoke_as("a"), Box::new(|_, _| {}));
        sim.run();
        let c = d.counters();
        assert_eq!(c.affinity_misses, 4, "evicted key must not hit");
        // "a" re-entering displaced "b"; "c" is the one still pinned
        d.submit(&mut sim, invoke_as("c"), Box::new(|_, _| {}));
        sim.run();
        assert_eq!(d.counters().affinity_hits, 1);
    }

    #[test]
    fn utilization_weighted_reads_the_same_rollup_as_the_kernel_profile() {
        // the slot-cached busy key must select exactly the replica the
        // full profile rebuild would have picked — seed busy time into the
        // recorder and compare the routed choice against the profile argmin
        let mut sim = Sim::new(46);
        let d = Dispatcher::new(DispatcherConfig {
            policy: Policy::UtilizationWeighted,
            max_in_flight: 64,
            ..DispatcherConfig::default()
        });
        let backends: Vec<Rc<Echo>> = (0..3).map(|i| Echo::new(&format!("r{i}"), 1)).collect();
        for b in &backends {
            d.add_backend(b.clone());
        }
        let t = sim.now();
        sim.recorder().add_point("r0.cpu.busy", t, 5.0);
        sim.recorder().add_point("r1.cpu.busy", t, 2.0);
        sim.recorder().add_point("r2.cpu.busy", t, 9.0);
        let profile_argmin = sim
            .profile()
            .server_busy
            .iter()
            .filter(|s| s.key.ends_with(".cpu.busy"))
            .min_by(|a, b| a.busy_secs.partial_cmp(&b.busy_secs).unwrap())
            .map(|s| s.key.clone())
            .expect("busy series seeded");
        assert_eq!(profile_argmin, "r1.cpu.busy");
        d.submit(&mut sim, invoke(), Box::new(|_, r| assert!(r.is_ok())));
        sim.run();
        let served: Vec<u64> = backends.iter().map(|b| b.served.get()).collect();
        assert_eq!(served, vec![0, 1, 0], "pick disagrees with profile rollup");
    }

    // -- geo routing ------------------------------------------------------

    use crate::geo::SiteMap;

    fn two_site_geo() -> Rc<GeoPlane> {
        let mut map = SiteMap::new();
        map.add_site("east");
        map.add_site("west");
        map.link("east", "west", Duration::from_millis(50), 1e9);
        GeoPlane::new(map)
    }

    #[test]
    fn geo_routing_prefers_the_nearest_site_and_spills_when_saturated() {
        let mut sim = Sim::new(50);
        let d = Dispatcher::new(DispatcherConfig {
            policy: Policy::RoundRobin,
            ..DispatcherConfig::default()
        });
        let geo = two_site_geo();
        geo.set_spill_threshold(1);
        geo.assign("e1", "east");
        geo.assign("w1", "west");
        d.set_geo(Rc::clone(&geo));
        let near = Echo::new("e1", 100);
        let far = Echo::new("w1", 100);
        d.add_backend(near.clone());
        d.add_backend(far.clone());
        geo.set_origin("east");
        for _ in 0..2 {
            d.submit(&mut sim, invoke(), Box::new(|_, r| assert!(r.is_ok())));
        }
        // first request fills east to the spill threshold; the second
        // spills to west instead of queueing cross-threshold at home
        assert_eq!((near.served.get(), far.served.get()), (1, 1));
        sim.run();
        d.submit(&mut sim, invoke(), Box::new(|_, r| assert!(r.is_ok())));
        sim.run();
        assert_eq!(
            (near.served.get(), far.served.get()),
            (2, 1),
            "an idle fleet routes home again"
        );
    }

    #[test]
    fn severed_sites_leave_rotation_and_an_all_dark_fleet_faults() {
        let mut sim = Sim::new(51);
        let d = Dispatcher::new(DispatcherConfig {
            policy: Policy::RoundRobin,
            ..DispatcherConfig::default()
        });
        let geo = two_site_geo();
        geo.assign("e1", "east");
        geo.assign("w1", "west");
        d.set_geo(Rc::clone(&geo));
        let east = Echo::new("e1", 5);
        let west = Echo::new("w1", 5);
        d.add_backend(east.clone());
        d.add_backend(west.clone());
        geo.set_origin("east");
        geo.add_outage("east", sim.now(), SimTime::from_secs(100));
        for _ in 0..3 {
            d.submit(&mut sim, invoke(), Box::new(|_, _| {}));
        }
        sim.run();
        assert_eq!(east.served.get(), 0, "no request enters the partition");
        assert_eq!(west.served.get(), 3);
        geo.add_outage("west", sim.now(), SimTime::from_secs(100));
        d.submit(&mut sim, invoke(), Box::new(|_, r| assert!(r.is_err())));
        sim.run();
        let c = d.counters();
        assert_eq!(c.faulted, 1, "all sites dark: the request fails fast");
        assert_eq!(c.completed, 3);
    }

    #[test]
    fn federation_forwards_pinned_work_and_the_pin_comes_home() {
        let mut sim = Sim::new(52);
        let d = Dispatcher::new(DispatcherConfig {
            policy: Policy::RoundRobin,
            affinity: Some(AffinityConfig::default()),
            ..DispatcherConfig::default()
        });
        let geo = two_site_geo();
        geo.set_federation(true);
        geo.assign("e1", "east");
        geo.assign("w1", "west");
        d.set_geo(Rc::clone(&geo));
        let east = Echo::new("e1", 5);
        let west = Echo::new("w1", 5);
        d.add_backend(east.clone());
        d.add_backend(west.clone());
        geo.set_origin("east");
        // first sight pins alice to her nearest site
        d.submit(&mut sim, invoke_as("alice"), Box::new(|_, r| assert!(r.is_ok())));
        sim.run();
        assert_eq!(east.served.get(), 1);
        // sever east mid-session: alice's work forwards to west, pin kept
        let outage_end = sim.now() + Duration::from_secs(60);
        geo.add_outage("east", sim.now(), outage_end);
        for _ in 0..2 {
            d.submit(&mut sim, invoke_as("alice"), Box::new(|_, r| assert!(r.is_ok())));
            sim.run();
        }
        assert_eq!(east.served.get(), 1);
        assert_eq!(west.served.get(), 2);
        let c = d.counters();
        assert_eq!(c.forwarded, 2, "both outage-window requests forwarded");
        assert_eq!(c.affinity_repins, 0, "forwarding never re-pins");
        assert_eq!(geo.counters().forwards, 2);
        // reconnect: the session comes home without a repin
        let d2 = Rc::clone(&d);
        sim.schedule((outage_end - sim.now()) + Duration::from_secs(1), move |sim| {
            d2.submit(sim, invoke_as("alice"), Box::new(|_, r| assert!(r.is_ok())));
        });
        sim.run();
        assert_eq!(east.served.get(), 2, "pin survived the outage");
        assert_eq!(d.counters().affinity_hits, 1, "the homecoming is a plain hit");
        assert_eq!(d.counters().affinity_misses, 1, "only the first sight misses");
    }

    #[test]
    fn cross_site_rendezvous_failover_prefers_home_peers_deterministically() {
        let run = || {
            let mut sim = Sim::new(53);
            let d = Dispatcher::new(DispatcherConfig {
                policy: Policy::RoundRobin,
                affinity: Some(AffinityConfig::default()),
                ..DispatcherConfig::default()
            });
            let geo = two_site_geo();
            for name in ["e1", "e2", "e3"] {
                geo.assign(name, "east");
            }
            geo.assign("w1", "west");
            d.set_geo(Rc::clone(&geo));
            let backends: Vec<Rc<Echo>> = ["e1", "e2", "e3", "w1"]
                .iter()
                .map(|n| Echo::new(n, 5))
                .collect();
            for b in &backends {
                d.add_backend(b.clone());
            }
            geo.set_origin("east");
            d.submit(&mut sim, invoke_as("bob"), Box::new(|_, r| assert!(r.is_ok())));
            sim.run();
            assert_eq!(backends[0].served.get(), 1, "rr pins bob to e1");
            // lose the pinned replica: the orphaned pin must reassign to a
            // *home-site* peer (e2/e3), never the cross-site w1
            assert!(d.eject_backend(&mut sim, "e1"));
            d.submit(&mut sim, invoke_as("bob"), Box::new(|_, r| assert!(r.is_ok())));
            sim.run();
            assert_eq!(backends[3].served.get(), 0, "west peer not chosen");
            assert_eq!(d.counters().affinity_repins, 1);
            backends
                .iter()
                .map(|b| b.served.get())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run(), "failover choice replays byte-identically");
    }

    #[test]
    fn park_site_defers_the_watchdog_past_reconnect() {
        let mut sim = Sim::new(54);
        let d = Dispatcher::new(DispatcherConfig {
            policy: Policy::RoundRobin,
            retry: Some(RetryConfig::default()),
            request_timeout: Some(Duration::from_secs(1)),
            ..DispatcherConfig::default()
        });
        let geo = two_site_geo();
        geo.set_federation(true);
        geo.assign("dead", "east");
        geo.assign("w1", "west");
        d.set_geo(Rc::clone(&geo));
        let hole = BlackHole::new("dead");
        let west = Echo::new("w1", 5);
        d.add_backend(hole.clone());
        d.add_backend(west.clone());
        geo.set_origin("east");
        let finished = Rc::new(Cell::new(simkit::SimTime::ZERO));
        let f = finished.clone();
        d.submit(
            &mut sim,
            invoke(),
            Box::new(move |sim, r| {
                assert!(r.is_ok(), "retried on the survivor after the park");
                f.set(sim.now());
            }),
        );
        // the site is severed with the request in flight; park re-arms the
        // 1 s watchdog to reconnect + 1 s instead of firing at +1 s
        let reconnect = sim.now() + Duration::from_secs(30);
        geo.add_outage("east", sim.now(), reconnect);
        assert_eq!(d.park_site(&mut sim, "east", reconnect), 1);
        sim.run();
        assert!(
            finished.get() >= reconnect,
            "watchdog waited out the outage: finished {:?}",
            finished.get()
        );
        assert_eq!(d.counters().ejected, 1, "silent backend still ejected");
        assert_eq!(west.served.get(), 1);
    }

    // -- per-tenant QoS -----------------------------------------------------

    fn qos_tiers(pairs: &[(&str, QosTier)]) -> BTreeMap<String, QosTier> {
        pairs.iter().map(|(t, w)| ((*t).to_owned(), *w)).collect()
    }

    /// Satellite-1 regression: the global admission gate sits ahead of
    /// the invoke/upload split, so a saturated door sheds uploads too.
    /// (Audit note: the gate at the top of `submit` covers both arms;
    /// `broadcast` has no other caller, so an upload can never reach the
    /// in_flight/accepted bookkeeping without passing the check.)
    #[test]
    fn upload_sheds_at_admission_limit() {
        let mut sim = Sim::new(60);
        let d = Dispatcher::new(DispatcherConfig {
            policy: Policy::RoundRobin,
            max_in_flight: 2,
            ..DispatcherConfig::default()
        });
        d.add_backend(Echo::new("a", 1000));
        // fill the window with slow invokes
        for _ in 0..2 {
            d.submit(&mut sim, invoke(), Box::new(|_, _| {}));
        }
        let upload_shed = Rc::new(Cell::new(false));
        let s = upload_shed.clone();
        d.submit(
            &mut sim,
            Request::Upload {
                file_name: "f.exe".into(),
                payload: onserve::deployment::synth_executable(64),
                profile: ExecutionProfile::quick(),
            },
            Box::new(move |_, r| s.set(r.is_err())),
        );
        sim.run();
        assert!(upload_shed.get(), "saturated door must shed the upload");
        let c = d.counters();
        assert_eq!(c.accepted, 2);
        assert_eq!(c.shed, 1);
        assert_eq!(c.completed, 2);
    }

    /// DRR grants backlogged tenants capacity in 4:2:1 tier-weight
    /// proportion, FIFO within each tenant.
    #[test]
    fn qos_drr_grants_by_tier_weight() {
        let mut sim = Sim::new(61);
        let d = Dispatcher::new(DispatcherConfig {
            policy: Policy::RoundRobin,
            max_in_flight: 1,
            ..DispatcherConfig::default()
        });
        d.set_qos(QosConfig {
            tiers: qos_tiers(&[
                ("gold", QosTier::Gold),
                ("std", QosTier::Standard),
                ("batch", QosTier::Batch),
            ]),
            ..QosConfig::default()
        });
        d.add_backend(Echo::new("a", 10));
        let order: Rc<RefCell<Vec<&'static str>>> = Rc::new(RefCell::new(Vec::new()));
        let mut feed = |tenant: &'static str, n: usize| {
            for _ in 0..n {
                let o = order.clone();
                d.submit(
                    &mut sim,
                    invoke_as(tenant),
                    Box::new(move |_, r| {
                        assert!(r.is_ok());
                        o.borrow_mut().push(tenant);
                    }),
                );
            }
        };
        // first gold request is admitted straight away; the rest queue
        // in ring order gold, std, batch
        feed("gold", 5);
        feed("std", 4);
        feed("batch", 3);
        sim.run();
        let got = order.borrow().clone();
        assert_eq!(
            got,
            vec![
                "gold", // admitted at the door
                "gold", "gold", "gold", "gold", // one full deficit round: weight 4
                "std", "std", // weight 2
                "batch", // weight 1
                "std", "std", // gold dry -> leftover backlog drains by weight
                "batch", "batch",
            ],
            "deficit round-robin must follow 4:2:1 tier weights"
        );
        let snap = d.qos_tenants();
        for (t, issued) in [("gold", 5), ("std", 4), ("batch", 3)] {
            let s = &snap[t];
            assert_eq!(s.issued, issued);
            assert_eq!(s.accepted, issued, "{t} all served");
            assert_eq!(s.shed, 0);
            assert_eq!(s.queued, 0);
            assert_eq!(s.in_flight, 0);
        }
    }

    /// A tenant's door queue is bounded: overflow sheds with per-tenant
    /// accounting and `issued == accepted + shed + queued` holds.
    #[test]
    fn qos_queue_bound_sheds_per_tenant() {
        let mut sim = Sim::new(62);
        let d = Dispatcher::new(DispatcherConfig {
            policy: Policy::RoundRobin,
            max_in_flight: 1,
            ..DispatcherConfig::default()
        });
        d.set_qos(QosConfig {
            queue_depth: 2,
            ..QosConfig::default()
        });
        d.add_backend(Echo::new("a", 50));
        let shed_seen = Rc::new(Cell::new(0u32));
        for _ in 0..5 {
            let s = shed_seen.clone();
            d.submit(
                &mut sim,
                invoke_as("alice"),
                Box::new(move |_, r| {
                    if r.is_err() {
                        s.set(s.get() + 1);
                    }
                }),
            );
        }
        // 1 admitted, 2 queued, 2 shed at the bound — check mid-flight
        {
            let snap = &d.qos_tenants()["alice"];
            assert_eq!(snap.issued, 5);
            assert_eq!(snap.accepted, 1);
            assert_eq!(snap.queued, 2);
            assert_eq!(snap.shed, 2);
            assert_eq!(snap.issued, snap.accepted + snap.shed + snap.queued as u64);
        }
        sim.run();
        let snap = &d.qos_tenants()["alice"];
        assert_eq!(snap.accepted, 3, "queued requests were granted");
        assert_eq!(snap.shed, 2);
        assert_eq!(snap.queued, 0);
        assert_eq!(shed_seen.get(), 2);
    }

    /// Losing the last replica flushes door queues as shed — each queued
    /// request counts exactly once, as shed, and the responder fires.
    #[test]
    fn qos_queued_then_shed_counts_once() {
        let mut sim = Sim::new(63);
        let d = Dispatcher::new(DispatcherConfig {
            policy: Policy::RoundRobin,
            max_in_flight: 1,
            ..DispatcherConfig::default()
        });
        d.set_qos(QosConfig::default());
        d.add_backend(Echo::new("a", 100));
        let (oks, errs) = (Rc::new(Cell::new(0u32)), Rc::new(Cell::new(0u32)));
        for _ in 0..3 {
            let (o, e) = (oks.clone(), errs.clone());
            d.submit(
                &mut sim,
                invoke_as("alice"),
                Box::new(move |_, r| match r {
                    Ok(_) => o.set(o.get() + 1),
                    Err(_) => e.set(e.get() + 1),
                }),
            );
        }
        // 1 in flight, 2 queued; drain the only replica out of rotation
        assert!(d.remove_backend(&mut sim, "a"));
        sim.run();
        assert_eq!(oks.get(), 1, "the in-flight request still completes");
        assert_eq!(errs.get(), 2, "both queued requests shed exactly once");
        let snap = &d.qos_tenants()["alice"];
        assert_eq!(snap.issued, 3);
        assert_eq!(snap.accepted, 1);
        assert_eq!(snap.shed, 2);
        assert_eq!(snap.queued, 0);
        assert_eq!(snap.in_flight, 0);
        assert_eq!(snap.issued, snap.accepted + snap.shed + snap.queued as u64);
    }

    /// With QoS on, anonymous invokes and uploads skip the tenant stage
    /// and use the plain global gate.
    #[test]
    fn qos_ignores_anonymous_and_upload_traffic() {
        let mut sim = Sim::new(64);
        let d = Dispatcher::new(DispatcherConfig::default());
        d.set_qos(QosConfig::default());
        d.add_backend(Echo::new("a", 10));
        d.submit(&mut sim, invoke(), Box::new(|_, r| assert!(r.is_ok())));
        d.submit(
            &mut sim,
            Request::Upload {
                file_name: "f.exe".into(),
                payload: onserve::deployment::synth_executable(64),
                profile: ExecutionProfile::quick(),
            },
            Box::new(|_, r| assert!(r.is_ok())),
        );
        sim.run();
        assert!(d.qos_tenants().is_empty(), "no tenant state for anonymous work");
        assert_eq!(d.counters().completed, 2);
    }
}
