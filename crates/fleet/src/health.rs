//! The fleet health plane: windowed metrics and gray-failure detection.
//!
//! A [`HealthPlane`] is a pure measurement facade over a
//! [`simkit::WindowedRegistry`]: the dispatcher feeds it one latency/error
//! sample per answered (or lost) attempt, a queue-depth sample per routed
//! attempt, and an in-flight/tenant sample per admitted request. Recording
//! is arithmetic only — no events, no randomness — so attaching a plane
//! leaves every run bit-for-bit identical.
//!
//! On top of it, [`GrayFailureDetector`] closes the loop on the failure
//! mode crashes cannot express: a replica that still answers, but slowly.
//! Each tick it scores every active replica *relative to its peers* — a
//! replica whose windowed p99 or error rate sustains ≥ k× the fleet median
//! accumulates strikes; at `probation_strikes` it is probation-weighted in
//! the dispatcher (probe traffic only), and at `eject_strikes` it is
//! ejected exactly like a crash, which lets the autoscaler's replace path
//! restore the capacity. A replica that returns to the pack has its
//! strikes cleared and its probation lifted.
//!
//! Peer-relative scoring is what makes the detector workload-proof: a
//! fleet-wide slowdown (overload, shared-storage contention) moves the
//! median with it and flags nobody; only an *outlier* is a gray failure.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::rc::Rc;

use simkit::{sanitize_metric_name, Duration, Sim, SimTime, WindowedId, WindowedRegistry};

use crate::fleet::Fleet;

/// Health-plane windowing and detector thresholds.
#[derive(Clone, Copy, Debug)]
pub struct HealthConfig {
    /// Width of one aggregation window.
    pub window: Duration,
    /// Windows retained per series; `window × ring` is the plane's memory.
    pub ring: usize,
    /// How far back detector queries look (should span several windows).
    pub lookback: Duration,
    /// Detector tick period.
    pub interval: Duration,
    /// A replica is a latency outlier when its windowed p99 is at least
    /// this many times the fleet median p99.
    pub latency_factor: f64,
    /// A replica is an error outlier when its windowed error rate is at
    /// least this many times the fleet median error rate…
    pub error_factor: f64,
    /// …and at least this absolute rate (so a lone error in a quiet
    /// window cannot flag anyone).
    pub error_floor: f64,
    /// Replicas with fewer samples than this in the lookback are not
    /// scored (freshly booted, or starved of traffic).
    pub min_samples: u64,
    /// Consecutive outlier ticks before probation-weighting.
    pub probation_strikes: u32,
    /// Consecutive outlier ticks before ejection (must exceed
    /// `probation_strikes`; probation is the intermediate state).
    pub eject_strikes: u32,
    /// Distinct per-tenant request series kept before further tenants
    /// fold into the `tenant.other.requests` overflow series. The QoS
    /// `fleet.tenant.<t>.*` series are capped the same, counted apart.
    /// Under either cap, a tenant whose series would sanitize onto a
    /// granted tenant's Prometheus family folds into `other` too.
    pub max_tenants: usize,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            window: Duration::from_secs(5),
            ring: 64,
            lookback: Duration::from_secs(30),
            interval: Duration::from_secs(5),
            latency_factor: 3.0,
            error_factor: 4.0,
            error_floor: 0.05,
            min_samples: 10,
            probation_strikes: 2,
            eject_strikes: 8,
            max_tenants: 64,
        }
    }
}

/// One replica's windowed health, as the detector sees it.
#[derive(Clone, Copy, Debug)]
pub struct ReplicaHealth {
    /// Latency samples inside the lookback.
    pub samples: u64,
    /// Windowed p99 latency, seconds.
    pub p99_s: f64,
    /// Errors ÷ samples inside the lookback.
    pub error_rate: f64,
}

/// One kind of owned series. A replica owns
/// `fleet.replica.<r>.{latency_us, errors, depth}`; a QoS tenant owns
/// `fleet.tenant.<t>.{latency_us, errors, queue_depth, accepted, shed}`;
/// a requesting tenant owns `tenant.<t>.requests`.
#[derive(Clone, Copy)]
enum Kind {
    Latency,
    Errors,
    Depth,
    QueueDepth,
    Accepted,
    Shed,
    Requests,
}

/// One owner's series ids, each `None` until that series' first sample.
type Slots = [Option<WindowedId>; 5];

impl Kind {
    /// Where the id sits among its owner's, the name suffix, and whether
    /// the series keeps a histogram.
    fn layout(self) -> (usize, &'static str, bool) {
        match self {
            Kind::Latency => (0, "latency_us", true),
            Kind::Errors => (1, "errors", false),
            Kind::Depth => (2, "depth", true),
            Kind::QueueDepth => (2, "queue_depth", true),
            Kind::Accepted => (3, "accepted", false),
            Kind::Shed => (4, "shed", false),
            Kind::Requests => (0, "requests", false),
        }
    }

    /// `owner`'s series of this kind, `<prefix><owner>.<suffix>`.
    fn id(
        self,
        reg: &mut WindowedRegistry,
        slots: &mut Slots,
        prefix: &str,
        owner: &str,
    ) -> WindowedId {
        let (slot, suffix, histogram) = self.layout();
        let name = || format!("{prefix}{owner}.{suffix}");
        resolve(reg, &mut slots[slot], histogram, name)
    }
}

/// The one resolve step: the id kept in `slot`, registering the series
/// `name()` on its first sample — never before, so a series appears in
/// the exposition exactly when it has something to say.
fn resolve(
    reg: &mut WindowedRegistry,
    slot: &mut Option<WindowedId>,
    histogram: bool,
    name: impl FnOnce() -> String,
) -> WindowedId {
    *slot.get_or_insert_with(|| {
        let name = name();
        if histogram {
            reg.histogram(&name)
        } else {
            reg.counter(&name)
        }
    })
}

/// Who a per-owner sample is about: a name, or a handle the caller keeps
/// for it — the dispatcher's replica id or admission tenant index — with
/// the name it stands for. A handle's first sample resolves its name, as
/// a named sample does; every later sample is an index, with no hash and
/// no string compare. A plane takes one caller's handles: a handle must
/// stand for the same name for the plane's lifetime.
#[derive(Clone, Copy, Debug)]
pub struct Owner<'a> {
    handle: Option<usize>,
    name: &'a str,
}

impl<'a> Owner<'a> {
    /// An owner resolved by name on every sample.
    pub fn named(name: &'a str) -> Owner<'a> {
        Owner { handle: None, name }
    }

    /// An owner known by a dense `handle` (small integers: the plane keeps
    /// a `Vec` indexed by them), which stands for `name`.
    pub fn handle(handle: usize, name: &'a str) -> Owner<'a> {
        Owner {
            handle: Some(handle),
            name,
        }
    }
}

/// A tenant cap: at most `max` tenants get series of their own; every
/// other tenant writes under `other` and leaves no entry of its own
/// behind (tenants are request principals — outside input).
struct Cap {
    max: usize,
    /// The sanitized `<prefix><tenant>` of every granted tenant: a
    /// newcomer whose series would land in a granted tenant's Prometheus
    /// family folds into `other` too.
    families: HashSet<String>,
}

/// The entry of `other`, where a capped tenant's samples go.
const OTHER: usize = 0;

/// A handle whose owner has not sampled yet.
const UNSEEN: usize = usize::MAX;

/// Series ids of named owners under one prefix, each owner's entry made
/// on its first sample.
struct Owners {
    prefix: &'static str,
    /// Each owner's name and series ids, in first-sample order after
    /// [`OTHER`].
    entries: Vec<(Box<str>, Slots)>,
    /// Owners with an entry of their own, by name.
    by_name: HashMap<Box<str>, usize>,
    /// Entry per handle, filled at the handle's first sample. A capped
    /// tenant's handle points at [`OTHER`]: one word per tenant the
    /// caller's own table already holds.
    by_handle: Vec<usize>,
    /// Tenants only; replicas are named by the fleet and never capped.
    cap: Option<Cap>,
}

impl Owners {
    fn new(prefix: &'static str, cap: Option<usize>) -> Owners {
        let cap = cap.map(|max| Cap {
            max,
            families: HashSet::new(),
        });
        Owners {
            prefix,
            entries: vec![("other".into(), Slots::default())],
            by_name: HashMap::new(),
            by_handle: Vec::new(),
            cap,
        }
    }

    /// `owner`'s `kind` series: an index once its handle has sampled, one
    /// hash lookup for a named owner.
    fn id(&mut self, reg: &mut WindowedRegistry, owner: Owner<'_>, kind: Kind) -> WindowedId {
        let entry = match owner.handle {
            Some(handle) => self.by_handle(handle, owner.name),
            None => self.by_name(owner.name),
        };
        let prefix = self.prefix;
        let (name, slots) = &mut self.entries[entry];
        kind.id(reg, slots, prefix, name)
    }

    /// The entry behind `handle`, resolved by `name` on its first sample.
    fn by_handle(&mut self, handle: usize, name: &str) -> usize {
        if let Some(&entry) = self.by_handle.get(handle).filter(|&&e| e != UNSEEN) {
            debug_assert!(
                entry == OTHER || *self.entries[entry].0 == *name,
                "handle {handle} stands for {name:?} and another owner"
            );
            return entry;
        }
        let entry = self.by_name(name);
        if self.by_handle.len() <= handle {
            self.by_handle.resize(handle + 1, UNSEEN);
        }
        self.by_handle[handle] = entry;
        entry
    }

    /// `name`'s entry, made on its first sample unless the cap folds it
    /// into [`OTHER`].
    fn by_name(&mut self, name: &str) -> usize {
        if let Some(&entry) = self.by_name.get(name) {
            return entry;
        }
        if let Some(cap) = &mut self.cap {
            let family = || sanitize_metric_name(&format!("{}{name}", self.prefix));
            if self.by_name.len() >= cap.max || !cap.families.insert(family()) {
                return OTHER;
            }
        }
        let entry = self.entries.len();
        self.entries.push((name.into(), Slots::default()));
        self.by_name.insert(name.into(), entry);
        entry
    }

    /// The series ids of the owner called `name`, if it has an entry of
    /// its own.
    fn slots_of(&self, name: &str) -> Option<&Slots> {
        let &entry = self.by_name.get(name)?;
        Some(&self.entries[entry].1)
    }
}

/// Every series id the plane has resolved.
struct Ids {
    attempt_latency: Option<WindowedId>,
    in_flight: Option<WindowedId>,
    queue_depth: Option<WindowedId>,
    replicas: Owners,
    /// `tenant.<t>.requests`, capped at [`HealthConfig::max_tenants`].
    tenants: Owners,
    /// `fleet.tenant.<t>.*`, capped separately. Only written while the
    /// dispatcher's QoS stage is on — QoS-off runs emit no
    /// `tenant="..."`-labeled series and stay byte-identical.
    qos: Owners,
}

/// Replica → label key → value: the labels every per-replica series of
/// that replica carries in the Prometheus exposition.
type Tags = BTreeMap<String, BTreeMap<&'static str, String>>;

/// Per-replica latency/error/queue and per-tenant request series on the
/// virtual clock. Create once, attach via
/// [`crate::Dispatcher::set_health_plane`].
///
/// Each series name is formatted once, at the series' first sample; the
/// plane keeps its id, so a later sample costs one hash lookup — or, for
/// an [`Owner`] with a handle, one index.
pub struct HealthPlane {
    cfg: HealthConfig,
    reg: RefCell<WindowedRegistry>,
    ids: RefCell<Ids>,
    /// Per-replica labels (`site` from [`crate::Fleet::attach_geo`],
    /// `version` from activation). Labels render in key order whatever
    /// order they were tagged in; an empty table (the default) leaves the
    /// exposition unlabeled.
    tags: RefCell<Tags>,
}

impl HealthPlane {
    /// New, empty plane.
    pub fn new(cfg: HealthConfig) -> Rc<HealthPlane> {
        assert!(
            cfg.eject_strikes > cfg.probation_strikes,
            "eject_strikes must exceed probation_strikes"
        );
        let ids = Ids {
            attempt_latency: None,
            in_flight: None,
            queue_depth: None,
            replicas: Owners::new("fleet.replica.", None),
            tenants: Owners::new("tenant.", Some(cfg.max_tenants)),
            qos: Owners::new("fleet.tenant.", Some(cfg.max_tenants)),
        };
        Rc::new(HealthPlane {
            reg: RefCell::new(WindowedRegistry::new(cfg.window, cfg.ring)),
            ids: RefCell::new(ids),
            tags: RefCell::new(BTreeMap::new()),
            cfg,
        })
    }

    /// Tag `replica`'s per-replica series with its geo site: every
    /// `fleet_replica_<name>_*` sample in the Prometheus exposition gains
    /// a `site="<site>"` label. Idempotent; called by
    /// [`crate::Fleet::attach_geo`] and on every later replica activation.
    pub fn set_site(&self, replica: &str, site: &str) {
        self.tag(replica, "site", site);
    }

    /// Tag `replica`'s per-replica series with the artifact version it
    /// serves: every `fleet_replica_<name>_*` sample gains a
    /// `version="vN"` label. Idempotent; re-tagged when a rollout boots
    /// a replacement at a newer version.
    pub fn set_version(&self, replica: &str, version: &str) {
        self.tag(replica, "version", version);
    }

    /// Set (or replace) the `key` label of `replica`'s per-replica series.
    fn tag(&self, replica: &str, key: &'static str, value: &str) {
        self.tags
            .borrow_mut()
            .entry(replica.to_owned())
            .or_default()
            .insert(key, value.to_owned());
    }

    /// The active thresholds.
    pub fn config(&self) -> &HealthConfig {
        &self.cfg
    }

    /// Record `v` at `now` into the series `pick` resolves.
    fn record(
        &self,
        now: SimTime,
        v: u64,
        pick: impl FnOnce(&mut WindowedRegistry, &mut Ids) -> WindowedId,
    ) {
        let mut reg = self.reg.borrow_mut();
        let id = pick(&mut reg, &mut self.ids.borrow_mut());
        reg.record(id, now, v);
    }

    /// One finished attempt on `replica`: its latency (and whether it was
    /// an error) lands in the replica's series and the fleet-wide series.
    pub fn record_attempt(&self, now: SimTime, replica: &str, latency: Duration, error: bool) {
        self.attempt(now, Owner::named(replica), latency, error);
    }

    /// [`HealthPlane::record_attempt`] for an [`Owner`].
    pub fn attempt(&self, now: SimTime, replica: Owner<'_>, latency: Duration, error: bool) {
        let micros = latency.ticks().max(1);
        self.record(now, micros, |reg, ids| {
            ids.replicas.id(reg, replica, Kind::Latency)
        });
        self.record(now, micros, |reg, ids| {
            let name = || "fleet.attempt_latency_us".into();
            resolve(reg, &mut ids.attempt_latency, true, name)
        });
        if error {
            self.record(now, 1, |reg, ids| {
                ids.replicas.id(reg, replica, Kind::Errors)
            });
        }
    }

    /// Outstanding-attempt depth on `replica` right after an attempt was
    /// routed to it.
    pub fn record_depth(&self, now: SimTime, replica: &str, depth: u64) {
        self.depth(now, Owner::named(replica), depth);
    }

    /// [`HealthPlane::record_depth`] for an [`Owner`].
    pub fn depth(&self, now: SimTime, replica: Owner<'_>, depth: u64) {
        self.record(now, depth, |reg, ids| {
            ids.replicas.id(reg, replica, Kind::Depth)
        });
    }

    /// One admitted front-door request: fleet-wide in-flight and queued
    /// depth, plus the requesting tenant (capped at
    /// [`HealthConfig::max_tenants`] distinct series; the overflow folds
    /// into `tenant.other.requests`).
    pub fn record_submit(&self, now: SimTime, in_flight: u64, queued: u64, tenant: Option<&str>) {
        self.submit(now, in_flight, queued, tenant.map(Owner::named));
    }

    /// [`HealthPlane::record_submit`] for an [`Owner`].
    pub fn submit(&self, now: SimTime, in_flight: u64, queued: u64, tenant: Option<Owner<'_>>) {
        self.record(now, in_flight, |reg, ids| {
            let name = || "dispatcher.in_flight".into();
            resolve(reg, &mut ids.in_flight, true, name)
        });
        self.record(now, queued, |reg, ids| {
            let name = || "dispatcher.queue_depth".into();
            resolve(reg, &mut ids.queue_depth, true, name)
        });
        if let Some(t) = tenant {
            self.record(now, 1, |reg, ids| ids.tenants.id(reg, t, Kind::Requests));
        }
    }

    /// `replica`'s windowed health over the configured lookback; `None`
    /// when it has produced no latency sample in the lookback.
    pub fn replica_health(&self, now: SimTime, replica: &str) -> Option<ReplicaHealth> {
        let (reg, ids) = (self.reg.borrow(), self.ids.borrow());
        let [latency, errors, ..] = *ids.replicas.slots_of(replica)?;
        let agg = reg.range(latency?, now, self.cfg.lookback);
        if agg.count() == 0 {
            return None;
        }
        let errors = errors.map_or(0, |id| reg.range(id, now, self.cfg.lookback).sum());
        Some(ReplicaHealth {
            samples: agg.count(),
            p99_s: agg.quantile(0.99) / 1e6,
            error_rate: errors as f64 / agg.count() as f64,
        })
    }

    /// Fleet-wide windowed p99 attempt latency (seconds) over the
    /// configured lookback; `None` before any attempt finished.
    pub fn fleet_p99(&self, now: SimTime) -> Option<f64> {
        let id = self.ids.borrow().attempt_latency?;
        let agg = self.reg.borrow().range(id, now, self.cfg.lookback);
        (agg.count() > 0).then(|| agg.quantile(0.99) / 1e6)
    }

    /// One request admitted past the QoS stage for `tenant`.
    pub fn record_tenant_accepted(&self, now: SimTime, tenant: &str) {
        self.tenant_accepted(now, Owner::named(tenant));
    }

    /// [`HealthPlane::record_tenant_accepted`] for an [`Owner`].
    pub fn tenant_accepted(&self, now: SimTime, tenant: Owner<'_>) {
        self.record(now, 1, |reg, ids| ids.qos.id(reg, tenant, Kind::Accepted));
    }

    /// One request shed at the QoS stage (quota + queue full, or no
    /// replicas) for `tenant`.
    pub fn record_tenant_shed(&self, now: SimTime, tenant: &str) {
        self.tenant_shed(now, Owner::named(tenant));
    }

    /// [`HealthPlane::record_tenant_shed`] for an [`Owner`].
    pub fn tenant_shed(&self, now: SimTime, tenant: Owner<'_>) {
        self.record(now, 1, |reg, ids| ids.qos.id(reg, tenant, Kind::Shed));
    }

    /// `tenant`'s door-queue depth right after one of its requests was
    /// queued.
    pub fn record_tenant_queue_depth(&self, now: SimTime, tenant: &str, depth: u64) {
        self.tenant_queue_depth(now, Owner::named(tenant), depth);
    }

    /// [`HealthPlane::record_tenant_queue_depth`] for an [`Owner`].
    pub fn tenant_queue_depth(&self, now: SimTime, tenant: Owner<'_>, depth: u64) {
        self.record(now, depth, |reg, ids| {
            ids.qos.id(reg, tenant, Kind::QueueDepth)
        });
    }

    /// One finished QoS-admitted request for `tenant`: door-to-answer
    /// latency (including any time spent queued at the door).
    pub fn record_tenant_latency(&self, now: SimTime, tenant: &str, latency: Duration, error: bool) {
        self.tenant_latency(now, Owner::named(tenant), latency, error);
    }

    /// [`HealthPlane::record_tenant_latency`] for an [`Owner`].
    pub fn tenant_latency(&self, now: SimTime, tenant: Owner<'_>, latency: Duration, error: bool) {
        let micros = latency.ticks().max(1);
        self.record(now, micros, |reg, ids| {
            ids.qos.id(reg, tenant, Kind::Latency)
        });
        if error {
            self.record(now, 1, |reg, ids| ids.qos.id(reg, tenant, Kind::Errors));
        }
    }

    /// Prometheus text exposition of every series at `now`. Per-replica
    /// series carry a `site` label when the replica was tagged with
    /// [`HealthPlane::set_site`] and a `version` label when tagged with
    /// [`HealthPlane::set_version`]; with no tags the output is
    /// byte-identical to the unlabeled format.
    pub fn prometheus_text(&self, now: SimTime) -> String {
        exposition(&self.reg.borrow(), &self.tags.borrow(), now)
    }

    /// Full time-series CSV dump (one row per non-empty window).
    pub fn timeseries_csv(&self) -> String {
        self.reg.borrow().timeseries_csv()
    }
}

/// `reg`'s Prometheus exposition at `now`: QoS series labeled with their
/// tenant, per-replica series with the replica's `tags`.
fn exposition(reg: &WindowedRegistry, tags: &Tags, now: SimTime) -> String {
    reg.prometheus_text_multi_labeled(now, |name| {
        if let Some(rest) = name.strip_prefix("fleet.tenant.") {
            // suffixes (accepted/shed/queue_depth/latency_us/errors)
            // carry no dot, so the last dot ends the tenant name
            let Some((tenant, _)) = rest.rsplit_once('.') else {
                return Vec::new();
            };
            return vec![("tenant".to_owned(), tenant.to_owned())];
        }
        let Some(rest) = name.strip_prefix("fleet.replica.") else {
            return Vec::new();
        };
        let Some((replica, _)) = rest.split_once('.') else {
            return Vec::new();
        };
        let labels = tags.get(replica).into_iter().flatten();
        labels.map(|(k, v)| ((*k).to_owned(), v.clone())).collect()
    })
}

/// What the detector did about a replica.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DetectorAction {
    /// Sustained outlier: probation-weighted in the dispatcher.
    Probation,
    /// Back with the pack: probation lifted, strikes reset.
    Cleared,
    /// Outlier through `eject_strikes`: ejected like a crash.
    Ejected,
}

/// One timestamped detector decision, for tests and reports.
#[derive(Clone, Debug)]
pub struct DetectorEvent {
    /// When the decision was taken.
    pub at: SimTime,
    /// The replica acted on.
    pub replica: String,
    /// What was done.
    pub action: DetectorAction,
    /// The replica's windowed p99 (seconds) at decision time.
    pub p99_s: f64,
    /// The fleet median p99 (seconds) at decision time.
    pub median_p99_s: f64,
}

/// Peer-relative gray-failure detector; create with
/// [`GrayFailureDetector::install`].
pub struct GrayFailureDetector {
    fleet: Rc<Fleet>,
    plane: Rc<HealthPlane>,
    /// Consecutive outlier ticks per replica (BTreeMap: deterministic
    /// iteration, though decisions are driven by the fleet's name order).
    strikes: RefCell<BTreeMap<String, u32>>,
    events: RefCell<Vec<DetectorEvent>>,
    stopped: Cell<bool>,
}

impl GrayFailureDetector {
    /// Start scoring every `plane.config().interval` until `until`
    /// (virtual time). The plane should already be attached to the
    /// fleet's dispatcher, or there will be nothing to score.
    pub fn install(
        sim: &mut Sim,
        fleet: &Rc<Fleet>,
        plane: &Rc<HealthPlane>,
        until: SimTime,
    ) -> Rc<GrayFailureDetector> {
        let det = Rc::new(GrayFailureDetector {
            fleet: Rc::clone(fleet),
            plane: Rc::clone(plane),
            strikes: RefCell::new(BTreeMap::new()),
            events: RefCell::new(Vec::new()),
            stopped: Cell::new(false),
        });
        GrayFailureDetector::arm(sim, Rc::clone(&det), until);
        det
    }

    /// Stop the loop (takes effect at the next tick).
    pub fn stop(&self) {
        self.stopped.set(true);
    }

    /// Every decision taken so far, in order.
    pub fn events(&self) -> Vec<DetectorEvent> {
        self.events.borrow().clone()
    }

    /// Probation decisions so far.
    pub fn probations(&self) -> usize {
        self.count(DetectorAction::Probation)
    }

    /// Ejection decisions so far.
    pub fn ejections(&self) -> usize {
        self.count(DetectorAction::Ejected)
    }

    fn count(&self, action: DetectorAction) -> usize {
        self.events
            .borrow()
            .iter()
            .filter(|e| e.action == action)
            .count()
    }

    fn arm(sim: &mut Sim, det: Rc<GrayFailureDetector>, until: SimTime) {
        let interval = det.plane.cfg.interval;
        if sim.now() + interval > until {
            return;
        }
        sim.schedule(interval, move |sim| {
            if det.stopped.get() {
                return;
            }
            det.tick(sim);
            GrayFailureDetector::arm(sim, Rc::clone(&det), until);
        });
    }

    fn tick(self: &Rc<Self>, sim: &mut Sim) {
        let cfg = self.plane.cfg;
        let now = sim.now();
        let names = self.fleet.active_replica_names();
        // score only replicas with enough recent traffic
        let stats: Vec<(String, ReplicaHealth)> = names
            .iter()
            .filter_map(|n| {
                self.plane
                    .replica_health(now, n)
                    .filter(|h| h.samples >= cfg.min_samples)
                    .map(|h| (n.clone(), h))
            })
            .collect();
        // forget strikes for replicas that left the fleet (crashed,
        // drained, or already ejected by us)
        self.strikes
            .borrow_mut()
            .retain(|name, _| names.iter().any(|n| n == name));
        let mut decisions: Vec<DetectorEvent> = Vec::new();
        // Unanswered probes: a replica already on probation that cannot
        // even produce `min_samples` completions in the lookback is worse
        // than a slow outlier — its probe traffic is going in and nothing
        // is coming out. That earns a strike without peer stats (a replica
        // so degraded it answers slower than the lookback would otherwise
        // stall on probation forever).
        {
            let mut strikes = self.strikes.borrow_mut();
            for name in &names {
                if stats.iter().any(|(n, _)| n == name) {
                    continue;
                }
                let Some(s) = strikes.get_mut(name) else {
                    continue;
                };
                if *s >= cfg.probation_strikes {
                    *s += 1;
                    if *s == cfg.eject_strikes {
                        decisions.push(DetectorEvent {
                            at: now,
                            replica: name.clone(),
                            action: DetectorAction::Ejected,
                            p99_s: f64::INFINITY, // no completion to measure
                            median_p99_s: 0.0,
                        });
                    }
                }
            }
        }
        if stats.len() < 2 {
            // peer-relative scoring needs peers; apply what we have
            self.apply(sim, decisions);
            return;
        }
        // lower medians: with half the fleet degraded the reference still
        // sits on a healthy replica
        let median_p99 = lower_median(stats.iter().map(|(_, h)| h.p99_s));
        let median_err = lower_median(stats.iter().map(|(_, h)| h.error_rate));
        {
            let mut strikes = self.strikes.borrow_mut();
            for (name, h) in &stats {
                let lat_outlier = median_p99 > 0.0 && h.p99_s >= cfg.latency_factor * median_p99;
                let err_outlier = h.error_rate >= cfg.error_floor
                    && h.error_rate >= cfg.error_factor * median_err.max(1e-9);
                let s = strikes.entry(name.clone()).or_insert(0);
                if !(lat_outlier || err_outlier) {
                    if *s >= cfg.probation_strikes {
                        decisions.push(DetectorEvent {
                            at: now,
                            replica: name.clone(),
                            action: DetectorAction::Cleared,
                            p99_s: h.p99_s,
                            median_p99_s: median_p99,
                        });
                    }
                    *s = 0;
                    continue;
                }
                *s += 1;
                let action = if *s == cfg.probation_strikes {
                    Some(DetectorAction::Probation)
                } else if *s == cfg.eject_strikes {
                    Some(DetectorAction::Ejected)
                } else {
                    None
                };
                if let Some(action) = action {
                    decisions.push(DetectorEvent {
                        at: now,
                        replica: name.clone(),
                        action,
                        p99_s: h.p99_s,
                        median_p99_s: median_p99,
                    });
                }
            }
        }
        self.apply(sim, decisions);
    }

    /// Carry out this tick's decisions (with no internal borrows held:
    /// ejection re-enters the dispatcher and the fleet).
    fn apply(self: &Rc<Self>, sim: &mut Sim, decisions: Vec<DetectorEvent>) {
        for d in &decisions {
            match d.action {
                DetectorAction::Probation => {
                    self.fleet.dispatcher().set_probation(&d.replica, true);
                    sim.counter_add("health.probation", 1);
                }
                DetectorAction::Cleared => {
                    self.fleet.dispatcher().set_probation(&d.replica, false);
                    sim.counter_add("health.cleared", 1);
                }
                DetectorAction::Ejected => {
                    sim.counter_add("health.ejected", 1);
                    self.fleet.crash_replica(sim, &d.replica);
                    self.strikes.borrow_mut().remove(&d.replica);
                }
            }
        }
        self.events.borrow_mut().extend(decisions);
    }
}

/// The lower median: element at index `(n-1)/2` of the sorted values.
pub(crate) fn lower_median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(|a, b| a.partial_cmp(b).expect("health stats are never NaN"));
    v[(v.len() - 1) / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lower_median_prefers_the_healthy_side() {
        assert_eq!(lower_median([1.0, 10.0].into_iter()), 1.0);
        assert_eq!(lower_median([1.0, 2.0, 10.0].into_iter()), 2.0);
        assert_eq!(lower_median([5.0].into_iter()), 5.0);
    }

    #[test]
    fn plane_records_and_queries_replica_health() {
        let cfg = HealthConfig {
            min_samples: 5,
            ..HealthConfig::default()
        };
        let plane = HealthPlane::new(cfg);
        let mut t = SimTime::from_secs(0);
        for i in 0..20 {
            t = SimTime::from_secs_f64(0.1 * (i + 1) as f64);
            plane.record_attempt(t, "replica0", Duration::from_millis(10), false);
            plane.record_attempt(t, "replica1", Duration::from_millis(200), i % 2 == 0);
        }
        let h0 = plane.replica_health(t, "replica0").expect("has samples");
        let h1 = plane.replica_health(t, "replica1").expect("has samples");
        assert_eq!(h0.samples, 20);
        assert_eq!(h0.error_rate, 0.0);
        assert!(h0.p99_s < h1.p99_s, "slow replica has the higher p99");
        assert!(h1.p99_s >= 0.128 && h1.p99_s < 0.256, "p99 in the 200ms bucket");
        assert!((h1.error_rate - 0.5).abs() < 1e-9);
        assert!(plane.replica_health(t, "ghost").is_none());
        let fleet = plane.fleet_p99(t).expect("fleet series exists");
        assert!(fleet > h0.p99_s / 2.0, "fleet p99 dominated by the slow half");
    }

    #[test]
    fn tenant_series_cap_folds_into_other() {
        let cfg = HealthConfig {
            max_tenants: 2,
            ..HealthConfig::default()
        };
        let plane = HealthPlane::new(cfg);
        let t = SimTime::from_secs(1);
        for tenant in ["alice", "bob", "carol", "dave", "alice"] {
            plane.record_submit(t, 1, 1, Some(tenant));
        }
        let csv = plane.timeseries_csv();
        assert!(csv.contains("tenant.alice.requests"));
        assert!(csv.contains("tenant.bob.requests"));
        assert!(!csv.contains("tenant.carol.requests"));
        assert!(csv.contains("tenant.other.requests"));
    }

    #[test]
    fn tenant_caches_stay_bounded_by_the_cap_under_a_flood_of_principals() {
        let plane = HealthPlane::new(HealthConfig::default());
        let t = SimTime::from_secs(1);
        for i in 0..10_000 {
            let tenant = format!("principal{i}");
            plane.record_submit(t, 1, 0, Some(&tenant));
            plane.record_tenant_accepted(t, &tenant);
        }
        let ids = plane.ids.borrow();
        let cap = plane.config().max_tenants;
        for owners in [&ids.tenants, &ids.qos] {
            assert_eq!(owners.by_name.len(), cap);
            assert_eq!(owners.cap.as_ref().map(|c| c.families.len()), Some(cap));
        }
        let csv = plane.timeseries_csv();
        assert!(csv.contains(&format!("tenant.other.requests,0,{},", 10_000 - cap)));
    }

    #[test]
    fn exposition_snapshot_is_strictly_valid() {
        let plane = HealthPlane::new(HealthConfig::default());
        let t = SimTime::from_secs(3);
        plane.record_attempt(t, "replica0", Duration::from_millis(7), false);
        plane.record_attempt(t, "replica0", Duration::from_millis(9), true);
        plane.record_submit(t, 2, 3, Some("alice"));
        let text = plane.prometheus_text(t);
        let (families, samples) =
            simkit::validate_prometheus_text(&text).expect("snapshot parses strictly");
        assert!(families >= 5, "got {families} families:\n{text}");
        assert!(samples > families, "summaries expose multiple samples");
    }

    #[test]
    fn site_labels_tag_per_replica_series_and_still_validate() {
        let plane = HealthPlane::new(HealthConfig::default());
        let t = SimTime::from_secs(3);
        plane.record_attempt(t, "replica0", Duration::from_millis(7), false);
        plane.record_attempt(t, "replica0", Duration::from_millis(9), true);
        plane.record_attempt(t, "replica1", Duration::from_millis(5), false);
        plane.record_submit(t, 2, 3, Some("alice"));
        let untagged = plane.prometheus_text(t);
        assert!(
            !untagged.contains("site="),
            "no tags, no labels:\n{untagged}"
        );

        plane.set_site("replica0", "east");
        let text = plane.prometheus_text(t);
        simkit::validate_prometheus_text(&text).expect("labeled snapshot parses strictly");
        assert!(
            text.contains(r#"fleet_replica_replica0_latency_us{quantile="0.5",site="east"}"#),
            "quantile series carry the site label:\n{text}"
        );
        assert!(
            text.contains(r#"fleet_replica_replica0_latency_us_sum{site="east"}"#),
            "summary _sum carries the site label:\n{text}"
        );
        assert!(
            text.contains(r#"fleet_replica_replica0_errors{site="east"}"#),
            "counters carry the site label:\n{text}"
        );
        // replicas with no placement and fleet-wide series stay label-free
        assert!(text.contains(r#"fleet_replica_replica1_latency_us{quantile="0.5"}"#));
        assert!(!text.contains(r#"fleet_attempt_latency_us{quantile="0.5",site="#));
    }

    #[test]
    fn version_labels_compose_with_site_labels() {
        let plane = HealthPlane::new(HealthConfig::default());
        let t = SimTime::from_secs(3);
        plane.record_attempt(t, "replica0", Duration::from_millis(7), false);
        plane.record_attempt(t, "replica1", Duration::from_millis(5), false);
        plane.record_submit(t, 2, 3, Some("alice"));

        // version alone
        plane.set_version("replica1", "v2");
        let text = plane.prometheus_text(t);
        simkit::validate_prometheus_text(&text).expect("version-labeled snapshot parses");
        assert!(
            text.contains(r#"fleet_replica_replica1_latency_us{quantile="0.5",version="v2"}"#),
            "quantile series carry the version label:\n{text}"
        );

        // site + version together, in site-then-version order
        plane.set_site("replica0", "east");
        plane.set_version("replica0", "v1");
        let text = plane.prometheus_text(t);
        simkit::validate_prometheus_text(&text).expect("two-label snapshot parses");
        assert!(
            text.contains(
                r#"fleet_replica_replica0_latency_us{quantile="0.5",site="east",version="v1"}"#
            ),
            "both labels render on one series:\n{text}"
        );
        assert!(
            text.contains(r#"fleet_replica_replica0_latency_us_sum{site="east",version="v1"}"#),
            "summary _sum carries both labels:\n{text}"
        );
        // fleet-wide series never pick up per-replica labels
        assert!(!text.contains(r#"fleet_attempt_latency_us{quantile="0.5",version="#));
    }

    #[test]
    fn tags_render_in_key_order_whatever_the_tagging_order() {
        let plane = HealthPlane::new(HealthConfig::default());
        let t = SimTime::from_secs(3);
        plane.record_attempt(t, "replica0", Duration::from_millis(7), false);
        plane.record_attempt(t, "replica1", Duration::from_millis(5), false);
        let untagged = plane.prometheus_text(t);
        assert_eq!(untagged, plane.reg.borrow().prometheus_text(t), "no tags: the bare registry");

        // `Fleet::activate` tags version before site; `attach_geo` on a
        // running fleet tags site first — same label set either way
        plane.set_version("replica0", "v1");
        plane.set_site("replica0", "east");
        plane.set_site("replica1", "east");
        plane.set_version("replica1", "v1");
        let text = plane.prometheus_text(t);
        for replica in ["replica0", "replica1"] {
            let sum = format!(r#"fleet_replica_{replica}_latency_us_sum{{site="east",version="v1"}}"#);
            assert!(text.contains(&sum), "{replica} renders site then version:\n{text}");
        }

        // re-tagging replaces the value and adds no second label
        plane.set_version("replica1", "v2");
        let text = plane.prometheus_text(t);
        simkit::validate_prometheus_text(&text).expect("re-tagged snapshot parses");
        assert!(text.contains(r#"fleet_replica_replica1_latency_us_sum{site="east",version="v2"}"#));
        assert!(text.contains(r#"fleet_replica_replica0_latency_us_sum{site="east",version="v1"}"#));
    }

    #[test]
    fn hostile_tenant_names_are_escaped_in_the_exposition() {
        // a tenant is a request principal: outside input
        let plane = HealthPlane::new(HealthConfig::default());
        let t = SimTime::from_secs(3);
        for tenant in ["a\"b", "x\ny", "back\\slash"] {
            plane.record_tenant_accepted(t, tenant);
            plane.record_tenant_latency(t, tenant, Duration::from_millis(4), false);
        }
        let text = plane.prometheus_text(t);
        simkit::validate_prometheus_text(&text).expect("hostile tenants still parse strictly");
        for escaped in [r#"a\"b"#, r"x\ny", r"back\\slash"] {
            let accepted = format!("_accepted{{tenant=\"{escaped}\"}} 1\n");
            assert_eq!(text.matches(&accepted).count(), 1, "{escaped:?} in:\n{text}");
        }
    }
}

/// The health plane's recorder as it was before series ids were kept:
/// every sample formats its series name and looks it up in the registry,
/// and the two tenant caps are a counter and a name set. Kept as an
/// executable reference, so the equivalence property below can hold the
/// id-keeping plane to it byte for byte.
#[cfg(test)]
mod name_model {
    use std::cell::{Cell, RefCell};
    use std::collections::{BTreeMap, BTreeSet};

    use simkit::{Duration, SimTime, WindowedRegistry};

    use super::{HealthConfig, ReplicaHealth};

    /// [`super::HealthPlane`]'s recording and queries, as they were.
    pub struct NamePlane {
        cfg: HealthConfig,
        reg: RefCell<WindowedRegistry>,
        tenants: Cell<usize>,
        qos_tenants: RefCell<BTreeSet<String>>,
    }

    impl NamePlane {
        pub fn new(cfg: HealthConfig) -> NamePlane {
            NamePlane {
                reg: RefCell::new(WindowedRegistry::new(cfg.window, cfg.ring)),
                tenants: Cell::new(0),
                qos_tenants: RefCell::new(BTreeSet::new()),
                cfg,
            }
        }

        pub fn record_attempt(&self, now: SimTime, replica: &str, latency: Duration, error: bool) {
            let micros = latency.ticks().max(1);
            let mut reg = self.reg.borrow_mut();
            let lat = reg.histogram(&format!("fleet.replica.{replica}.latency_us"));
            reg.record(lat, now, micros);
            let fleet_lat = reg.histogram("fleet.attempt_latency_us");
            reg.record(fleet_lat, now, micros);
            if error {
                let err = reg.counter(&format!("fleet.replica.{replica}.errors"));
                reg.record(err, now, 1);
            }
        }

        pub fn record_depth(&self, now: SimTime, replica: &str, depth: u64) {
            let mut reg = self.reg.borrow_mut();
            let id = reg.histogram(&format!("fleet.replica.{replica}.depth"));
            reg.record(id, now, depth);
        }

        pub fn record_submit(
            &self,
            now: SimTime,
            in_flight: u64,
            queued: u64,
            tenant: Option<&str>,
        ) {
            let mut reg = self.reg.borrow_mut();
            let inf = reg.histogram("dispatcher.in_flight");
            reg.record(inf, now, in_flight);
            let q = reg.histogram("dispatcher.queue_depth");
            reg.record(q, now, queued);
            if let Some(t) = tenant {
                let name = format!("tenant.{t}.requests");
                let known = reg.series(&name).is_some();
                let id = if known {
                    reg.counter(&name)
                } else if self.tenants.get() < self.cfg.max_tenants {
                    self.tenants.set(self.tenants.get() + 1);
                    reg.counter(&name)
                } else {
                    reg.counter("tenant.other.requests")
                };
                reg.record(id, now, 1);
            }
        }

        pub fn replica_health(&self, now: SimTime, replica: &str) -> Option<ReplicaHealth> {
            let reg = self.reg.borrow();
            let lat = reg.series(&format!("fleet.replica.{replica}.latency_us"))?;
            let agg = lat.range(now, self.cfg.lookback);
            if agg.count() == 0 {
                return None;
            }
            let errors = reg
                .series(&format!("fleet.replica.{replica}.errors"))
                .map(|s| s.range(now, self.cfg.lookback).sum())
                .unwrap_or(0);
            Some(ReplicaHealth {
                samples: agg.count(),
                p99_s: agg.quantile(0.99) / 1e6,
                error_rate: errors as f64 / agg.count() as f64,
            })
        }

        pub fn fleet_p99(&self, now: SimTime) -> Option<f64> {
            let reg = self.reg.borrow();
            let s = reg.series("fleet.attempt_latency_us")?;
            let agg = s.range(now, self.cfg.lookback);
            (agg.count() > 0).then(|| agg.quantile(0.99) / 1e6)
        }

        fn qos_key(&self, tenant: &str) -> String {
            let mut known = self.qos_tenants.borrow_mut();
            if known.contains(tenant) {
                tenant.to_owned()
            } else if known.len() < self.cfg.max_tenants {
                known.insert(tenant.to_owned());
                tenant.to_owned()
            } else {
                "other".to_owned()
            }
        }

        pub fn record_tenant_accepted(&self, now: SimTime, tenant: &str) {
            let key = self.qos_key(tenant);
            let mut reg = self.reg.borrow_mut();
            let id = reg.counter(&format!("fleet.tenant.{key}.accepted"));
            reg.record(id, now, 1);
        }

        pub fn record_tenant_shed(&self, now: SimTime, tenant: &str) {
            let key = self.qos_key(tenant);
            let mut reg = self.reg.borrow_mut();
            let id = reg.counter(&format!("fleet.tenant.{key}.shed"));
            reg.record(id, now, 1);
        }

        pub fn record_tenant_queue_depth(&self, now: SimTime, tenant: &str, depth: u64) {
            let key = self.qos_key(tenant);
            let mut reg = self.reg.borrow_mut();
            let id = reg.histogram(&format!("fleet.tenant.{key}.queue_depth"));
            reg.record(id, now, depth);
        }

        pub fn record_tenant_latency(
            &self,
            now: SimTime,
            tenant: &str,
            latency: Duration,
            error: bool,
        ) {
            let key = self.qos_key(tenant);
            let mut reg = self.reg.borrow_mut();
            let id = reg.histogram(&format!("fleet.tenant.{key}.latency_us"));
            reg.record(id, now, latency.ticks().max(1));
            if error {
                let id = reg.counter(&format!("fleet.tenant.{key}.errors"));
                reg.record(id, now, 1);
            }
        }

        pub fn prometheus_text(&self, now: SimTime) -> String {
            super::exposition(&self.reg.borrow(), &BTreeMap::new(), now)
        }

        pub fn timeseries_csv(&self) -> String {
            self.reg.borrow().timeseries_csv()
        }
    }
}

#[cfg(test)]
mod equivalence {
    use super::name_model::NamePlane;
    use super::*;
    use proptest::prelude::*;

    const REPLICAS: [&str; 3] = ["replica0", "replica1", "replica2"];
    /// Replica handles: `h` stands for `REPLICAS[h % 3]`, so handles 3–5
    /// are replacements that reuse a name.
    const REPLICA_HANDLES: usize = 6;
    /// More tenants than the cap below, `other` among them, and no two
    /// that sanitize onto one Prometheus family. A tenant's handle is its
    /// index here.
    const TENANTS: [&str; 6] = ["alice", "other", "bob", "carol", "dave", "erin"];

    /// One call of the plane's seven recording methods.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        Attempt(usize, u64, bool),
        Depth(usize, u64),
        Submit(u64, u64, Option<usize>),
        Accepted(usize),
        Shed(usize),
        QueueDepth(usize, u64),
        Latency(usize, u64, bool),
    }

    fn op() -> impl Strategy<Value = Op> {
        let (r, t) = (0..REPLICA_HANDLES, 0..TENANTS.len());
        prop_oneof![
            (r.clone(), 1u64..2_000_000, any::<bool>())
                .prop_map(|(r, us, e)| Op::Attempt(r, us, e)),
            (r, 0u64..16).prop_map(|(r, d)| Op::Depth(r, d)),
            (0u64..64, 0u64..64, proptest::option::of(t.clone()))
                .prop_map(|(f, q, t)| Op::Submit(f, q, t)),
            t.clone().prop_map(Op::Accepted),
            t.clone().prop_map(Op::Shed),
            (t.clone(), 0u64..16).prop_map(|(t, d)| Op::QueueDepth(t, d)),
            (t, 1u64..2_000_000, any::<bool>()).prop_map(|(t, us, e)| Op::Latency(t, us, e)),
        ]
    }

    fn health(h: Option<ReplicaHealth>) -> Option<(u64, f64, f64)> {
        h.map(|h| (h.samples, h.p99_s, h.error_rate))
    }

    /// Apply `op` to the plane by handle, or through its by-name API.
    fn apply(plane: &HealthPlane, now: SimTime, op: &Op, by_handle: bool) {
        let us = Duration::from_micros;
        let replica = |r: usize| Owner::handle(r, REPLICAS[r % REPLICAS.len()]);
        let tenant = |t: usize| Owner::handle(t, TENANTS[t]);
        match (*op, by_handle) {
            (Op::Attempt(r, d, e), true) => plane.attempt(now, replica(r), us(d), e),
            (Op::Attempt(r, d, e), false) => {
                plane.record_attempt(now, REPLICAS[r % REPLICAS.len()], us(d), e)
            }
            (Op::Depth(r, d), true) => plane.depth(now, replica(r), d),
            (Op::Depth(r, d), false) => plane.record_depth(now, REPLICAS[r % REPLICAS.len()], d),
            (Op::Submit(f, q, t), true) => plane.submit(now, f, q, t.map(tenant)),
            (Op::Submit(f, q, t), false) => plane.record_submit(now, f, q, t.map(|t| TENANTS[t])),
            (Op::Accepted(t), true) => plane.tenant_accepted(now, tenant(t)),
            (Op::Accepted(t), false) => plane.record_tenant_accepted(now, TENANTS[t]),
            (Op::Shed(t), true) => plane.tenant_shed(now, tenant(t)),
            (Op::Shed(t), false) => plane.record_tenant_shed(now, TENANTS[t]),
            (Op::QueueDepth(t, d), true) => plane.tenant_queue_depth(now, tenant(t), d),
            (Op::QueueDepth(t, d), false) => plane.record_tenant_queue_depth(now, TENANTS[t], d),
            (Op::Latency(t, d, e), true) => plane.tenant_latency(now, tenant(t), us(d), e),
            (Op::Latency(t, d, e), false) => {
                plane.record_tenant_latency(now, TENANTS[t], us(d), e)
            }
        }
    }

    proptest! {
        /// The id-keeping plane and the name-formatting recorder it
        /// replaced agree on every query after every call, and on both
        /// exports at the end: series appear on their first sample, and
        /// each tenant cap counts tenants, not calls. Each call goes by
        /// handle or by name at random, so an owner's first sample may
        /// come either way, and replacement replicas reuse a name under a
        /// new handle. Four 1 s windows against steps of up to 1.5 s wrap
        /// the ring many times over.
        #[test]
        fn id_keeping_plane_matches_the_name_formatting_recorder(
            steps in proptest::collection::vec((0u64..1_500_000, op(), any::<bool>()), 1..160),
        ) {
            let cfg = HealthConfig {
                window: Duration::from_secs(1),
                ring: 4,
                lookback: Duration::from_secs(3),
                max_tenants: 3,
                ..HealthConfig::default()
            };
            let (plane, model) = (HealthPlane::new(cfg), NamePlane::new(cfg));
            let mut now = SimTime::ZERO;
            for (step, op, by_handle) in &steps {
                now += Duration::from_micros(*step);
                apply(&plane, now, op, *by_handle);
                let us = Duration::from_micros;
                match *op {
                    Op::Attempt(r, d, e) => {
                        model.record_attempt(now, REPLICAS[r % REPLICAS.len()], us(d), e)
                    }
                    Op::Depth(r, d) => model.record_depth(now, REPLICAS[r % REPLICAS.len()], d),
                    Op::Submit(f, q, t) => model.record_submit(now, f, q, t.map(|t| TENANTS[t])),
                    Op::Accepted(t) => model.record_tenant_accepted(now, TENANTS[t]),
                    Op::Shed(t) => model.record_tenant_shed(now, TENANTS[t]),
                    Op::QueueDepth(t, d) => model.record_tenant_queue_depth(now, TENANTS[t], d),
                    Op::Latency(t, d, e) => model.record_tenant_latency(now, TENANTS[t], us(d), e),
                }
                for r in REPLICAS {
                    prop_assert_eq!(
                        health(plane.replica_health(now, r)),
                        health(model.replica_health(now, r))
                    );
                }
                prop_assert_eq!(plane.fleet_p99(now), model.fleet_p99(now));
            }
            prop_assert_eq!(plane.prometheus_text(now), model.prometheus_text(now));
            prop_assert_eq!(plane.timeseries_csv(), model.timeseries_csv());
        }
    }
}
