//! Queuing resources: processor-sharing and FIFO servers.
//!
//! Everything physical in the reproduction — CPU time, disk bandwidth,
//! network links — is one of these two fluid-flow servers:
//!
//! * [`PsServer`] divides its capacity fairly among all active flows
//!   (optionally weighted and per-flow rate-capped, computed by progressive
//!   filling / water-filling). This models TCP flows sharing a link and
//!   timeslicing on a CPU. Fair sharing is what makes the "multiple
//!   simultaneous uploads" scalability experiment meaningful.
//! * [`FifoServer`] serves one job at a time at full capacity — a disk arm.
//!
//! Both integrate *busy-seconds* and *processed units* into the metric
//! [`Recorder`](crate::metrics::Recorder) so that every figure of the paper
//! falls out of the bucketed series.

use std::cell::RefCell;
use std::rc::Rc;

use crate::engine::{EventId, Sim};
use crate::metrics::{MetricId, Recorder};
use crate::time::{Duration, SimTime, TICKS_PER_SEC};

/// Identifier of a flow/job inside one server.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FlowId(u64);

/// Per-flow sharing parameters for a [`PsServer`].
#[derive(Clone, Copy, Debug)]
pub struct Share {
    /// Relative weight in the fair share (default 1.0).
    pub weight: f64,
    /// Upper bound on this flow's service rate in units/s (default ∞) —
    /// e.g. a WAN flow capped by the remote end's 85 KB/s uplink.
    pub rate_cap: f64,
}

impl Default for Share {
    fn default() -> Self {
        Share {
            weight: 1.0,
            rate_cap: f64::INFINITY,
        }
    }
}

impl Share {
    /// Equal-weight share capped at `rate_cap` units/s.
    pub fn capped(rate_cap: f64) -> Self {
        Share {
            weight: 1.0,
            rate_cap,
        }
    }
}

/// Construction parameters shared by both server kinds.
///
/// A server may record into several metric keys at once: a network link
/// accumulates the same bytes into its own series *and* into each endpoint
/// host's NIC series, which is how the paper's per-host I/O graphs are
/// measured.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Capacity in units per second (bytes/s for links and disks,
    /// cpu-seconds/s for processors).
    pub capacity: f64,
    /// Metric keys receiving busy-seconds (utilization integral).
    pub busy_metrics: Vec<String>,
    /// Metric keys receiving processed units.
    pub throughput_metrics: Vec<String>,
}

impl ServerConfig {
    /// Config with both metrics derived from a prefix: `<prefix>.busy` and
    /// `<prefix>.bytes`.
    pub fn named(prefix: &str, capacity: f64) -> Self {
        ServerConfig {
            capacity,
            busy_metrics: vec![format!("{prefix}.busy")],
            throughput_metrics: vec![format!("{prefix}.bytes")],
        }
    }

    /// Config that records nothing (internal plumbing resources).
    pub fn silent(capacity: f64) -> Self {
        ServerConfig {
            capacity,
            busy_metrics: Vec::new(),
            throughput_metrics: Vec::new(),
        }
    }

    /// Config with explicit metric key lists.
    pub fn with_keys(capacity: f64, busy: Vec<String>, throughput: Vec<String>) -> Self {
        ServerConfig {
            capacity,
            busy_metrics: busy,
            throughput_metrics: throughput,
        }
    }
}

type DoneFn = Box<dyn FnOnce(&mut Sim)>;

/// Interned copies of a config's metric key lists, resolved against the
/// recorder the first time the server records (servers are built before
/// the `Sim` they run in, so this cannot happen at construction).
struct MetricIdCache {
    busy: Vec<MetricId>,
    throughput: Vec<MetricId>,
}

fn intern_cfg(cfg: &ServerConfig, rec: &mut Recorder) -> MetricIdCache {
    MetricIdCache {
        busy: cfg.busy_metrics.iter().map(|k| rec.intern(k)).collect(),
        throughput: cfg.throughput_metrics.iter().map(|k| rec.intern(k)).collect(),
    }
}

fn share_is_default(s: &Share) -> bool {
    s.weight == 1.0 && s.rate_cap == f64::INFINITY
}

struct PsFlow {
    id: FlowId,
    remaining: f64,
    initial: f64,
    share: Share,
    rate: f64,
    done: Option<DoneFn>,
}

/// Processor-sharing (fair-share) fluid server.
pub struct PsServer {
    cfg: ServerConfig,
    /// Active flows in ascending `FlowId` order: ids are handed out
    /// ascending and `submit_with` appends, removal keeps order. Every
    /// walk below therefore visits flows — and sums `f64`s — in id order,
    /// which is what the figures' bucket values depend on.
    flows: Vec<PsFlow>,
    next_id: u64,
    last_update: SimTime,
    /// The pending completion tick, if any flow can still finish.
    tick: Option<EventId>,
    metric_ids: Option<MetricIdCache>,
    /// Active flows whose share differs from `Share::default()`. While this
    /// is zero `recompute_rates` takes the closed-form equal-split path.
    nondefault_shares: usize,
    scratch_fixed: Vec<bool>,
    scratch_rates: Vec<f64>,
    scratch_shares: Vec<Share>,
}

fn finish_eps(initial: f64) -> f64 {
    1e-9 * initial.max(1.0)
}

/// Round a fractional-second delay *up* to the next tick so completion
/// events never fire before the fluid model says the work is done.
fn ceil_ticks(secs: f64) -> Duration {
    if !secs.is_finite() {
        return Duration::MAX;
    }
    Duration::from_micros((secs.max(0.0) * TICKS_PER_SEC as f64).ceil() as u64)
}

impl PsServer {
    /// Create a server; returns the shared handle used by all operations.
    pub fn new(cfg: ServerConfig) -> Rc<RefCell<PsServer>> {
        assert!(cfg.capacity > 0.0, "server capacity must be positive");
        Rc::new(RefCell::new(PsServer {
            cfg,
            flows: Vec::new(),
            next_id: 0,
            last_update: SimTime::ZERO,
            tick: None,
            metric_ids: None,
            nondefault_shares: 0,
            scratch_fixed: Vec::new(),
            scratch_rates: Vec::new(),
            scratch_shares: Vec::new(),
        }))
    }

    /// Capacity in units/s.
    pub fn capacity(&self) -> f64 {
        self.cfg.capacity
    }

    /// Number of active flows.
    pub fn active(&self) -> usize {
        self.flows.len()
    }

    /// Submit `work` units with default sharing; `done` fires on completion.
    pub fn submit<F>(this: &Rc<RefCell<Self>>, sim: &mut Sim, work: f64, done: F) -> FlowId
    where
        F: FnOnce(&mut Sim) + 'static,
    {
        Self::submit_with(this, sim, work, Share::default(), done)
    }

    /// Submit `work` units with explicit weight/cap.
    pub fn submit_with<F>(
        this: &Rc<RefCell<Self>>,
        sim: &mut Sim,
        work: f64,
        share: Share,
        done: F,
    ) -> FlowId
    where
        F: FnOnce(&mut Sim) + 'static,
    {
        assert!(work >= 0.0, "negative work");
        assert!(share.weight > 0.0, "non-positive weight");
        let id;
        {
            let mut s = this.borrow_mut();
            s.advance(sim);
            id = FlowId(s.next_id);
            s.next_id += 1;
            if !share_is_default(&share) {
                s.nondefault_shares += 1;
            }
            s.flows.push(PsFlow {
                id,
                remaining: work,
                initial: work,
                share,
                rate: 0.0,
                done: Some(Box::new(done)),
            });
            s.recompute_rates();
        }
        Self::reschedule(this, sim);
        // Zero-work flows complete via the normal event path (dt ceil = 0 is
        // clamped to "now"), preserving FIFO callback ordering.
        id
    }

    /// Cancel a flow. Returns `true` if it was still active; its callback is
    /// dropped unfired.
    pub fn cancel(this: &Rc<RefCell<Self>>, sim: &mut Sim, id: FlowId) -> bool {
        let removed;
        {
            let mut s = this.borrow_mut();
            s.advance(sim);
            removed = match s.flows.binary_search_by_key(&id, |f| f.id) {
                Ok(at) => {
                    let f = s.flows.remove(at);
                    if !share_is_default(&f.share) {
                        s.nondefault_shares -= 1;
                    }
                    true
                }
                Err(_) => false,
            };
            s.recompute_rates();
        }
        if removed {
            Self::reschedule(this, sim);
        }
        removed
    }

    /// Change capacity at runtime (e.g. a degraded link); in-flight flows
    /// keep their remaining work and re-share the new capacity.
    pub fn set_capacity(this: &Rc<RefCell<Self>>, sim: &mut Sim, capacity: f64) {
        assert!(capacity > 0.0, "server capacity must be positive");
        {
            let mut s = this.borrow_mut();
            s.advance(sim);
            s.cfg.capacity = capacity;
            s.recompute_rates();
        }
        Self::reschedule(this, sim);
    }

    /// Integrate elapsed progress into flows and metrics up to `sim.now()`.
    fn advance(&mut self, sim: &mut Sim) {
        let now = sim.now();
        if now <= self.last_update {
            self.last_update = now;
            return;
        }
        let dt = (now - self.last_update).as_secs_f64();
        // Record *served* work, not rate×dt: completion events are rounded
        // up to the next tick, so rate×dt can overshoot the work that
        // actually existed.
        let mut served_total = 0.0;
        for f in &mut self.flows {
            let served = (f.rate * dt).min(f.remaining);
            f.remaining -= served;
            served_total += served;
        }
        if served_total > 0.0 {
            let t0 = self.last_update;
            let busy = (served_total / self.cfg.capacity).min(dt);
            let ids = self
                .metric_ids
                .get_or_insert_with(|| intern_cfg(&self.cfg, sim.recorder()));
            // every key shares the interval: lay it over the buckets once
            let span = sim.recorder().split(t0, now);
            for &id in &ids.busy {
                sim.recorder().add_split(id, &span, busy);
            }
            for &id in &ids.throughput {
                sim.recorder().add_split(id, &span, served_total);
            }
        }
        self.last_update = now;
    }

    /// Water-filling: flows whose cap is below their weighted fair share are
    /// pinned at the cap; the freed capacity is redistributed among the rest.
    ///
    /// With only default shares active the filled point has a closed form —
    /// `capacity / n`, exactly the value one loop round computes when every
    /// weight is 1.0 and no cap binds (the weight sum over n ones is exactly
    /// `n as f64`) — so the common case assigns rates directly, touching no
    /// scratch storage. The general case reuses buffers kept on the server.
    fn recompute_rates(&mut self) {
        let n = self.flows.len();
        if n == 0 {
            return;
        }
        if self.nondefault_shares == 0 {
            let rate = self.cfg.capacity / n as f64;
            for f in &mut self.flows {
                f.rate = rate;
            }
            return;
        }
        let fixed = &mut self.scratch_fixed;
        let rates = &mut self.scratch_rates;
        let shares = &mut self.scratch_shares;
        fixed.clear();
        fixed.resize(n, false);
        rates.clear();
        rates.resize(n, 0.0);
        shares.clear();
        shares.extend(self.flows.iter().map(|f| f.share));
        let mut cap_left = self.cfg.capacity;
        loop {
            let free_weight: f64 = shares
                .iter()
                .zip(fixed.iter())
                .filter(|(_, fx)| !**fx)
                .map(|(s, _)| s.weight)
                .sum();
            if free_weight <= 0.0 {
                break;
            }
            let per_weight = cap_left / free_weight;
            let mut changed = false;
            for i in 0..n {
                if fixed[i] {
                    continue;
                }
                let fair = shares[i].weight * per_weight;
                if shares[i].rate_cap < fair {
                    rates[i] = shares[i].rate_cap;
                    cap_left -= rates[i];
                    fixed[i] = true;
                    changed = true;
                }
            }
            if !changed {
                for i in 0..n {
                    if !fixed[i] {
                        rates[i] = shares[i].weight * per_weight;
                    }
                }
                break;
            }
        }
        for (f, &r) in self.flows.iter_mut().zip(rates.iter()) {
            f.rate = r;
        }
    }

    /// Earliest completion among active flows, in seconds from now.
    fn next_completion_secs(&self) -> Option<f64> {
        self.flows
            .iter()
            .filter(|f| f.rate > 0.0 || f.remaining <= finish_eps(f.initial))
            .map(|f| {
                if f.remaining <= finish_eps(f.initial) {
                    0.0
                } else {
                    f.remaining / f.rate
                }
            })
            .fold(None, |acc: Option<f64>, x| {
                Some(acc.map_or(x, |a| a.min(x)))
            })
    }

    /// Replace the pending completion tick: the one a submit, cancel or
    /// capacity change just superseded is retracted, never left to fire.
    fn reschedule(this: &Rc<RefCell<Self>>, sim: &mut Sim) {
        let mut s = this.borrow_mut();
        if let Some(superseded) = s.tick.take() {
            sim.cancel_event(superseded);
        }
        if let Some(secs) = s.next_completion_secs() {
            let this = Rc::clone(this);
            s.tick = Some(sim.schedule(ceil_ticks(secs), move |sim| Self::on_tick(&this, sim)));
        }
    }

    fn on_tick(this: &Rc<RefCell<Self>>, sim: &mut Sim) {
        let mut completed: Vec<DoneFn> = Vec::new();
        {
            let mut s = this.borrow_mut();
            s.tick = None;
            s.advance(sim);
            // drain every flow that finished this tick in one pass (ascending
            // FlowId order, matching callback FIFO expectations)
            let mut removed_nondefault = 0usize;
            s.flows.retain_mut(|f| {
                if f.remaining <= finish_eps(f.initial) {
                    if !share_is_default(&f.share) {
                        removed_nondefault += 1;
                    }
                    if let Some(cb) = f.done.take() {
                        completed.push(cb);
                    }
                    false
                } else {
                    true
                }
            });
            s.nondefault_shares -= removed_nondefault;
            s.recompute_rates();
        }
        Self::reschedule(this, sim);
        for cb in completed {
            cb(sim);
        }
    }
}

struct FifoJob {
    id: FlowId,
    work: f64,
    done: Option<DoneFn>,
}

/// Serve-one-at-a-time server (disk arm model).
pub struct FifoServer {
    cfg: ServerConfig,
    queue: std::collections::VecDeque<FifoJob>,
    next_id: u64,
    /// Remaining work of the job currently in service.
    active_remaining: f64,
    active_initial: f64,
    last_update: SimTime,
    /// The in-service job's pending completion tick.
    tick: Option<EventId>,
    metric_ids: Option<MetricIdCache>,
}

impl FifoServer {
    /// Create a server; returns the shared handle used by all operations.
    pub fn new(cfg: ServerConfig) -> Rc<RefCell<FifoServer>> {
        assert!(cfg.capacity > 0.0, "server capacity must be positive");
        Rc::new(RefCell::new(FifoServer {
            cfg,
            queue: std::collections::VecDeque::new(),
            next_id: 0,
            active_remaining: 0.0,
            active_initial: 0.0,
            last_update: SimTime::ZERO,
            tick: None,
            metric_ids: None,
        }))
    }

    /// Capacity in units/s.
    pub fn capacity(&self) -> f64 {
        self.cfg.capacity
    }

    /// Jobs in system (queued + in service).
    pub fn backlog(&self) -> usize {
        self.queue.len()
    }

    /// Change capacity at runtime (e.g. a throttled disk); the in-service
    /// job keeps its remaining work and continues at the new rate.
    pub fn set_capacity(this: &Rc<RefCell<Self>>, sim: &mut Sim, capacity: f64) {
        assert!(capacity > 0.0, "server capacity must be positive");
        {
            let mut s = this.borrow_mut();
            s.advance(sim);
            s.cfg.capacity = capacity;
        }
        Self::reschedule(this, sim);
    }

    /// Submit `work` units; `done` fires when the job finishes service.
    pub fn submit<F>(this: &Rc<RefCell<Self>>, sim: &mut Sim, work: f64, done: F) -> FlowId
    where
        F: FnOnce(&mut Sim) + 'static,
    {
        assert!(work >= 0.0, "negative work");
        let id;
        let was_idle;
        {
            let mut s = this.borrow_mut();
            s.advance(sim);
            id = FlowId(s.next_id);
            s.next_id += 1;
            was_idle = s.queue.is_empty();
            s.queue.push_back(FifoJob {
                id,
                work,
                done: Some(Box::new(done)),
            });
            if was_idle {
                s.start_head();
            }
        }
        if was_idle {
            Self::reschedule(this, sim);
        }
        id
    }

    /// Cancel a job. In-service jobs abandon their remaining work. Returns
    /// `true` if the job was still in the system.
    pub fn cancel(this: &Rc<RefCell<Self>>, sim: &mut Sim, id: FlowId) -> bool {
        let removed;
        {
            let mut s = this.borrow_mut();
            s.advance(sim);
            let head_is_target = s.queue.front().map(|j| j.id) == Some(id);
            let before = s.queue.len();
            s.queue.retain(|j| j.id != id);
            removed = s.queue.len() < before;
            if head_is_target {
                s.start_head();
            }
        }
        if removed {
            Self::reschedule(this, sim);
        }
        removed
    }

    fn start_head(&mut self) {
        if let Some(head) = self.queue.front() {
            self.active_remaining = head.work;
            self.active_initial = head.work;
        } else {
            self.active_remaining = 0.0;
            self.active_initial = 0.0;
        }
    }

    fn advance(&mut self, sim: &mut Sim) {
        let now = sim.now();
        if now <= self.last_update {
            self.last_update = now;
            return;
        }
        let dt = (now - self.last_update).as_secs_f64();
        if !self.queue.is_empty() {
            let served = (self.cfg.capacity * dt).min(self.active_remaining);
            self.active_remaining -= served;
            let t0 = self.last_update;
            if served > 0.0 {
                let busy_dt = served / self.cfg.capacity;
                // Attribute the busy span to the beginning of the interval:
                // the server worked first, then idled.
                let t_busy_end = t0 + Duration::from_secs_f64(busy_dt);
                let ids = self
                    .metric_ids
                    .get_or_insert_with(|| intern_cfg(&self.cfg, sim.recorder()));
                let span = sim.recorder().split(t0, t_busy_end);
                for &id in &ids.busy {
                    sim.recorder().add_split(id, &span, busy_dt);
                }
                for &id in &ids.throughput {
                    sim.recorder().add_split(id, &span, served);
                }
            }
        }
        self.last_update = now;
    }

    /// Replace the pending completion tick, retracting the superseded one.
    fn reschedule(this: &Rc<RefCell<Self>>, sim: &mut Sim) {
        let mut s = this.borrow_mut();
        if let Some(superseded) = s.tick.take() {
            sim.cancel_event(superseded);
        }
        if !s.queue.is_empty() {
            let secs = s.active_remaining / s.cfg.capacity;
            let this = Rc::clone(this);
            s.tick = Some(sim.schedule(ceil_ticks(secs), move |sim| Self::on_tick(&this, sim)));
        }
    }

    fn on_tick(this: &Rc<RefCell<Self>>, sim: &mut Sim) {
        let mut done_cb: Option<DoneFn> = None;
        {
            let mut s = this.borrow_mut();
            s.tick = None;
            s.advance(sim);
            if s.active_remaining <= finish_eps(s.active_initial) {
                if let Some(mut job) = s.queue.pop_front() {
                    done_cb = job.done.take();
                }
                s.start_head();
            }
        }
        Self::reschedule(this, sim);
        if let Some(cb) = done_cb {
            cb(sim);
        }
    }
}

/// The processor-sharing server as it was before its flows moved into a
/// `Vec` — the same code over a `BTreeMap<FlowId, PsFlow>` — kept as an
/// executable reference so the equivalence property below can hold the
/// `Vec` server to the map's visiting order, `f64` for `f64`.
#[cfg(test)]
mod btree_model {
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::rc::Rc;

    use super::{
        ceil_ticks, finish_eps, intern_cfg, share_is_default, DoneFn, FlowId, MetricIdCache,
        ServerConfig, Share,
    };
    use crate::engine::{EventId, Sim};
    use crate::time::SimTime;

    struct PsFlow {
        remaining: f64,
        initial: f64,
        share: Share,
        rate: f64,
        done: Option<DoneFn>,
    }

    /// [`super::PsServer`] as it was: flows keyed by id in a `BTreeMap`.
    pub struct PsServer {
        cfg: ServerConfig,
        flows: BTreeMap<FlowId, PsFlow>,
        next_id: u64,
        last_update: SimTime,
        tick: Option<EventId>,
        metric_ids: Option<MetricIdCache>,
        /// Active flows whose share differs from `Share::default()`. While this
        /// is zero `recompute_rates` takes the closed-form equal-split path.
        nondefault_shares: usize,
        scratch_fixed: Vec<bool>,
        scratch_rates: Vec<f64>,
        scratch_shares: Vec<Share>,
    }

    impl PsServer {
        /// Create a server; returns the shared handle used by all operations.
        pub fn new(cfg: ServerConfig) -> Rc<RefCell<PsServer>> {
            assert!(cfg.capacity > 0.0, "server capacity must be positive");
            Rc::new(RefCell::new(PsServer {
                cfg,
                flows: BTreeMap::new(),
                next_id: 0,
                last_update: SimTime::ZERO,
                tick: None,
                metric_ids: None,
                nondefault_shares: 0,
                scratch_fixed: Vec::new(),
                scratch_rates: Vec::new(),
                scratch_shares: Vec::new(),
            }))
        }

        /// Number of active flows.
        pub fn active(&self) -> usize {
            self.flows.len()
        }

        /// Submit `work` units with explicit weight/cap.
        pub fn submit_with<F>(
            this: &Rc<RefCell<Self>>,
            sim: &mut Sim,
            work: f64,
            share: Share,
            done: F,
        ) -> FlowId
        where
            F: FnOnce(&mut Sim) + 'static,
        {
            assert!(work >= 0.0, "negative work");
            assert!(share.weight > 0.0, "non-positive weight");
            let id;
            {
                let mut s = this.borrow_mut();
                s.advance(sim);
                id = FlowId(s.next_id);
                s.next_id += 1;
                if !share_is_default(&share) {
                    s.nondefault_shares += 1;
                }
                s.flows.insert(
                    id,
                    PsFlow {
                        remaining: work,
                        initial: work,
                        share,
                        rate: 0.0,
                        done: Some(Box::new(done)),
                    },
                );
                s.recompute_rates();
            }
            Self::reschedule(this, sim);
            // Zero-work flows complete via the normal event path (dt ceil = 0 is
            // clamped to "now"), preserving FIFO callback ordering.
            id
        }

        /// Cancel a flow. Returns `true` if it was still active; its callback is
        /// dropped unfired.
        pub fn cancel(this: &Rc<RefCell<Self>>, sim: &mut Sim, id: FlowId) -> bool {
            let removed;
            {
                let mut s = this.borrow_mut();
                s.advance(sim);
                removed = match s.flows.remove(&id) {
                    Some(f) => {
                        if !share_is_default(&f.share) {
                            s.nondefault_shares -= 1;
                        }
                        true
                    }
                    None => false,
                };
                s.recompute_rates();
            }
            if removed {
                Self::reschedule(this, sim);
            }
            removed
        }

        /// Change capacity at runtime (e.g. a degraded link); in-flight flows
        /// keep their remaining work and re-share the new capacity.
        pub fn set_capacity(this: &Rc<RefCell<Self>>, sim: &mut Sim, capacity: f64) {
            assert!(capacity > 0.0, "server capacity must be positive");
            {
                let mut s = this.borrow_mut();
                s.advance(sim);
                s.cfg.capacity = capacity;
                s.recompute_rates();
            }
            Self::reschedule(this, sim);
        }

        /// Integrate elapsed progress into flows and metrics up to `sim.now()`.
        fn advance(&mut self, sim: &mut Sim) {
            let now = sim.now();
            if now <= self.last_update {
                self.last_update = now;
                return;
            }
            let dt = (now - self.last_update).as_secs_f64();
            // Record *served* work, not rate×dt: completion events are rounded
            // up to the next tick, so rate×dt can overshoot the work that
            // actually existed.
            let mut served_total = 0.0;
            for f in self.flows.values_mut() {
                let served = (f.rate * dt).min(f.remaining);
                f.remaining -= served;
                served_total += served;
            }
            if served_total > 0.0 {
                let t0 = self.last_update;
                let busy = (served_total / self.cfg.capacity).min(dt);
                let ids = self
                    .metric_ids
                    .get_or_insert_with(|| intern_cfg(&self.cfg, sim.recorder()));
                for &id in &ids.busy {
                    sim.recorder().add_span_id(id, t0, now, busy);
                }
                for &id in &ids.throughput {
                    sim.recorder().add_span_id(id, t0, now, served_total);
                }
            }
            self.last_update = now;
        }

        /// Water-filling: flows whose cap is below their weighted fair share are
        /// pinned at the cap; the freed capacity is redistributed among the rest.
        ///
        /// With only default shares active the filled point has a closed form —
        /// `capacity / n`, exactly the value one loop round computes when every
        /// weight is 1.0 and no cap binds (the weight sum over n ones is exactly
        /// `n as f64`) — so the common case assigns rates directly, touching no
        /// scratch storage. The general case reuses buffers kept on the server.
        fn recompute_rates(&mut self) {
            let n = self.flows.len();
            if n == 0 {
                return;
            }
            if self.nondefault_shares == 0 {
                let rate = self.cfg.capacity / n as f64;
                for f in self.flows.values_mut() {
                    f.rate = rate;
                }
                return;
            }
            let fixed = &mut self.scratch_fixed;
            let rates = &mut self.scratch_rates;
            let shares = &mut self.scratch_shares;
            fixed.clear();
            fixed.resize(n, false);
            rates.clear();
            rates.resize(n, 0.0);
            shares.clear();
            shares.extend(self.flows.values().map(|f| f.share));
            let mut cap_left = self.cfg.capacity;
            loop {
                let free_weight: f64 = shares
                    .iter()
                    .zip(fixed.iter())
                    .filter(|(_, fx)| !**fx)
                    .map(|(s, _)| s.weight)
                    .sum();
                if free_weight <= 0.0 {
                    break;
                }
                let per_weight = cap_left / free_weight;
                let mut changed = false;
                for i in 0..n {
                    if fixed[i] {
                        continue;
                    }
                    let fair = shares[i].weight * per_weight;
                    if shares[i].rate_cap < fair {
                        rates[i] = shares[i].rate_cap;
                        cap_left -= rates[i];
                        fixed[i] = true;
                        changed = true;
                    }
                }
                if !changed {
                    for i in 0..n {
                        if !fixed[i] {
                            rates[i] = shares[i].weight * per_weight;
                        }
                    }
                    break;
                }
            }
            for (f, &r) in self.flows.values_mut().zip(rates.iter()) {
                f.rate = r;
            }
        }

        /// Earliest completion among active flows, in seconds from now.
        fn next_completion_secs(&self) -> Option<f64> {
            self.flows
                .values()
                .filter(|f| f.rate > 0.0 || f.remaining <= finish_eps(f.initial))
                .map(|f| {
                    if f.remaining <= finish_eps(f.initial) {
                        0.0
                    } else {
                        f.remaining / f.rate
                    }
                })
                .fold(None, |acc: Option<f64>, x| {
                    Some(acc.map_or(x, |a| a.min(x)))
                })
        }

        fn reschedule(this: &Rc<RefCell<Self>>, sim: &mut Sim) {
            let mut s = this.borrow_mut();
            if let Some(superseded) = s.tick.take() {
                sim.cancel_event(superseded);
            }
            if let Some(secs) = s.next_completion_secs() {
                let this = Rc::clone(this);
                s.tick = Some(sim.schedule(ceil_ticks(secs), move |sim| Self::on_tick(&this, sim)));
            }
        }

        fn on_tick(this: &Rc<RefCell<Self>>, sim: &mut Sim) {
            let mut completed: Vec<DoneFn> = Vec::new();
            {
                let mut s = this.borrow_mut();
                s.tick = None;
                s.advance(sim);
                // drain every flow that finished this tick in one pass (ascending
                // FlowId order, matching callback FIFO expectations)
                let mut removed_nondefault = 0usize;
                s.flows.retain(|_, f| {
                    if f.remaining <= finish_eps(f.initial) {
                        if !share_is_default(&f.share) {
                            removed_nondefault += 1;
                        }
                        if let Some(cb) = f.done.take() {
                            completed.push(cb);
                        }
                        false
                    } else {
                        true
                    }
                });
                s.nondefault_shares -= removed_nondefault;
                s.recompute_rates();
            }
            Self::reschedule(this, sim);
            for cb in completed {
                cb(sim);
            }
        }
    }
}

#[cfg(test)]
mod equivalence {
    use super::*;
    use proptest::prelude::*;

    /// What the property drives on both servers.
    trait Ps: Sized {
        fn create(cfg: ServerConfig) -> Rc<RefCell<Self>>;
        fn submit_with(
            this: &Rc<RefCell<Self>>,
            sim: &mut Sim,
            work: f64,
            share: Share,
            done: DoneFn,
        ) -> FlowId;
        fn cancel(this: &Rc<RefCell<Self>>, sim: &mut Sim, id: FlowId) -> bool;
        fn set_capacity(this: &Rc<RefCell<Self>>, sim: &mut Sim, capacity: f64);
        fn active(&self) -> usize;
    }

    macro_rules! impl_ps {
        ($t:ty) => {
            impl Ps for $t {
                fn create(cfg: ServerConfig) -> Rc<RefCell<Self>> {
                    <$t>::new(cfg)
                }
                fn submit_with(
                    this: &Rc<RefCell<Self>>,
                    sim: &mut Sim,
                    work: f64,
                    share: Share,
                    done: DoneFn,
                ) -> FlowId {
                    <$t>::submit_with(this, sim, work, share, done)
                }
                fn cancel(this: &Rc<RefCell<Self>>, sim: &mut Sim, id: FlowId) -> bool {
                    <$t>::cancel(this, sim, id)
                }
                fn set_capacity(this: &Rc<RefCell<Self>>, sim: &mut Sim, capacity: f64) {
                    <$t>::set_capacity(this, sim, capacity)
                }
                fn active(&self) -> usize {
                    <$t>::active(self)
                }
            }
        };
    }
    impl_ps!(PsServer);
    impl_ps!(btree_model::PsServer);

    /// One step of a program against a server.
    #[derive(Debug, Clone)]
    enum Op {
        /// Submit `work` under `share`; when `then` is set, the completion
        /// callback submits that much more work (the appliance's shape:
        /// each stage's completion starts the next on the same resource).
        Submit {
            work: f64,
            share: Share,
            then: Option<f64>,
        },
        /// Cancel the `nth % submitted` flow, finished or not.
        Cancel(usize),
        SetCapacity(f64),
        /// `run_until(now + ticks)`.
        Run(u64),
    }

    fn arb_share() -> impl Strategy<Value = Share> {
        prop_oneof![
            Just(Share::default()),
            Just(Share::default()),
            (0.25f64..4.0).prop_map(|weight| Share {
                weight,
                rate_cap: f64::INFINITY
            }),
            (1.0f64..150.0).prop_map(Share::capped),
            (0.25f64..4.0, 1.0f64..150.0).prop_map(|(weight, rate_cap)| Share { weight, rate_cap }),
        ]
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        let arb_work = || prop_oneof![Just(0.0), 0.0f64..50.0, 0.0f64..2_000.0];
        prop_oneof![
            (arb_work(), arb_share(), proptest::option::of(arb_work()))
                .prop_map(|(work, share, then)| Op::Submit { work, share, then }),
            (arb_work(), arb_share()).prop_map(|(work, share)| Op::Submit {
                work,
                share,
                then: None
            }),
            (0usize..1 << 16).prop_map(Op::Cancel),
            (10.0f64..500.0).prop_map(Op::SetCapacity),
            Just(Op::Run(0)),
            (0u64..500_000).prop_map(Op::Run),
            (0u64..20_000_000).prop_map(Op::Run),
        ]
    }

    /// Everything observable about a run, floats as bit patterns.
    #[derive(Debug, PartialEq)]
    struct Observed {
        /// `(flow number, completion tick)` in callback order.
        completions: Vec<(usize, u64)>,
        cancels: Vec<bool>,
        active_after_program: usize,
        busy_buckets: Vec<u64>,
        bytes_buckets: Vec<u64>,
        end_tick: u64,
        events: u64,
    }

    fn run_program<S: Ps + 'static>(ops: &[Op]) -> Observed {
        let mut sim = Sim::new(0);
        let srv = S::create(ServerConfig::named("srv", 100.0));
        let completions = Rc::new(RefCell::new(Vec::new()));
        let mut ids = Vec::new();
        let mut cancels = Vec::new();
        for op in ops {
            match *op {
                Op::Submit { work, share, then } => {
                    let flow = ids.len();
                    let log = Rc::clone(&completions);
                    let srv2 = Rc::clone(&srv);
                    let done: DoneFn = Box::new(move |sim| {
                        log.borrow_mut().push((flow, sim.now().ticks()));
                        if let Some(more) = then {
                            let log = Rc::clone(&log);
                            S::submit_with(
                                &srv2,
                                sim,
                                more,
                                share,
                                Box::new(move |sim| {
                                    log.borrow_mut().push((flow + (1 << 20), sim.now().ticks()));
                                }),
                            );
                        }
                    });
                    ids.push(S::submit_with(&srv, &mut sim, work, share, done));
                }
                Op::Cancel(nth) => {
                    if !ids.is_empty() {
                        cancels.push(S::cancel(&srv, &mut sim, ids[nth % ids.len()]));
                    }
                }
                Op::SetCapacity(c) => S::set_capacity(&srv, &mut sim, c),
                Op::Run(ticks) => {
                    let deadline = sim.now() + Duration::from_micros(ticks);
                    sim.run_until(deadline);
                }
            }
        }
        let active_after_program = srv.borrow().active();
        sim.run();
        let bits = |key: &str| {
            sim.recorder_ref()
                .series(key)
                .map(|s| s.buckets().iter().map(|v| v.to_bits()).collect())
                .unwrap_or_default()
        };
        let completions = completions.borrow().clone();
        Observed {
            completions,
            cancels,
            active_after_program,
            busy_buckets: bits("srv.busy"),
            bytes_buckets: bits("srv.bytes"),
            end_tick: sim.now().ticks(),
            events: sim.events_executed(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The `Vec` server and the retired `BTreeMap` server agree on
        /// everything a run can observe — completion order and instants,
        /// cancel verdicts, and every recorder bucket bit for bit — over
        /// arbitrary submit / cancel / set_capacity / run_until programs
        /// with default, weighted and capped shares mixed.
        #[test]
        fn vec_server_matches_the_btree_server(
            ops in proptest::collection::vec(arb_op(), 1..60),
        ) {
            let vec = run_program::<PsServer>(&ops);
            let map = run_program::<btree_model::PsServer>(&ops);
            prop_assert_eq!(vec, map);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn flag() -> Rc<Cell<f64>> {
        Rc::new(Cell::new(-1.0))
    }

    #[test]
    fn single_flow_full_capacity() {
        let mut sim = Sim::new(0);
        let link = PsServer::new(ServerConfig::silent(100.0));
        let at = flag();
        let at2 = at.clone();
        PsServer::submit(&link, &mut sim, 500.0, move |sim| {
            at2.set(sim.now().as_secs_f64());
        });
        sim.run();
        assert!((at.get() - 5.0).abs() < 1e-3, "finished at {}", at.get());
    }

    #[test]
    fn two_flows_share_capacity() {
        let mut sim = Sim::new(0);
        let link = PsServer::new(ServerConfig::silent(100.0));
        let a = flag();
        let b = flag();
        let (a2, b2) = (a.clone(), b.clone());
        PsServer::submit(&link, &mut sim, 500.0, move |sim| {
            a2.set(sim.now().as_secs_f64())
        });
        PsServer::submit(&link, &mut sim, 500.0, move |sim| {
            b2.set(sim.now().as_secs_f64())
        });
        sim.run();
        // both progress at 50 u/s → 10 s each
        assert!((a.get() - 10.0).abs() < 1e-3, "a at {}", a.get());
        assert!((b.get() - 10.0).abs() < 1e-3, "b at {}", b.get());
    }

    #[test]
    fn short_flow_departure_speeds_up_long_flow() {
        let mut sim = Sim::new(0);
        let link = PsServer::new(ServerConfig::silent(100.0));
        let long = flag();
        let l2 = long.clone();
        PsServer::submit(&link, &mut sim, 1000.0, move |sim| {
            l2.set(sim.now().as_secs_f64())
        });
        PsServer::submit(&link, &mut sim, 100.0, |_| {});
        sim.run();
        // short: shares 50/s, done at t=2 (100 units). long: 100 done by t=2,
        // then 900 at full 100/s → t = 2 + 9 = 11.
        assert!((long.get() - 11.0).abs() < 1e-3, "long at {}", long.get());
    }

    #[test]
    fn rate_cap_limits_flow() {
        let mut sim = Sim::new(0);
        let link = PsServer::new(ServerConfig::silent(1000.0));
        let at = flag();
        let at2 = at.clone();
        PsServer::submit_with(&link, &mut sim, 500.0, Share::capped(50.0), move |sim| {
            at2.set(sim.now().as_secs_f64())
        });
        sim.run();
        assert!((at.get() - 10.0).abs() < 1e-3, "capped at {}", at.get());
    }

    #[test]
    fn water_filling_redistributes_capped_surplus() {
        let mut sim = Sim::new(0);
        let link = PsServer::new(ServerConfig::silent(100.0));
        let fast = flag();
        let f2 = fast.clone();
        // capped flow takes 10 u/s; the other should get 90 u/s, not 50.
        PsServer::submit_with(&link, &mut sim, 10_000.0, Share::capped(10.0), |_| {});
        PsServer::submit(&link, &mut sim, 900.0, move |sim| {
            f2.set(sim.now().as_secs_f64())
        });
        sim.run_until(SimTime::from_secs(50));
        assert!((fast.get() - 10.0).abs() < 1e-2, "fast at {}", fast.get());
    }

    #[test]
    fn weights_bias_shares() {
        let mut sim = Sim::new(0);
        let link = PsServer::new(ServerConfig::silent(100.0));
        let heavy = flag();
        let h2 = heavy.clone();
        let w3 = Share {
            weight: 3.0,
            rate_cap: f64::INFINITY,
        };
        PsServer::submit_with(&link, &mut sim, 750.0, w3, move |sim| {
            h2.set(sim.now().as_secs_f64())
        });
        PsServer::submit(&link, &mut sim, 10_000.0, |_| {});
        sim.run_until(SimTime::from_secs(100));
        // heavy gets 75 u/s while sharing → 10 s
        assert!((heavy.get() - 10.0).abs() < 1e-2, "heavy at {}", heavy.get());
    }

    #[test]
    fn cancel_stops_flow_and_drops_callback() {
        let mut sim = Sim::new(0);
        let link = PsServer::new(ServerConfig::silent(100.0));
        let at = flag();
        let at2 = at.clone();
        let id = PsServer::submit(&link, &mut sim, 500.0, move |sim| {
            at2.set(sim.now().as_secs_f64())
        });
        let link2 = link.clone();
        sim.schedule(Duration::from_secs(1), move |sim| {
            assert!(PsServer::cancel(&link2, sim, id));
        });
        sim.run();
        assert_eq!(at.get(), -1.0, "cancelled flow must not complete");
        assert_eq!(link.borrow().active(), 0);
    }

    #[test]
    fn zero_work_completes_immediately() {
        let mut sim = Sim::new(0);
        let link = PsServer::new(ServerConfig::silent(10.0));
        let at = flag();
        let at2 = at.clone();
        PsServer::submit(&link, &mut sim, 0.0, move |sim| {
            at2.set(sim.now().as_secs_f64())
        });
        sim.run();
        assert_eq!(at.get(), 0.0);
    }

    #[test]
    fn busy_metric_integrates_utilization() {
        let mut sim = Sim::new(0);
        let link = PsServer::new(ServerConfig::named("l", 100.0));
        PsServer::submit(&link, &mut sim, 600.0, |_| {});
        sim.run();
        // 6 s at full utilization over 3 s buckets → busy-seconds [3,3]
        let s = sim.recorder_ref().series("l.busy").unwrap();
        assert!((s.total() - 6.0).abs() < 1e-6, "{:?}", s.buckets());
        assert!((sim.recorder_ref().total("l.bytes") - 600.0).abs() < 1e-6);
    }

    #[test]
    fn fifo_serializes_jobs() {
        let mut sim = Sim::new(0);
        let disk = FifoServer::new(ServerConfig::silent(100.0));
        let a = flag();
        let b = flag();
        let (a2, b2) = (a.clone(), b.clone());
        FifoServer::submit(&disk, &mut sim, 200.0, move |sim| {
            a2.set(sim.now().as_secs_f64())
        });
        FifoServer::submit(&disk, &mut sim, 300.0, move |sim| {
            b2.set(sim.now().as_secs_f64())
        });
        sim.run();
        assert!((a.get() - 2.0).abs() < 1e-3);
        assert!((b.get() - 5.0).abs() < 1e-3, "b at {}", b.get());
    }

    #[test]
    fn fifo_cancel_waiting_job() {
        let mut sim = Sim::new(0);
        let disk = FifoServer::new(ServerConfig::silent(100.0));
        let b = flag();
        let b2 = b.clone();
        FifoServer::submit(&disk, &mut sim, 200.0, |_| {});
        let id = FifoServer::submit(&disk, &mut sim, 300.0, move |sim| {
            b2.set(sim.now().as_secs_f64())
        });
        let d2 = disk.clone();
        sim.schedule(Duration::from_secs(1), move |sim| {
            assert!(FifoServer::cancel(&d2, sim, id));
        });
        sim.run();
        assert_eq!(b.get(), -1.0);
    }

    #[test]
    fn fifo_throughput_metric_totals_work() {
        let mut sim = Sim::new(0);
        let disk = FifoServer::new(ServerConfig::named("d", 50.0));
        FifoServer::submit(&disk, &mut sim, 100.0, |_| {});
        FifoServer::submit(&disk, &mut sim, 150.0, |_| {});
        sim.run();
        assert!((sim.recorder_ref().total("d.bytes") - 250.0).abs() < 1e-6);
        assert!((sim.recorder_ref().total("d.busy") - 5.0).abs() < 1e-6);
    }

    #[test]
    fn set_capacity_rescales_in_flight() {
        let mut sim = Sim::new(0);
        let link = PsServer::new(ServerConfig::silent(100.0));
        let at = flag();
        let at2 = at.clone();
        PsServer::submit(&link, &mut sim, 1000.0, move |sim| {
            at2.set(sim.now().as_secs_f64())
        });
        let l2 = link.clone();
        sim.schedule(Duration::from_secs(5), move |sim| {
            PsServer::set_capacity(&l2, sim, 50.0);
        });
        sim.run();
        // 500 units in the first 5 s, remaining 500 at 50/s → t=15
        assert!((at.get() - 15.0).abs() < 1e-3, "at {}", at.get());
    }

    #[test]
    fn cancelled_flow_takes_the_tick_it_was_holding_along() {
        // regression: the ticks superseded by the second submit (t = 2) and
        // by the cancel (t = 100) used to fire and return, so this drained
        // at t = 100 after 4 events, 2 of them no-ops
        let mut sim = Sim::new(0);
        let link = PsServer::new(ServerConfig::silent(1.0));
        let long = PsServer::submit(&link, &mut sim, 100.0, |_| panic!("cancelled"));
        let short = flag();
        let s2 = short.clone();
        PsServer::submit(&link, &mut sim, 1.0, move |sim| {
            s2.set(sim.now().as_secs_f64())
        });
        assert_eq!(sim.pending(), 1, "one server, one pending tick");
        let l2 = link.clone();
        sim.schedule(Duration::from_secs(1), move |sim| {
            assert!(PsServer::cancel(&l2, sim, long));
        });
        // half done at t = 1 sharing 0.5/s each, the rest alone at 1/s
        assert_eq!(sim.run(), 2, "the cancel and the one live tick");
        assert_eq!(short.get(), 1.5);
        assert_eq!(sim.now(), SimTime::from_secs_f64(1.5));
        assert_eq!(sim.pending(), 0);
    }

    #[test]
    fn fifo_cancel_of_the_job_in_service_takes_its_tick_along() {
        // regression: the cancelled head's completion tick (t = 100) used
        // to fire and return, dragging the drain clock there
        let mut sim = Sim::new(0);
        let disk = FifoServer::new(ServerConfig::silent(1.0));
        let head = FifoServer::submit(&disk, &mut sim, 100.0, |_| panic!("cancelled"));
        let next = flag();
        let n2 = next.clone();
        FifoServer::submit(&disk, &mut sim, 1.0, move |sim| {
            n2.set(sim.now().as_secs_f64())
        });
        let d2 = disk.clone();
        sim.schedule(Duration::from_secs(1), move |sim| {
            assert!(FifoServer::cancel(&d2, sim, head));
        });
        assert_eq!(sim.run(), 2, "the cancel and the successor's tick");
        assert_eq!(next.get(), 2.0);
        assert_eq!(sim.now(), SimTime::from_secs(2));
        assert_eq!(sim.pending(), 0);
    }

    #[test]
    fn raising_capacity_mid_flow_retracts_the_slower_tick() {
        // regression: the tick computed at the old capacity (t = 100) used
        // to fire and return after the flow had long finished at t = 2
        let mut sim = Sim::new(0);
        let link = PsServer::new(ServerConfig::silent(1.0));
        let disk = FifoServer::new(ServerConfig::silent(1.0));
        let (flow, job) = (flag(), flag());
        let (f2, j2) = (flow.clone(), job.clone());
        PsServer::submit(&link, &mut sim, 100.0, move |sim| {
            f2.set(sim.now().as_secs_f64())
        });
        FifoServer::submit(&disk, &mut sim, 100.0, move |sim| {
            j2.set(sim.now().as_secs_f64())
        });
        let (l2, d2) = (link.clone(), disk.clone());
        sim.schedule(Duration::from_secs(1), move |sim| {
            PsServer::set_capacity(&l2, sim, 99.0);
            FifoServer::set_capacity(&d2, sim, 99.0);
            assert_eq!(sim.pending(), 2, "one pending tick per server");
        });
        // 1 unit in the first second, the other 99 at 99/s
        assert_eq!(sim.run(), 3, "the capacity change and one tick each");
        assert_eq!((flow.get(), job.get()), (2.0, 2.0));
        assert_eq!(sim.now(), SimTime::from_secs(2));
        assert_eq!(sim.pending(), 0);
    }

    #[test]
    fn many_equal_flows_finish_together() {
        let mut sim = Sim::new(0);
        let link = PsServer::new(ServerConfig::silent(100.0));
        let done = Rc::new(Cell::new(0u32));
        for _ in 0..10 {
            let d = done.clone();
            PsServer::submit(&link, &mut sim, 100.0, move |sim| {
                assert!((sim.now().as_secs_f64() - 10.0).abs() < 1e-3);
                d.set(d.get() + 1);
            });
        }
        sim.run();
        assert_eq!(done.get(), 10);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn ps_server_rejects_zero_capacity() {
        let _ = PsServer::new(ServerConfig::silent(0.0));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn fifo_server_rejects_negative_capacity() {
        let _ = FifoServer::new(ServerConfig::silent(-5.0));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn ps_set_capacity_rejects_zero() {
        let mut sim = Sim::new(0);
        let link = PsServer::new(ServerConfig::silent(100.0));
        PsServer::set_capacity(&link, &mut sim, 0.0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn fifo_set_capacity_rejects_negative() {
        let mut sim = Sim::new(0);
        let disk = FifoServer::new(ServerConfig::silent(100.0));
        FifoServer::set_capacity(&disk, &mut sim, -1.0);
    }

    #[test]
    fn fifo_set_capacity_rescales_current_job() {
        let mut sim = Sim::new(0);
        let disk = FifoServer::new(ServerConfig::silent(100.0));
        let at = flag();
        let at2 = at.clone();
        FifoServer::submit(&disk, &mut sim, 1000.0, move |sim| {
            at2.set(sim.now().as_secs_f64())
        });
        let d2 = disk.clone();
        sim.schedule(Duration::from_secs(5), move |sim| {
            FifoServer::set_capacity(&d2, sim, 50.0);
        });
        sim.run();
        // 500 units in the first 5 s, remaining 500 at 50/s → t=15
        assert!((at.get() - 15.0).abs() < 1e-3, "at {}", at.get());
    }
}
