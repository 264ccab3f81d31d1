//! Stage one of the front door: admission.
//!
//! Admission owns the in-flight window (`max_in_flight`) and, when
//! [`QosConfig`] is attached, the per-tenant stage in front of it: tenant
//! ledgers, soft quotas, bounded door queues and the deficit-round-robin
//! ring that drains them. A request is [`Admission::offer`]ed once; the
//! answer is to let it in (a window slot is taken on the spot), to
//! [`Admission::park`] it, or to shed it. Every request let in is
//! [`Admission::release`]d exactly once, which is what lets
//! [`Admission::next_grant`] hand parked work the freed capacity.
//!
//! Whether the tenant stage exists is decided here and nowhere else: with
//! it absent every offer goes through the plain window gate, nothing is
//! ever parked, and `next_grant` / `flush` come back empty.
//!
//! The stage is generic over what it parks (`T`), so it knows nothing of
//! tickets, spans or responders. Everything is keyed on event order and
//! the virtual clock — no randomness — so same-seed runs replay
//! byte-identically.

use std::collections::{BTreeMap, VecDeque};

use simkit::SimTime;

/// Why a request is refused when nothing is in rotation to serve it.
pub(super) const NO_REPLICAS: &str = "no replicas in rotation";

/// Priority tier for per-tenant QoS. The tier sets the tenant's weight in
/// both the quota split and the deficit-round-robin drain of the door
/// queues — gold tenants get four grants for every batch grant when both
/// are backlogged.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum QosTier {
    /// Interactive / paying traffic: weight 4.
    Gold,
    /// The default tier: weight 2.
    #[default]
    Standard,
    /// Bulk / best-effort traffic: weight 1.
    Batch,
}

impl QosTier {
    /// All tiers, for sweeps and property tests.
    pub const ALL: [QosTier; 3] = [QosTier::Gold, QosTier::Standard, QosTier::Batch];

    /// DRR quantum and quota share.
    pub fn weight(self) -> u64 {
        match self {
            QosTier::Gold => 4,
            QosTier::Standard => 2,
            QosTier::Batch => 1,
        }
    }

    /// Short label for tables and span attributes.
    pub fn label(self) -> &'static str {
        match self {
            QosTier::Gold => "gold",
            QosTier::Standard => "standard",
            QosTier::Batch => "batch",
        }
    }
}

/// Per-tenant QoS at the front door ([`super::Dispatcher::set_qos`]).
///
/// With QoS on, every invocation carrying a principal is admitted against
/// its tenant's *quota* — a soft share of
/// [`super::DispatcherConfig::max_in_flight`] proportional to the tenant's
/// tier weight over the total weight of all known tenants
/// (`max(1, max_in_flight · w/W)`). A tenant at quota does not shed: its
/// requests wait in a per-tenant FIFO (bounded by
/// [`QosConfig::queue_depth`]; overflow sheds with per-tenant accounting)
/// and are granted capacity by deficit round-robin as requests finish —
/// weighted by tier, deterministic on the virtual clock, no randomness.
///
/// *Borrowing*: when capacity is idle — no other tenant is waiting below
/// its own quota — a tenant may run up to [`QosConfig::borrow`] requests
/// above quota. Lent slots are never taken from a waiting under-quota
/// tenant: the grant loop always prefers under-quota queues.
///
/// Anonymous invocations and uploads bypass the per-tenant stage and are
/// admitted against the global `max_in_flight` gate alone, exactly as with
/// QoS off.
#[derive(Clone, Debug)]
pub struct QosConfig {
    /// Tier for tenants not named in `tiers`.
    pub default_tier: QosTier,
    /// Explicit tenant → tier assignments. Tenants listed here are
    /// registered (and weigh into the quota split) from the start;
    /// unlisted tenants are registered at `default_tier` on first sight.
    pub tiers: BTreeMap<String, QosTier>,
    /// Per-tenant door-queue bound; a request arriving with its tenant's
    /// queue full is shed.
    pub queue_depth: usize,
    /// Requests a tenant may run *above* quota while no under-quota
    /// tenant is waiting (idle-capacity borrowing). 0 makes quotas hard.
    pub borrow: usize,
}

impl Default for QosConfig {
    fn default() -> Self {
        QosConfig {
            default_tier: QosTier::Standard,
            tiers: BTreeMap::new(),
            queue_depth: 64,
            borrow: 1,
        }
    }
}

/// One tenant's QoS ledger and live state, from
/// [`super::Dispatcher::qos_tenants`]. Conservation:
/// `issued == accepted + shed + queued` at every instant, and
/// `queued == 0` once the simulation drains.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TenantQos {
    /// The tenant's priority tier.
    pub tier: QosTier,
    /// Current quota: `max(1, max_in_flight · weight/total_weight)`.
    pub quota: usize,
    /// Requests admitted and not yet answered.
    pub in_flight: usize,
    /// Requests waiting in the door queue right now.
    pub queued: usize,
    /// Front-door submissions (admitted + queued + shed).
    pub issued: u64,
    /// Requests admitted past the door.
    pub accepted: u64,
    /// Requests refused (queue full, or flushed when every replica left).
    pub shed: u64,
    /// Cumulative enqueues (a queued request later counts accepted or
    /// shed as well — `enqueued` records that it waited).
    pub enqueued: u64,
}

/// The QoS identity a request carries from the door on: set once by the
/// tenant stage and never re-derived, so a retried, re-pinned, or
/// canary-shifted request keeps its tenant and priority tier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(super) struct QosTag {
    pub tenant: String,
    pub tier: QosTier,
    /// When the request first hit the front door (queue wait included) —
    /// the per-tenant latency series measures door-to-answer.
    pub submitted_at: SimTime,
}

/// What the door does with one offered request. The tag is present iff
/// the tenant stage (not the plain window gate) made the call.
#[derive(Debug, PartialEq, Eq)]
pub(super) enum Offer {
    /// Let in: a window slot (and, tagged, a tenant slot) is already taken.
    Admit(Option<QosTag>),
    /// The tenant is at quota: [`Admission::park`] the request under this
    /// tag. Its queue will then be `depth` deep.
    Queue { tag: QosTag, depth: usize },
    /// Refused, and counted against the tagged tenant's ledger.
    Shed(&'static str, Option<QosTag>),
}

struct Tenant<T> {
    /// The tenant's books as [`Admission::tenants`] reports them; `quota`
    /// and `queued` are derived, and filled in only on that read.
    ledger: TenantQos,
    queue: VecDeque<(QosTag, T)>,
    /// DRR deficit: grants available before the tenant's next top-up.
    deficit: u64,
}

/// The admission stage. See the module docs.
pub(super) struct Admission<T> {
    max_in_flight: usize,
    in_flight: usize,
    /// The tenant stage's settings; `None` — the default — is the plain
    /// window gate, and leaves the three tables below empty for good.
    qos: Option<QosConfig>,
    tenants: BTreeMap<String, Tenant<T>>,
    /// Sum of tier weights over all registered tenants (the quota
    /// denominator). Grows monotonically as tenants are first seen.
    total_weight: u64,
    /// Tenants with queued work, in first-enqueue order — the DRR ring.
    ring: VecDeque<String>,
}

impl<T> Admission<T> {
    /// A plain window gate of `max_in_flight` slots, no tenant stage.
    pub fn new(max_in_flight: usize) -> Admission<T> {
        Admission {
            max_in_flight,
            in_flight: 0,
            qos: None,
            tenants: BTreeMap::new(),
            total_weight: 0,
            ring: VecDeque::new(),
        }
    }

    /// Put the per-tenant stage in front of the window. Tenants the
    /// config lists weigh into the quota split from the start.
    pub fn set_qos(&mut self, cfg: QosConfig) {
        for (tenant, tier) in &cfg.tiers {
            self.register(tenant, *tier);
        }
        self.qos = Some(cfg);
    }

    /// Requests let in and not yet released.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Per-tenant ledgers and live state (empty without the tenant stage).
    pub fn tenants(&self) -> BTreeMap<String, TenantQos> {
        self.tenants
            .iter()
            .map(|(t, st)| {
                let snapshot = TenantQos {
                    quota: self.quota(st.ledger.tier),
                    queued: st.queue.len(),
                    ..st.ledger.clone()
                };
                (t.clone(), snapshot)
            })
            .collect()
    }

    /// Ensure `tenant` exists, at `tier` if it is new.
    fn register(&mut self, tenant: &str, tier: QosTier) {
        if !self.tenants.contains_key(tenant) {
            self.total_weight += tier.weight();
            let ledger = TenantQos {
                tier,
                ..TenantQos::default()
            };
            let fresh = Tenant {
                ledger,
                queue: VecDeque::new(),
                deficit: 0,
            };
            self.tenants.insert(tenant.to_owned(), fresh);
        }
    }

    /// A tier's quota: its weighted share of the window, never below one
    /// slot.
    fn quota(&self, tier: QosTier) -> usize {
        let share = (self.max_in_flight as u64) * tier.weight() / self.total_weight.max(1);
        (share as usize).max(1)
    }

    /// Is some tenant waiting below its own quota? While true, no tenant
    /// may be granted (or admitted) above quota — idle capacity is lent
    /// only when nobody under-quota wants it.
    fn under_quota_waiting(&self) -> bool {
        self.ring.iter().any(|t| {
            let st = &self.tenants[t];
            !st.queue.is_empty() && st.ledger.in_flight < self.quota(st.ledger.tier)
        })
    }

    /// May a fresh arrival of `st` be admitted immediately, allowed to run
    /// `borrow` above quota? Only if its own queue is empty (per-tenant
    /// FIFO order) and it is under quota — or borrowing while no
    /// under-quota tenant waits.
    fn may_admit(&self, st: &Tenant<T>, borrow: usize) -> bool {
        let quota = self.quota(st.ledger.tier);
        st.queue.is_empty()
            && (st.ledger.in_flight < quota
                || st.ledger.in_flight < quota.saturating_add(borrow)
                    && !self.under_quota_waiting())
    }

    /// Offer one request to the door. `tenant` is its principal, if it is
    /// an invocation carrying one — only those go through the tenant
    /// stage; `any_live` says whether a replica is in rotation (queueing
    /// for a dead fleet would just strand the caller).
    pub fn offer(&mut self, tenant: Option<&str>, any_live: bool, now: SimTime) -> Offer {
        let room = self.in_flight < self.max_in_flight;
        let Some((cfg, tenant)) = self.qos.as_ref().zip(tenant) else {
            // The plain gate, deliberately blind to what kind of request
            // this is: an upload at a saturated door sheds exactly like
            // an invocation.
            if !room {
                return Offer::Shed("admission limit reached", None);
            }
            if !any_live {
                return Offer::Shed(NO_REPLICAS, None);
            }
            self.take_slot(None);
            return Offer::Admit(None);
        };
        // listed tenants were registered up front, so a first sight
        // always lands on the default tier
        let (default_tier, borrow, queue_depth) = (cfg.default_tier, cfg.borrow, cfg.queue_depth);
        self.register(tenant, default_tier);
        let admit = any_live && room && self.may_admit(&self.tenants[tenant], borrow);
        let st = self.tenants.get_mut(tenant).expect("just registered");
        st.ledger.issued += 1;
        let tag = QosTag {
            tenant: tenant.to_owned(),
            tier: st.ledger.tier,
            submitted_at: now,
        };
        if admit {
            self.take_slot(Some(&tag));
            return Offer::Admit(Some(tag));
        }
        if any_live && st.queue.len() < queue_depth {
            let depth = st.queue.len() + 1;
            return Offer::Queue { tag, depth };
        }
        st.ledger.shed += 1;
        let why = if any_live {
            "tenant queue full"
        } else {
            NO_REPLICAS
        };
        Offer::Shed(why, Some(tag))
    }

    /// The one place a request becomes in-flight: take a window slot and,
    /// for a tagged request, a slot of its tenant's ledger.
    fn take_slot(&mut self, tag: Option<&QosTag>) {
        self.in_flight += 1;
        if let Some(tag) = tag {
            let st = self.tenants.get_mut(&tag.tenant).expect("tagged tenant");
            st.ledger.accepted += 1;
            st.ledger.in_flight += 1;
        }
    }

    /// Give back what [`Admission::offer`] or [`Admission::next_grant`]
    /// took, when the request closes.
    pub fn release(&mut self, tag: Option<&QosTag>) {
        self.in_flight -= 1;
        if let Some(tag) = tag {
            let st = self.tenants.get_mut(&tag.tenant).expect("tagged tenant");
            let left = st.ledger.in_flight.checked_sub(1);
            st.ledger.in_flight = left.expect("tenant in-flight underflow: tag lost in transit");
        }
    }

    /// Park a request [`Offer::Queue`] told the caller to hold.
    pub fn park(&mut self, tag: QosTag, item: T) {
        let st = self.tenants.get_mut(&tag.tenant).expect("tagged tenant");
        if !self.ring.contains(&tag.tenant) {
            self.ring.push_back(tag.tenant.clone());
        }
        st.ledger.enqueued += 1;
        st.queue.push_back((tag, item));
    }

    /// While the window has room, pop the next parked request by deficit
    /// round-robin and take its slot: under-quota waiters are always
    /// served first; over-quota tenants are served (borrowing) only when
    /// no under-quota tenant waits. `None` when the window is full or
    /// nothing parked is eligible.
    pub fn next_grant(&mut self) -> Option<(QosTag, T)> {
        if self.in_flight >= self.max_in_flight {
            return None;
        }
        let borrow = if self.under_quota_waiting() {
            0
        } else {
            self.qos.as_ref()?.borrow
        };
        // each ring member is visited at most twice per grant (top-up,
        // then serve), so 2·len + 1 passes always reach a fixed point
        for _ in 0..(self.ring.len() * 2 + 1) {
            let tier = self.tenants[self.ring.front()?].ledger.tier;
            let cap = self.quota(tier).saturating_add(borrow);
            let st = self
                .tenants
                .get_mut(self.ring.front()?)
                .expect("ring member registered");
            if st.queue.is_empty() {
                st.deficit = 0;
                self.ring.pop_front();
            } else if st.ledger.in_flight >= cap {
                // not eligible this round: rotate past without touching
                // its deficit
                self.ring.rotate_left(1);
            } else if st.deficit == 0 {
                st.deficit = tier.weight();
                self.ring.rotate_left(1);
            } else {
                st.deficit -= 1;
                let granted = st.queue.pop_front().expect("non-empty queue");
                self.take_slot(Some(&granted.0));
                return Some(granted);
            }
        }
        None
    }

    /// Pop every parked request, each counted as shed — a queued-then-shed
    /// request counts exactly once. For a total outage: nothing can ever
    /// be granted once the last replica is gone.
    pub fn flush(&mut self) -> Vec<(QosTag, T)> {
        let mut out = Vec::new();
        for t in std::mem::take(&mut self.ring) {
            let st = self.tenants.get_mut(&t).expect("ring member registered");
            st.deficit = 0;
            st.ledger.shed += st.queue.len() as u64;
            out.extend(st.queue.drain(..));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: SimTime = SimTime::ZERO;

    fn door(window: usize, tiers: &[(&str, QosTier)], queue_depth: usize) -> Admission<u32> {
        let mut a = Admission::new(window);
        a.set_qos(QosConfig {
            tiers: tiers.iter().map(|(t, w)| ((*t).to_owned(), *w)).collect(),
            queue_depth,
            borrow: 0,
            ..QosConfig::default()
        });
        a
    }

    fn admitted(offer: Offer) -> Option<QosTag> {
        match offer {
            Offer::Admit(tag) => tag,
            other => panic!("expected an admit, got {other:?}"),
        }
    }

    /// Offer for `tenant` and park the result, which must be a queue.
    fn park(a: &mut Admission<u32>, tenant: &str, item: u32) {
        match a.offer(Some(tenant), true, T0) {
            Offer::Queue { tag, .. } => a.park(tag, item),
            other => panic!("expected a queue, got {other:?}"),
        }
    }

    #[test]
    fn plain_gate_sheds_on_a_full_window_before_it_looks_for_replicas() {
        let mut a: Admission<u32> = Admission::new(1);
        assert_eq!(a.offer(None, false, T0), Offer::Shed(NO_REPLICAS, None));
        assert_eq!(a.offer(Some("alice"), true, T0), Offer::Admit(None));
        assert_eq!(
            a.offer(None, false, T0),
            Offer::Shed("admission limit reached", None)
        );
        a.release(None);
        assert_eq!(a.in_flight(), 0);
        assert!(a.tenants().is_empty() && a.next_grant().is_none() && a.flush().is_empty());
    }

    #[test]
    fn tenant_stage_admits_to_quota_then_queues_then_sheds_and_the_ledger_adds_up() {
        // window 4, gold 4 : batch 1 → quotas 3 and 1 (never below one)
        let mut a = door(4, &[("gold", QosTier::Gold), ("batch", QosTier::Batch)], 1);
        let tag = admitted(a.offer(Some("batch"), true, T0)).expect("tagged");
        assert_eq!((tag.tenant.as_str(), tag.tier), ("batch", QosTier::Batch));
        park(&mut a, "batch", 7);
        assert!(matches!(
            a.offer(Some("batch"), true, T0),
            Offer::Shed("tenant queue full", Some(_))
        ));
        assert!(matches!(
            a.offer(Some("batch"), false, T0),
            Offer::Shed(NO_REPLICAS, Some(_))
        ));
        let snap = &a.tenants()["batch"];
        assert_eq!((snap.quota, snap.in_flight, snap.queued), (1, 1, 1));
        assert_eq!(
            (snap.issued, snap.accepted, snap.shed, snap.enqueued),
            (4, 1, 2, 1)
        );
        assert_eq!(a.tenants()["gold"].quota, 3);
        // anonymous traffic skips the tenant stage entirely
        assert_eq!(a.offer(None, true, T0), Offer::Admit(None));
        // the queued request is granted only once its tenant slot frees
        assert!(a.next_grant().is_none(), "batch is at quota");
        a.release(Some(&tag));
        let (granted, item) = a.next_grant().expect("slot freed");
        assert_eq!((granted.tenant.as_str(), item), ("batch", 7));
        assert_eq!(a.tenants()["batch"].accepted, 2);
    }

    #[test]
    fn grants_rotate_by_tier_weight_and_stop_at_the_window() {
        // window 10 → quotas 8 (gold) and 2 (batch); anonymous traffic fills
        // the window so both tenants back up behind it
        let mut a = door(10, &[("g", QosTier::Gold), ("b", QosTier::Batch)], 16);
        for _ in 0..10 {
            assert_eq!(a.offer(None, true, T0), Offer::Admit(None));
        }
        for i in 0..8 {
            park(&mut a, "g", i);
            park(&mut a, "b", 100 + i);
        }
        assert!(a.next_grant().is_none(), "window full");
        for _ in 0..10 {
            a.release(None);
        }
        let granted: Vec<u32> =
            std::iter::from_fn(|| a.next_grant().map(|(_, item)| item)).collect();
        // four gold grants per batch grant, each tenant in FIFO order
        assert_eq!(granted, [0, 1, 2, 3, 100, 4, 5, 6, 7, 101]);
        assert_eq!(a.in_flight(), 10);
    }

    /// Borrow gating on the raw admission state: an idle fleet lets a
    /// tenant run `borrow` slots past quota, but never while an
    /// under-quota tenant is waiting.
    #[test]
    fn qos_borrow_only_while_no_underquota_tenant_waits() {
        let mut a: Admission<()> = Admission::new(8);
        a.set_qos(QosConfig {
            tiers: [("a", QosTier::Gold), ("b", QosTier::Gold)]
                .map(|(t, tier)| (t.to_owned(), tier))
                .into(),
            borrow: 1,
            ..QosConfig::default()
        });
        fn set_in_flight(a: &mut Admission<()>, tenant: &str, n: usize) {
            a.tenants.get_mut(tenant).unwrap().ledger.in_flight = n;
        }
        fn may_admit(a: &Admission<()>, tenant: &str) -> bool {
            a.may_admit(&a.tenants[tenant], 1)
        }
        let tag = |tenant: &str| QosTag {
            tenant: tenant.to_owned(),
            tier: QosTier::Gold,
            submitted_at: T0,
        };
        // two gold tenants: quota = 8 * 4 / 8 = 4 each
        assert_eq!(a.quota(QosTier::Gold), 4);
        set_in_flight(&mut a, "a", 4);
        assert!(
            may_admit(&a, "a"),
            "at quota with nobody waiting: borrow slot available"
        );
        set_in_flight(&mut a, "a", 5);
        assert!(!may_admit(&a, "a"), "borrow is bounded to +1");
        // an under-quota tenant starts waiting: borrowing shuts off
        set_in_flight(&mut a, "a", 4);
        a.park(tag("b"), ());
        assert!(
            !may_admit(&a, "a"),
            "no borrowing while an under-quota tenant queues"
        );
        // ...but a waiting tenant already at its own quota does not
        // block the borrow
        set_in_flight(&mut a, "b", 4);
        assert!(may_admit(&a, "a"), "b is at quota, its backlog is its own");
        // a tenant with its own backlog must join the queue, not jump it
        set_in_flight(&mut a, "a", 0);
        a.park(tag("a"), ());
        assert!(
            !may_admit(&a, "a"),
            "FIFO: no admission past a non-empty own queue"
        );
    }

    #[test]
    fn flush_counts_every_parked_request_shed_exactly_once() {
        let mut a = door(1, &[("t", QosTier::Standard)], 8);
        admitted(a.offer(Some("t"), true, T0));
        park(&mut a, "t", 1);
        park(&mut a, "t", 2);
        let flushed: Vec<u32> = a.flush().into_iter().map(|(_, item)| item).collect();
        assert_eq!(flushed, [1, 2]);
        let snap = &a.tenants()["t"];
        assert_eq!(
            (snap.issued, snap.accepted, snap.shed, snap.queued),
            (3, 1, 2, 0)
        );
        assert!(a.flush().is_empty());
    }
}
