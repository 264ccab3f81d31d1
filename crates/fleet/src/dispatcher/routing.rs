//! Stage two of the front door: routing.
//!
//! Routing picks the replica for one attempt. It owns everything that
//! bears on the choice — the rotation itself (per replica slot: its
//! [`ReplicaId`], name, draining and probation flags and geo site), the
//! base [`Policy`] and its round-robin cursor, the probation probe window,
//! the canary share, the affinity pin table and the geo plane handle. The
//! dispatcher tells it when a slot joins, drains, leaves or changes
//! probation. [`Routing::route`] is a function of (those slots, their
//! outstanding counts, the affinity key, the clock); it returns the chosen
//! replica and, for a keyed request under affinity, a [`RouteOutcome`]
//! saying how the pin fared.
//!
//! The filters compose in a fixed order: draining replicas never count;
//! under a geo plane, replicas on a severed site drop out for the length
//! of the outage; then, while any reachable slot is on probation, most
//! routes see only the clean subset and every [`PROBE_EVERY`]th sees only
//! the probationers. A filter that has nothing to act on — no probation,
//! no plane — leaves the candidate list untouched, so routing without it
//! is bit-for-bit routing before it existed.
//!
//! A route reads handles, not names (DESIGN.md §9): each slot carries its
//! site, resolved once per geo placement epoch; a pin and the canary hold
//! their replica's id; the candidate lists live in scratch buffers kept
//! from route to route. A keyed hit allocates nothing and compares no
//! string. Names are still what rendezvous hashing scores, so a
//! reassignment is a pure function of (key, live names).

use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

use simkit::{Sim, SimTime};

use super::ops::ReplicaId;
use crate::geo::GeoPlane;

/// Replica-selection policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// Cycle through live replicas in order.
    RoundRobin,
    /// Pick the replica with the fewest outstanding requests (first wins
    /// ties).
    LeastOutstanding,
    /// Pick the replica whose appliance CPU has accumulated the least busy
    /// time, read straight from the recorder's `<name>.cpu.busy` series
    /// (the same rollup [`Sim::profile`] reports; first wins ties).
    /// Spreads load by *measured* work, not request counts.
    UtilizationWeighted,
}

impl Policy {
    /// All policies, for sweeps and property tests.
    pub const ALL: [Policy; 3] = [
        Policy::RoundRobin,
        Policy::LeastOutstanding,
        Policy::UtilizationWeighted,
    ];

    /// Short label for tables and span attributes.
    pub fn label(self) -> &'static str {
        match self {
            Policy::RoundRobin => "round-robin",
            Policy::LeastOutstanding => "least-outstanding",
            Policy::UtilizationWeighted => "utilization-weighted",
        }
    }
}

/// Session-affinity (sticky-routing) behaviour.
///
/// With affinity on, each invocation carrying a
/// [`super::Request::Invoke`] `principal` is pinned to one replica, so
/// that replica's per-`OnServe` grid-session cache keeps hitting instead
/// of every replica paying its own MyProxy delegation for the same
/// principal. Pins never outlive their replica: eject/drain orphans them
/// immediately, and an orphaned key is reassigned by rendezvous hash over
/// the live set — a pure function of (key, live replica names), so
/// same-seed runs replay byte-identically no matter how the loss
/// interleaved with traffic.
#[derive(Clone, Copy, Debug)]
pub struct AffinityConfig {
    /// Pinned keys kept at most; when full, the oldest pin is dropped and
    /// that key starts over as a fresh assignment.
    pub capacity: usize,
}

impl Default for AffinityConfig {
    fn default() -> Self {
        AffinityConfig { capacity: 1024 }
    }
}

/// Of every `PROBE_EVERY` routes made while any slot is on probation, one
/// may consider the probationers — so a recovering replica still sees
/// enough traffic for the detector to clear it.
const PROBE_EVERY: u64 = 8;

/// How affinity fared on one keyed route.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum RouteOutcome {
    /// Routed to the replica the key is pinned to.
    Hit,
    /// First sight of the key: placed by the base policy, now pinned.
    Miss,
    /// The pin could not be honoured; reassigned by rendezvous hash.
    Repin,
    /// The pinned replica sits behind a severed site: served by a peer
    /// for now, pin kept, so the principal comes home on reconnect.
    Forward,
}

/// What routing keeps about one replica slot, in rotation order.
struct RouteSlot {
    id: ReplicaId,
    /// Stable replica name: the rendezvous input, the geo placement key.
    name: Rc<str>,
    /// Its `<name>.cpu.busy` recorder key, for the utilization-weighted
    /// pick.
    busy_key: String,
    /// Out of rotation, finishing what it has.
    draining: bool,
    /// Probation-weighted by the gray-failure detector.
    probation: bool,
    /// Its geo site as a declaration index, as of [`Routing::placed_at`].
    site: Option<usize>,
}

/// A replica a pin or the canary names. Names in rotation are unique, so
/// while a slot of that name is in rotation `id` is that slot; it is
/// `None` while none is, and routing then looks the name up in case one
/// has joined since.
struct Target {
    id: Option<ReplicaId>,
    name: Rc<str>,
}

/// One affinity-table entry. An orphaned pin (`live == false`: its replica
/// was ejected or drained) keeps the replica's name so a geo plane can
/// still look up its home site; the key is reassigned on its next request.
struct Pin {
    replica: Target,
    live: bool,
}

/// Canary traffic share: while set, a deterministic counter sends
/// `share_pct`% of first-sight routes to the target replica instead of the
/// base-policy pick. No randomness — route `k` goes to the canary iff
/// `k % 100 < share_pct`, so replays are byte-identical.
struct CanaryShare {
    target: Target,
    share_pct: u32,
    cursor: u64,
}

/// FNV-1a: the pin table's hasher. Principals are short and the table's
/// iteration order reaches no output, so a fixed, cheap hash serves where
/// `std`'s seeded SipHash bought nothing. It gives up SipHash's resistance
/// to keys crafted to collide: principals here come from the simulation's
/// own workloads and the table is capacity-bounded, but a door facing
/// real clients would want the seeded hasher back.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Candidate lists a route fills, kept between routes: once they have
/// grown to the rotation's size a route allocates nothing.
#[derive(Default)]
struct Scratch {
    /// Slot indices the route may pick from, after the filters.
    live: Vec<usize>,
    /// The subset of `live` on one site.
    near: Vec<usize>,
}

/// Rendezvous (highest-random-weight) score of `replica` for `key`:
/// FNV-1a over both names, finished with a splitmix64 mix. Deliberately
/// hand-rolled — `std`'s default hasher is randomly seeded per process,
/// which would break byte-identical replays.
pub(super) fn rendezvous_score(key: &str, replica: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key
        .as_bytes()
        .iter()
        .chain(&[0xff])
        .chain(replica.as_bytes())
    {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// The first of `among` with the smallest `key` — every pick below is
/// this, so ties always go to the earlier slot.
fn first_min<K: PartialOrd>(among: &[usize], key: impl Fn(usize) -> K) -> usize {
    let mut best = (among[0], key(among[0]));
    for &i in &among[1..] {
        let k = key(i);
        if k < best.1 {
            best = (i, k);
        }
    }
    best.0
}

/// The routing stage. See the module docs.
pub(super) struct Routing {
    policy: Policy,
    rr_cursor: usize,
    /// Counts routes made while probation is active, for the probe window.
    probe_cursor: u64,
    canary: Option<CanaryShare>,
    affinity: Option<AffinityConfig>,
    /// The rotation, in the order replicas joined.
    slots: Vec<RouteSlot>,
    /// The bounded `principal → replica` pin table…
    pins: HashMap<Rc<str>, Pin, BuildHasherDefault<Fnv>>,
    /// …and its keys in insertion order, for capacity eviction.
    pin_order: VecDeque<Rc<str>>,
    geo: Option<Rc<GeoPlane>>,
    /// The geo placement epoch every slot's `site` was resolved at; `None`
    /// until a route has resolved them under the current plane.
    placed_at: Option<u64>,
    scratch: Scratch,
}

impl Routing {
    pub fn new(policy: Policy, affinity: Option<AffinityConfig>) -> Routing {
        Routing {
            policy,
            rr_cursor: 0,
            probe_cursor: 0,
            canary: None,
            affinity,
            slots: Vec::new(),
            pins: HashMap::default(),
            pin_order: VecDeque::new(),
            geo: None,
            placed_at: None,
            scratch: Scratch::default(),
        }
    }

    // -- the rotation ----------------------------------------------------------

    /// A new replica joins the rotation, last. Its name must not be in
    /// rotation already.
    pub fn add_slot(&mut self, id: ReplicaId, name: &str) {
        debug_assert!(
            self.in_rotation(name).is_none(),
            "{name} is in rotation twice"
        );
        self.slots.push(RouteSlot {
            id,
            name: Rc::from(name),
            busy_key: format!("{name}.cpu.busy"),
            draining: false,
            probation: false,
            site: self.geo.as_ref().and_then(|g| g.site_index(name)),
        });
    }

    /// Take the in-rotation slot called `name` out of rotation: it gets no
    /// new work, sticky or not, so its pins are orphaned. Returns its id,
    /// or `None` if no slot of that name is in rotation.
    pub fn drain(&mut self, name: &str) -> Option<ReplicaId> {
        let i = self.live_slot(name)?;
        self.slots[i].draining = true;
        let id = self.slots[i].id;
        self.forget_canary(id);
        self.orphan_replica(name);
        Some(id)
    }

    /// Drop `id`'s slot, draining or not. Its pins are orphaned by
    /// [`Routing::orphan_replica`], which an eject calls after the exit
    /// hook.
    pub fn remove(&mut self, id: ReplicaId) {
        self.slots.retain(|s| s.id != id);
        self.forget_canary(id);
    }

    /// A slot leaving rotation stops being the canary's target by id.
    fn forget_canary(&mut self, id: ReplicaId) {
        if let Some(c) = &mut self.canary {
            if c.target.id == Some(id) {
                c.target.id = None;
            }
        }
    }

    /// The first slot called `name`, in rotation or draining.
    pub fn find(&self, name: &str) -> Option<ReplicaId> {
        let slot = self.slots.iter().find(|s| *s.name == *name);
        slot.map(|s| s.id)
    }

    /// The index of the in-rotation slot called `name`.
    fn live_slot(&self, name: &str) -> Option<usize> {
        let live = |s: &RouteSlot| !s.draining && *s.name == *name;
        self.slots.iter().position(live)
    }

    /// The in-rotation slot called `name`.
    fn in_rotation(&self, name: &str) -> Option<ReplicaId> {
        self.live_slot(name).map(|i| self.slots[i].id)
    }

    /// Put the in-rotation slot `name` on (or take it off) probation.
    /// Returns `false` if no slot of that name is in rotation.
    pub fn set_probation(&mut self, name: &str, on: bool) -> bool {
        let Some(i) = self.live_slot(name) else {
            return false;
        };
        self.slots[i].probation = on;
        true
    }

    /// Slots in rotation.
    pub fn live_count(&self) -> usize {
        self.slots.iter().filter(|s| !s.draining).count()
    }

    /// Slots in rotation on probation.
    pub fn probation_count(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| !s.draining && s.probation)
            .count()
    }

    /// Is `id`'s slot draining?
    pub fn is_draining(&self, id: ReplicaId) -> bool {
        self.slots.iter().any(|s| s.id == id && s.draining)
    }

    /// The slots in rotation, in rotation order.
    pub fn live_ids(&self) -> impl Iterator<Item = ReplicaId> + '_ {
        self.slots.iter().filter(|s| !s.draining).map(|s| s.id)
    }

    /// Every slot, draining ones included, that the attached geo plane
    /// places on `site`. None without a plane.
    pub fn on_site(&self, site: &str) -> Vec<ReplicaId> {
        let Some(g) = &self.geo else {
            return Vec::new();
        };
        let placed = |s: &RouteSlot| g.site_index(&s.name).map(|i| &*g.map().sites()[i]);
        let here = |s: &&RouteSlot| placed(s) == Some(site);
        self.slots.iter().filter(here).map(|s| s.id).collect()
    }

    // -- the route -------------------------------------------------------------

    /// Deterministic replica choice for one attempt; `None` when nothing
    /// is in rotation — or, under a geo plane, when every slot's site is
    /// dark (the request sheds at the door rather than being fed into a
    /// partition). `outstanding` reads a slot's attempts in flight. The
    /// outcome is `None` when affinity is off or the request carries no
    /// key.
    pub fn route(
        &mut self,
        sim: &Sim,
        outstanding: impl Fn(ReplicaId) -> usize,
        key: Option<&str>,
    ) -> Option<(ReplicaId, Option<RouteOutcome>)> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let routed = self.route_over(sim, &outstanding, key, &mut scratch);
        self.scratch = scratch;
        routed.map(|(i, outcome)| (self.slots[i].id, outcome))
    }

    /// [`Routing::route`] as a slot index, over the scratch lists `s`.
    fn route_over(
        &mut self,
        sim: &Sim,
        outstanding: &impl Fn(ReplicaId) -> usize,
        key: Option<&str>,
        s: &mut Scratch,
    ) -> Option<(usize, Option<RouteOutcome>)> {
        let geo = self.geo.clone();
        let geo = geo.as_deref();
        if let Some(plane) = geo {
            self.resolve_sites(plane);
        }
        self.reachable(geo, sim.now(), &mut s.live);
        if s.live.is_empty() {
            return None;
        }
        self.probe_window(&mut s.live);
        let Some((affinity, key)) = self.affinity.zip(key) else {
            return Some((self.first_sight(sim, geo, s, outstanding), None));
        };
        let Some(pin) = self.pins.get(key) else {
            // first sight of the key: the canary takes its share, then
            // the base policy spreads the rest; either way the choice
            // sticks
            let i = self.first_sight(sim, geo, s, outstanding);
            self.pin(key, i, affinity.capacity);
            return Some((i, Some(RouteOutcome::Miss)));
        };
        // Eject and drain orphan the pin, so a live pin normally resolves;
        // it can still miss the candidate list through the probation or
        // severed-site filters.
        let pinned = pin.live.then(|| self.resolve(&pin.replica)).flatten();
        if let Some(id) = pinned {
            if let Some(&i) = s.live.iter().find(|&&i| self.slots[i].id == id) {
                return Some((i, Some(RouteOutcome::Hit)));
            }
        }
        // The pin cannot be honoured: reassign by rendezvous hash, a pure
        // function of (key, live names) — independent of how retries
        // interleaved with the loss. Under a geo plane the peers nearest
        // the pinned replica's home site come first (placements outlive
        // the replica), keeping sessions local.
        let home = geo.and_then(|plane| plane.site_index(&pin.replica.name));
        let among = match geo.zip(home) {
            Some((plane, home)) if self.home_peers(plane, home, &s.live, &mut s.near) => &s.near,
            _ => &s.live,
        };
        let i = first_min(among, |i| {
            Reverse(rendezvous_score(key, &self.slots[i].name))
        });
        if let (Some(plane), Some(home), Some(_)) = (geo, home, pinned) {
            // HTCondor-C-style forwarding: the pinned replica is still in
            // rotation but its site is severed. Serve the principal from
            // the peer *without* re-pinning — the pin survives the outage,
            // so the session comes home on reconnect.
            if plane.federation() && plane.severed(home, sim.now()) {
                plane.note_forward();
                return Some((i, Some(RouteOutcome::Forward)));
            }
        }
        self.pin(key, i, affinity.capacity);
        Some((i, Some(RouteOutcome::Repin)))
    }

    /// Bring every slot's site up to the plane's placement epoch.
    fn resolve_sites(&mut self, plane: &GeoPlane) {
        let epoch = plane.placement_epoch();
        if self.placed_at == Some(epoch) {
            return;
        }
        for slot in &mut self.slots {
            slot.site = plane.site_index(&slot.name);
        }
        self.placed_at = Some(epoch);
    }

    /// Fill `live` with the slots a route may consider: in rotation and,
    /// under a geo plane, not behind a severed site (an unplaced slot
    /// never is).
    fn reachable(&self, geo: Option<&GeoPlane>, now: SimTime, live: &mut Vec<usize>) {
        let up = |slot: &RouteSlot| match geo.zip(slot.site) {
            Some((plane, site)) => !plane.severed(site, now),
            None => true,
        };
        live.clear();
        let open = self.slots.iter().enumerate();
        live.extend(open.filter(|(_, s)| !s.draining && up(s)).map(|(i, _)| i));
    }

    /// The probation filter over the reachable set. The probe cursor moves
    /// only while some reachable slot is on probation; when every one is,
    /// the filter is a no-op: keep serving rather than shed.
    fn probe_window(&mut self, live: &mut Vec<usize>) {
        let probed = live.iter().filter(|&&i| self.slots[i].probation).count();
        if probed == 0 {
            return;
        }
        let k = self.probe_cursor;
        self.probe_cursor = k.wrapping_add(1);
        if probed < live.len() {
            let probe = k.is_multiple_of(PROBE_EVERY);
            live.retain(|&i| self.slots[i].probation == probe);
        }
    }

    /// The slot a pin or the canary targets, if it is in rotation.
    fn resolve(&self, target: &Target) -> Option<ReplicaId> {
        target.id.or_else(|| self.in_rotation(&target.name))
    }

    /// Fill `near` with the `live` slots on the nearest site to `from`
    /// that holds any. `false` if none is placed.
    fn home_peers(
        &self,
        plane: &GeoPlane,
        from: usize,
        live: &[usize],
        near: &mut Vec<usize>,
    ) -> bool {
        for &site in plane.nearest_from(from) {
            near.clear();
            near.extend(
                live.iter()
                    .copied()
                    .filter(|&i| self.slots[i].site == Some(site)),
            );
            if !near.is_empty() {
                return true;
            }
        }
        false
    }

    /// A pick for a request with no pin to honour: the canary's claim if
    /// it has one, else the base policy — within the nearest site that has
    /// an open replica under a geo plane, over the whole list without one.
    fn first_sight(
        &mut self,
        sim: &Sim,
        geo: Option<&GeoPlane>,
        s: &mut Scratch,
        outstanding: &impl Fn(ReplicaId) -> usize,
    ) -> usize {
        if let Some(i) = self.canary_claim(&s.live) {
            return i;
        }
        if let Some(plane) = geo {
            let spill = plane.spill_threshold();
            for &site in plane.nearest_from(plane.origin_index()) {
                s.near.clear();
                let open = s.live.iter().copied().filter(|&i| {
                    let slot = &self.slots[i];
                    slot.site == Some(site) && outstanding(slot.id) < spill
                });
                s.near.extend(open);
                if !s.near.is_empty() {
                    return self.pick_base(sim, &s.near, outstanding);
                }
                // nothing open on this site: spill to the next-nearest one
            }
            // every placed site saturated, or no replica placed at all
        }
        self.pick_base(sim, &s.live, outstanding)
    }

    /// The canary's claim on this first-sight route, if a share is set:
    /// route `k` (counter, not clock) goes to the canary iff
    /// `k % 100 < share_pct` and the canary is in the live set. The
    /// counter moves on every first-sight route either way; a crashed or
    /// draining canary simply stops claiming routes.
    fn canary_claim(&mut self, live: &[usize]) -> Option<usize> {
        let c = self.canary.as_mut()?;
        let k = c.cursor;
        c.cursor = k.wrapping_add(1);
        if k % 100 >= u64::from(c.share_pct) {
            return None;
        }
        let id = self.resolve(&self.canary.as_ref()?.target)?;
        live.iter().copied().find(|&i| self.slots[i].id == id)
    }

    /// Pin `key` to slot `i`, evicting the oldest key at capacity.
    fn pin(&mut self, key: &str, i: usize, capacity: usize) {
        let slot = &self.slots[i];
        let pin = Pin {
            replica: Target {
                id: Some(slot.id),
                name: Rc::clone(&slot.name),
            },
            live: true,
        };
        if let Some(p) = self.pins.get_mut(key) {
            *p = pin;
            return;
        }
        while self.pin_order.len() >= capacity.max(1) {
            if let Some(old) = self.pin_order.pop_front() {
                self.pins.remove(&old);
            }
        }
        let key: Rc<str> = Rc::from(key);
        self.pins.insert(Rc::clone(&key), pin);
        self.pin_order.push_back(key);
    }

    /// The configured base [`Policy`] over `among`.
    fn pick_base(
        &mut self,
        sim: &Sim,
        among: &[usize],
        outstanding: &impl Fn(ReplicaId) -> usize,
    ) -> usize {
        match self.policy {
            Policy::RoundRobin => {
                let k = self.rr_cursor;
                self.rr_cursor = k.wrapping_add(1);
                among[k % among.len()]
            }
            Policy::LeastOutstanding => first_min(among, |i| outstanding(self.slots[i].id)),
            Policy::UtilizationWeighted => {
                let recorder = sim.recorder_ref();
                first_min(among, |i| recorder.total(&self.slots[i].busy_key))
            }
        }
    }

    // -- planes --------------------------------------------------------------

    /// Attach the geo plane: severed sites leave the candidate list,
    /// first-sight picks go nearest-site-first, reassignment prefers the
    /// home site's peers.
    pub fn set_geo(&mut self, plane: Rc<GeoPlane>) {
        self.geo = Some(plane);
        self.placed_at = None;
    }

    /// The attached geo plane, if any.
    pub fn geo(&self) -> Option<&Rc<GeoPlane>> {
        self.geo.as_ref()
    }

    /// A target named `name`, bound to its slot if it is in rotation.
    fn target(&self, name: &str) -> Target {
        Target {
            id: self.in_rotation(name),
            name: Rc::from(name),
        }
    }

    /// Send `share_pct`% of first-sight routes to `target`; the counter
    /// restarts at zero so same-seed replays shift the same requests.
    pub fn set_canary(&mut self, target: &str, share_pct: u32) {
        assert!(share_pct <= 100, "canary share is a percentage");
        self.canary = Some(CanaryShare {
            target: self.target(target),
            share_pct,
            cursor: 0,
        });
    }

    /// End the canary share.
    pub fn clear_canary(&mut self) {
        self.canary = None;
    }

    /// The replica currently receiving the canary share, if any.
    pub fn canary_target(&self) -> Option<String> {
        self.canary.as_ref().map(|c| c.target.name.to_string())
    }

    // -- pins ----------------------------------------------------------------

    /// Orphan every pin pointing at `replica` (loss/drain invalidation).
    pub fn orphan_replica(&mut self, replica: &str) {
        let named = self
            .pins
            .values_mut()
            .filter(|p| *p.replica.name == *replica);
        for p in named {
            p.live = false;
        }
    }

    /// Count live pins per slot in rotation — zero-pin slots included.
    pub fn live_pin_counts(&self) -> BTreeMap<String, usize> {
        let live = self.slots.iter().filter(|s| !s.draining);
        let mut counts: BTreeMap<String, usize> = live.map(|s| (s.name.to_string(), 0)).collect();
        for p in self.pins.values().filter(|p| p.live) {
            if let Some(c) = counts.get_mut(&*p.replica.name) {
                *c += 1;
            }
        }
        counts
    }

    /// Shift the top `fraction` of live pins not already on `target` onto
    /// it, ranked by [`rendezvous_score`]`(key, target)`. Returns the
    /// shifted `(key, previous replica)` pairs in rank order.
    pub fn shift_pins(&mut self, target: &str, fraction: f64) -> Vec<(String, String)> {
        assert!((0.0..=1.0).contains(&fraction), "fraction in [0, 1]");
        let mut ranked: Vec<(u64, Rc<str>)> = self
            .pins
            .iter()
            .filter(|(_, p)| p.live && *p.replica.name != *target)
            .map(|(k, _)| (rendezvous_score(k, target), Rc::clone(k)))
            .collect();
        ranked.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        let n = (ranked.len() as f64 * fraction).round() as usize;
        ranked.truncate(n);
        let onto = self.target(target);
        ranked
            .into_iter()
            .filter_map(|(_, key)| {
                let pin = self.pins.get_mut(&key)?;
                let to = Target {
                    id: onto.id,
                    name: Rc::clone(&onto.name),
                };
                let prev = std::mem::replace(&mut pin.replica, to);
                Some((key.to_string(), prev.name.to_string()))
            })
            .collect()
    }

    /// Undo a [`Routing::shift_pins`]: every listed pin still live on
    /// `target` goes back to its previous replica — orphaned there if
    /// that replica has since left rotation. Returns how many pins were
    /// restored.
    pub fn restore_pins(&mut self, target: &str, shifted: &[(String, String)]) -> usize {
        let mut restored = 0;
        for (key, prev) in shifted {
            let back = self.target(prev);
            match self.pins.get_mut(key.as_str()) {
                Some(p) if p.live && *p.replica.name == *target => {
                    p.live = back.id.is_some();
                    p.replica = back;
                    restored += 1;
                }
                _ => {}
            }
        }
        restored
    }

    /// The replica `key`'s live pin targets, if any.
    pub fn pin_target(&self, key: &str) -> Option<String> {
        let pin = self.pins.get(key).filter(|p| p.live);
        pin.map(|p| p.replica.name.to_string())
    }

    /// Every live pin as sorted `(key, replica)` pairs.
    pub fn live_pins(&self) -> Vec<(String, String)> {
        let mut pins: Vec<(String, String)> = self
            .pins
            .iter()
            .filter(|(_, p)| p.live)
            .map(|(k, p)| (k.to_string(), p.replica.name.to_string()))
            .collect();
        pins.sort();
        pins
    }
}

/// Routing as it was before it kept its own slots: a function of a
/// per-route `Vec` of [`reference::Candidate`]s built from the
/// dispatcher's slot list, pins and the canary compared by name, sites
/// looked up per candidate — with the severed-site filter ahead of the
/// probation split. Kept as the executable reference
/// `tests::route_matches_the_reference` holds the slot-handle stage to,
/// route for route.
#[cfg(test)]
mod reference {
    use std::cmp::Reverse;
    use std::collections::{BTreeMap, HashMap, VecDeque};
    use std::rc::Rc;

    use simkit::Sim;

    use super::{first_min, rendezvous_score, AffinityConfig, Policy, RouteOutcome, PROBE_EVERY};
    use crate::geo::GeoPlane;

    /// What routing may know about one replica slot.
    pub struct Candidate<'a> {
        pub name: &'a str,
        pub outstanding: usize,
        pub draining: bool,
        pub probation: bool,
        pub busy_key: &'a str,
    }

    struct Pin {
        replica: String,
        live: bool,
    }

    fn pick_rendezvous(key: &str, view: &[Candidate<'_>], among: &[usize]) -> usize {
        first_min(among, |i| Reverse(rendezvous_score(key, view[i].name)))
    }

    struct CanaryShare {
        target: String,
        share_pct: u32,
        cursor: u64,
    }

    struct Placed<'g> {
        plane: &'g GeoPlane,
        site: Vec<Option<usize>>,
    }

    impl Placed<'_> {
        fn outward<'a>(
            &'a self,
            from: usize,
            among: &'a [usize],
        ) -> impl Iterator<Item = Vec<usize>> + 'a {
            let sites = self.plane.nearest_from(from).iter();
            sites.filter_map(move |&site| {
                let group: Vec<usize> = among
                    .iter()
                    .copied()
                    .filter(|&i| self.site[i] == Some(site))
                    .collect();
                (!group.is_empty()).then_some(group)
            })
        }
    }

    pub struct Routing {
        policy: Policy,
        rr_cursor: usize,
        probe_cursor: u64,
        canary: Option<CanaryShare>,
        affinity: Option<AffinityConfig>,
        pins: HashMap<String, Pin>,
        pin_order: VecDeque<String>,
        geo: Option<Rc<GeoPlane>>,
    }

    impl Routing {
        pub fn new(policy: Policy, affinity: Option<AffinityConfig>) -> Routing {
            Routing {
                policy,
                rr_cursor: 0,
                probe_cursor: 0,
                canary: None,
                affinity,
                pins: HashMap::new(),
                pin_order: VecDeque::new(),
                geo: None,
            }
        }

        pub fn route(
            &mut self,
            sim: &Sim,
            view: &[Candidate<'_>],
            key: Option<&str>,
        ) -> Option<(usize, Option<RouteOutcome>)> {
            let mut live: Vec<usize> = (0..view.len()).filter(|&i| !view[i].draining).collect();
            if live.is_empty() {
                return None;
            }
            let geo = self.geo.clone();
            let placed = geo.as_deref().map(|plane| Placed {
                plane,
                site: view.iter().map(|c| plane.site_index(c.name)).collect(),
            });
            if let Some(p) = &placed {
                let up = |site: usize| !p.plane.severed(site, sim.now());
                live.retain(|&i| p.site[i].is_none_or(up));
                if live.is_empty() {
                    return None;
                }
            }
            if live.iter().any(|&i| view[i].probation) {
                let k = self.probe_cursor;
                self.probe_cursor = k.wrapping_add(1);
                let (probed, clean): (Vec<usize>, Vec<usize>) =
                    live.iter().partition(|&&i| view[i].probation);
                if !clean.is_empty() {
                    live = if k.is_multiple_of(PROBE_EVERY) {
                        probed
                    } else {
                        clean
                    };
                }
            }
            let Some((affinity, key)) = self.affinity.zip(key) else {
                let i = self.first_sight(sim, placed.as_ref(), view, &live);
                return Some((i, None));
            };
            let Some(pin) = self.pins.get(key) else {
                let i = self.first_sight(sim, placed.as_ref(), view, &live);
                self.pin(key, view[i].name, affinity.capacity);
                return Some((i, Some(RouteOutcome::Miss)));
            };
            if pin.live {
                if let Some(&i) = live.iter().find(|&&i| view[i].name == pin.replica) {
                    return Some((i, Some(RouteOutcome::Hit)));
                }
            }
            let home = placed
                .as_ref()
                .and_then(|p| p.plane.site_index(&pin.replica));
            let peers = placed
                .as_ref()
                .zip(home)
                .and_then(|(p, home)| p.outward(home, &live).next());
            let i = pick_rendezvous(key, view, peers.as_deref().unwrap_or(&live));
            if let (Some(p), Some(home), true) = (&placed, home, pin.live) {
                let in_rotation = view.iter().any(|c| !c.draining && c.name == pin.replica);
                if p.plane.federation() && p.plane.severed(home, sim.now()) && in_rotation {
                    p.plane.note_forward();
                    return Some((i, Some(RouteOutcome::Forward)));
                }
            }
            self.pin(key, view[i].name, affinity.capacity);
            Some((i, Some(RouteOutcome::Repin)))
        }

        fn first_sight(
            &mut self,
            sim: &Sim,
            placed: Option<&Placed<'_>>,
            view: &[Candidate<'_>],
            live: &[usize],
        ) -> usize {
            if let Some(i) = self.canary_claim(view, live) {
                return i;
            }
            if let Some(p) = placed {
                let spill = p.plane.spill_threshold();
                for site in p.outward(p.plane.origin_index(), live) {
                    let open: Vec<usize> = site
                        .into_iter()
                        .filter(|&i| view[i].outstanding < spill)
                        .collect();
                    if !open.is_empty() {
                        return self.pick_base(sim, view, &open);
                    }
                }
            }
            self.pick_base(sim, view, live)
        }

        fn canary_claim(&mut self, view: &[Candidate<'_>], live: &[usize]) -> Option<usize> {
            let c = self.canary.as_mut()?;
            let k = c.cursor;
            c.cursor = k.wrapping_add(1);
            if k % 100 >= u64::from(c.share_pct) {
                return None;
            }
            live.iter().copied().find(|&i| view[i].name == c.target)
        }

        fn pin(&mut self, key: &str, replica: &str, capacity: usize) {
            let pin = Pin {
                replica: replica.to_owned(),
                live: true,
            };
            if let Some(p) = self.pins.get_mut(key) {
                *p = pin;
                return;
            }
            while self.pin_order.len() >= capacity.max(1) {
                if let Some(old) = self.pin_order.pop_front() {
                    self.pins.remove(&old);
                }
            }
            self.pins.insert(key.to_owned(), pin);
            self.pin_order.push_back(key.to_owned());
        }

        fn pick_base(&mut self, sim: &Sim, view: &[Candidate<'_>], among: &[usize]) -> usize {
            match self.policy {
                Policy::RoundRobin => {
                    let k = self.rr_cursor;
                    self.rr_cursor = k.wrapping_add(1);
                    among[k % among.len()]
                }
                Policy::LeastOutstanding => first_min(among, |i| view[i].outstanding),
                Policy::UtilizationWeighted => {
                    let recorder = sim.recorder_ref();
                    first_min(among, |i| recorder.total(view[i].busy_key))
                }
            }
        }

        pub fn set_geo(&mut self, plane: Rc<GeoPlane>) {
            self.geo = Some(plane);
        }

        pub fn set_canary(&mut self, target: &str, share_pct: u32) {
            self.canary = Some(CanaryShare {
                target: target.to_owned(),
                share_pct,
                cursor: 0,
            });
        }

        pub fn clear_canary(&mut self) {
            self.canary = None;
        }

        pub fn orphan_replica(&mut self, replica: &str) {
            for p in self.pins.values_mut().filter(|p| p.replica == replica) {
                p.live = false;
            }
        }

        pub fn live_pin_counts<'a>(
            &self,
            live: impl Iterator<Item = &'a str>,
        ) -> BTreeMap<String, usize> {
            let mut counts: BTreeMap<String, usize> =
                live.map(|name| (name.to_owned(), 0)).collect();
            for p in self.pins.values().filter(|p| p.live) {
                if let Some(c) = counts.get_mut(&p.replica) {
                    *c += 1;
                }
            }
            counts
        }

        pub fn shift_pins(&mut self, target: &str, fraction: f64) -> Vec<(String, String)> {
            let mut ranked: Vec<(u64, String, String)> = self
                .pins
                .iter()
                .filter(|(_, p)| p.live && p.replica != target)
                .map(|(k, p)| (rendezvous_score(k, target), k.clone(), p.replica.clone()))
                .collect();
            ranked.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
            let n = (ranked.len() as f64 * fraction).round() as usize;
            ranked.truncate(n);
            ranked
                .into_iter()
                .map(|(_, key, prev)| {
                    let pin = self.pins.get_mut(&key).expect("ranked from the table");
                    target.clone_into(&mut pin.replica);
                    (key, prev)
                })
                .collect()
        }

        pub fn restore_pins(
            &mut self,
            target: &str,
            shifted: &[(String, String)],
            in_rotation: impl Fn(&str) -> bool,
        ) -> usize {
            let mut restored = 0;
            for (key, prev) in shifted {
                match self.pins.get_mut(key) {
                    Some(p) if p.live && p.replica == target => {
                        prev.clone_into(&mut p.replica);
                        p.live = in_rotation(prev);
                        restored += 1;
                    }
                    _ => {}
                }
            }
            restored
        }

        pub fn pin_target(&self, key: &str) -> Option<String> {
            self.pins
                .get(key)
                .filter(|p| p.live)
                .map(|p| p.replica.clone())
        }

        pub fn live_pins(&self) -> Vec<(String, String)> {
            let mut pins: Vec<(String, String)> = self
                .pins
                .iter()
                .filter(|(_, p)| p.live)
                .map(|(k, p)| (k.clone(), p.replica.clone()))
                .collect();
            pins.sort();
            pins
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::SiteMap;
    use proptest::prelude::{ProptestConfig, Strategy};
    use simkit::Duration;

    /// Slots named `names` joined in order; returns their ids. Slot `i`
    /// gets id `i`, so a load table indexes by [`ReplicaId::index`].
    fn join(r: &mut Routing, names: &[&str]) -> Vec<ReplicaId> {
        let ids: Vec<ReplicaId> = (0..names.len()).map(ReplicaId::nth).collect();
        for (&id, name) in ids.iter().zip(names) {
            r.add_slot(id, name);
        }
        ids
    }

    fn idle(_: ReplicaId) -> usize {
        0
    }

    fn sticky(policy: Policy) -> Routing {
        Routing::new(policy, Some(AffinityConfig::default()))
    }

    #[test]
    fn keyed_routes_miss_then_hit_and_unkeyed_routes_never_pin() {
        let sim = Sim::new(1);
        let mut r = sticky(Policy::RoundRobin);
        let ids = join(&mut r, &["a", "b"]);
        assert_eq!(r.route(&sim, idle, None), Some((ids[0], None)));
        assert_eq!(
            r.route(&sim, idle, Some("k")),
            Some((ids[1], Some(RouteOutcome::Miss)))
        );
        assert_eq!(
            r.route(&sim, idle, Some("k")),
            Some((ids[1], Some(RouteOutcome::Hit)))
        );
        assert_eq!(r.live_pins(), [("k".to_owned(), "b".to_owned())]);
        // without affinity a key is just ignored
        let mut plain = Routing::new(Policy::RoundRobin, None);
        let ids = join(&mut plain, &["a", "b"]);
        assert_eq!(plain.route(&sim, idle, Some("k")), Some((ids[0], None)));
        assert!(plain.live_pins().is_empty());
    }

    #[test]
    fn an_orphaned_pin_reassigns_by_rendezvous_and_draining_slots_never_serve() {
        let sim = Sim::new(2);
        let names = ["a", "b", "c"];
        let mut r = sticky(Policy::RoundRobin);
        let ids = join(&mut r, &names);
        let (first, _) = r.route(&sim, idle, Some("k")).expect("routed");
        let lost = names[first.index()];
        assert_eq!(r.drain(lost), Some(first));
        assert_eq!(r.pin_target("k"), None, "draining orphans the pin");
        let (next, outcome) = r.route(&sim, idle, Some("k")).expect("two remain");
        assert_eq!(outcome, Some(RouteOutcome::Repin));
        let survivors = names.iter().filter(|&&n| n != lost);
        let best = survivors
            .max_by_key(|n| rendezvous_score("k", n))
            .expect("two");
        assert_eq!(names[next.index()], *best);
        assert_eq!(r.pin_target("k").as_deref(), Some(*best));
        for name in names {
            r.drain(name);
        }
        assert_eq!(r.route(&sim, idle, None), None);
        assert_eq!((r.live_count(), r.find("a")), (0, Some(ids[0])));
    }

    #[test]
    fn probationers_see_one_route_in_eight_and_the_cursor_rests_without_them() {
        let sim = Sim::new(3);
        let mut r = Routing::new(Policy::RoundRobin, None);
        let ids = join(&mut r, &["sick", "well"]);
        assert!(r.set_probation("sick", true));
        let picks: Vec<ReplicaId> = (0..16)
            .map(|_| r.route(&sim, idle, None).expect("routed").0)
            .collect();
        let probes: Vec<usize> = (0..16).filter(|&k| picks[k] == ids[0]).collect();
        assert_eq!(probes, [0, 8]);
        r.set_probation("sick", false);
        r.route(&sim, idle, None);
        assert_eq!(r.probe_cursor, 16, "no probation, no cursor movement");
        // a fleet that is all probation keeps serving
        r.set_probation("sick", true);
        r.set_probation("well", true);
        assert_eq!(r.probation_count(), 2);
        assert!(r.route(&sim, idle, None).is_some());
    }

    #[test]
    fn the_canary_claims_its_share_of_first_sight_routes_only() {
        let sim = Sim::new(4);
        let mut r = sticky(Policy::LeastOutstanding);
        let ids = join(&mut r, &["stable", "canary"]);
        r.route(&sim, idle, Some("pinned"));
        r.set_canary("canary", 25);
        assert_eq!(r.canary_target().as_deref(), Some("canary"));
        let claimed = (0..100)
            .filter(|_| r.route(&sim, idle, None).expect("routed").0 == ids[1])
            .count();
        assert_eq!(claimed, 25);
        assert_eq!(
            r.route(&sim, idle, Some("pinned")),
            Some((ids[0], Some(RouteOutcome::Hit)))
        );
        r.clear_canary();
        assert_eq!(r.route(&sim, idle, None), Some((ids[0], None)));
    }

    #[test]
    fn a_canary_named_before_it_joins_claims_once_it_is_in_rotation() {
        let sim = Sim::new(4);
        let mut r = Routing::new(Policy::RoundRobin, None);
        join(&mut r, &["stable"]);
        r.set_canary("late", 100);
        assert_eq!(r.route(&sim, idle, None), Some((ReplicaId::nth(0), None)));
        let late = ReplicaId::nth(1);
        r.add_slot(late, "late");
        assert_eq!(r.route(&sim, idle, None), Some((late, None)));
        r.drain("late");
        assert_eq!(r.route(&sim, idle, None), Some((ReplicaId::nth(0), None)));
        // a replica rejoining under the canary's name is the canary again
        let again = ReplicaId::nth(2);
        r.add_slot(again, "late");
        assert_eq!(r.route(&sim, idle, None), Some((again, None)));
    }

    fn two_sites() -> Rc<GeoPlane> {
        let mut map = SiteMap::new();
        map.add_site("east");
        map.add_site("west");
        map.link("east", "west", Duration::from_millis(50), 1e9);
        let geo = GeoPlane::new(map);
        for (replica, site) in [("e1", "east"), ("e2", "east"), ("w1", "west")] {
            geo.assign(replica, site);
        }
        geo
    }

    #[test]
    fn geo_routes_near_first_spills_when_saturated_and_sheds_when_all_dark() {
        let mut sim = Sim::new(5);
        let geo = two_sites();
        geo.set_spill_threshold(2);
        geo.set_origin("west");
        let mut r = Routing::new(Policy::LeastOutstanding, None);
        r.set_geo(Rc::clone(&geo));
        let ids = join(&mut r, &["e1", "e2", "w1"]);
        assert_eq!(r.on_site("west"), [ids[2]]);
        let near_open = |id: ReplicaId| [0, 0, 1][id.index()];
        assert_eq!(r.route(&sim, near_open, None).map(|(i, _)| i), Some(ids[2]));
        let near_full = |id: ReplicaId| [1, 0, 2][id.index()];
        assert_eq!(r.route(&sim, near_full, None).map(|(i, _)| i), Some(ids[1]));
        geo.add_outage("west", SimTime::from_secs(10), SimTime::from_secs(20));
        geo.add_outage("east", SimTime::from_secs(15), SimTime::from_secs(20));
        sim.run_until(SimTime::from_secs(12));
        assert_eq!(r.route(&sim, near_open, None).map(|(i, _)| i), Some(ids[0]));
        sim.run_until(SimTime::from_secs(16));
        assert_eq!(r.route(&sim, near_open, None), None);
    }

    #[test]
    fn a_moved_placement_is_read_at_the_next_route() {
        let sim = Sim::new(5);
        let geo = two_sites();
        geo.set_origin("west");
        let mut r = Routing::new(Policy::RoundRobin, None);
        r.set_geo(Rc::clone(&geo));
        let ids = join(&mut r, &["e1", "w1"]);
        assert_eq!(r.route(&sim, idle, None), Some((ids[1], None)));
        // the west replica moves east and the east one west, mid-run
        geo.assign("w1", "east");
        geo.assign("e1", "west");
        assert_eq!(r.route(&sim, idle, None), Some((ids[0], None)));
        // a replica placed after it joined is found too
        let late = ReplicaId::nth(2);
        r.add_slot(late, "late");
        r.drain("w1");
        geo.set_origin("east");
        assert_eq!(
            r.route(&sim, idle, None),
            Some((ids[0], None)),
            "unplaced waits"
        );
        assert_eq!(geo.place("late"), "east");
        assert_eq!(r.route(&sim, idle, None), Some((late, None)));
    }

    #[test]
    fn a_severed_pin_forwards_under_federation_and_repins_to_home_peers_without() {
        let mut sim = Sim::new(6);
        let geo = two_sites();
        geo.set_origin("east");
        let mut r = sticky(Policy::RoundRobin);
        r.set_geo(Rc::clone(&geo));
        let ids = join(&mut r, &["e1", "e2", "w1"]);
        assert_eq!(
            r.route(&sim, idle, Some("k")),
            Some((ids[0], Some(RouteOutcome::Miss)))
        );
        geo.add_outage("east", SimTime::from_secs(10), SimTime::from_secs(20));
        sim.run_until(SimTime::from_secs(12));
        // federation off: the pin moves to whoever is reachable
        assert_eq!(
            r.route(&sim, idle, Some("k")),
            Some((ids[2], Some(RouteOutcome::Repin)))
        );
        sim.run_until(SimTime::from_secs(30));
        // an orphaned pin comes back to its home site's peers, not just anywhere
        r.restore_pins("w1", &[("k".into(), "e1".into())]);
        r.orphan_replica("e1");
        assert_eq!(
            r.route(&sim, idle, Some("k")).and_then(|(_, o)| o),
            Some(RouteOutcome::Repin)
        );
        let home = r.pin_target("k").expect("pinned");
        assert_eq!(geo.site_of(&home).as_deref(), Some("east"));
        // federation on: served by the peer, pin untouched, forward noted
        geo.set_federation(true);
        geo.add_outage("east", SimTime::from_secs(40), SimTime::from_secs(50));
        sim.run_until(SimTime::from_secs(42));
        assert_eq!(
            r.route(&sim, idle, Some("k")),
            Some((ids[2], Some(RouteOutcome::Forward)))
        );
        assert_eq!(r.pin_target("k"), Some(home));
        assert_eq!(geo.counters().forwards, 1);
    }

    /// Three clean slots east and one probationer west, with the west
    /// site severed. A probe route used to see only the probationer,
    /// find it dark and shed the request with the east replicas idle.
    #[test]
    fn a_probe_route_into_a_severed_site_serves_from_the_reachable_clean_slots() {
        let mut sim = Sim::new(8);
        let geo = two_sites();
        geo.assign("w2", "west");
        let mut r = Routing::new(Policy::RoundRobin, None);
        r.set_geo(Rc::clone(&geo));
        let ids = join(&mut r, &["e1", "e2", "w1", "w2"]);
        r.set_probation("w1", true);
        r.set_probation("w2", true);
        geo.add_outage("west", SimTime::from_secs(1), SimTime::from_secs(100));
        sim.run_until(SimTime::from_secs(2));
        for _ in 0..16 {
            let (id, _) = r.route(&sim, idle, None).expect("east is reachable");
            assert!(
                id == ids[0] || id == ids[1],
                "{id:?} sits behind the outage"
            );
        }
    }

    /// The mirror case: every clean slot severed, the probationers
    /// reachable. The reachable set is all probation, so the filter is a
    /// no-op and every route is served — not only the probe routes.
    #[test]
    fn a_severed_clean_set_leaves_the_probationers_serving_every_route() {
        let mut sim = Sim::new(9);
        let geo = two_sites();
        let mut r = Routing::new(Policy::RoundRobin, None);
        r.set_geo(Rc::clone(&geo));
        let ids = join(&mut r, &["e1", "e2", "w1"]);
        r.set_probation("w1", true);
        geo.add_outage("east", SimTime::from_secs(1), SimTime::from_secs(100));
        sim.run_until(SimTime::from_secs(2));
        for _ in 0..16 {
            assert_eq!(r.route(&sim, idle, None), Some((ids[2], None)));
        }
    }

    #[test]
    fn shift_and_restore_move_the_top_ranked_pins_and_undo_them() {
        let sim = Sim::new(7);
        let mut r = sticky(Policy::RoundRobin);
        join(&mut r, &["old"]);
        let keys = ["k0", "k1", "k2", "k3"];
        for k in keys {
            r.route(&sim, idle, Some(k));
        }
        r.add_slot(ReplicaId::nth(1), "new");
        let shifted = r.shift_pins("new", 0.5);
        let mut ranked = keys.to_vec();
        ranked.sort_by_key(|k| std::cmp::Reverse(rendezvous_score(k, "new")));
        let expect: Vec<(String, String)> = ranked[..2]
            .iter()
            .map(|k| ((*k).to_owned(), "old".to_owned()))
            .collect();
        assert_eq!(shifted, expect);
        assert_eq!(r.live_pin_counts()["new"], 2);
        assert!(r.shift_pins("new", 0.0).is_empty());
        // undone after its old replica left rotation, a pin comes back orphaned
        r.drain("old");
        assert_eq!(r.restore_pins("new", &shifted[..1]), 1);
        assert_eq!(r.pin_target(&shifted[0].0), None);
        // a pin orphaned since the shift is left alone
        r.orphan_replica("new");
        assert_eq!(r.restore_pins("new", &shifted), 0);
        assert!(r.live_pins().is_empty());
    }

    // -- the slot-handle stage against the reference ---------------------------

    const NAMES: [&str; 5] = ["a", "b", "c", "d", "e"];
    const KEYS: [&str; 6] = ["k0", "k1", "k2", "k3", "k4", "k5"];
    const SITES: [&str; 3] = ["east", "central", "west"];

    /// One step of a routing program. Names, keys and sites index the
    /// consts; `n` picks among whatever slots exist when the step runs.
    #[derive(Clone, Debug)]
    enum Step {
        Add(usize),
        Drain(usize),
        /// The `n`th draining slot finishes and leaves.
        Retire(usize),
        Eject(usize),
        Probation(usize, bool),
        Load(usize, usize),
        Busy(usize, u32),
        Assign(usize, usize),
        Place(usize),
        Outage(usize, u64),
        Origin(usize),
        Federation(bool),
        Spill(usize),
        Canary(usize, u32),
        ClearCanary,
        Shift(usize, u32),
        Restore(usize),
        Advance(u64),
        Route(Option<usize>),
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        let draws = (0u32..26, 0usize..64, 0usize..8, 0u32..101, 0u64..30);
        draws.prop_map(|(kind, n, m, pct, secs)| match kind {
            0..=2 => Step::Add(n % NAMES.len()),
            3..=4 => Step::Drain(n % NAMES.len()),
            5 => Step::Retire(n),
            6 => Step::Eject(n % NAMES.len()),
            7 => Step::Probation(n % NAMES.len(), pct % 2 == 0),
            8 => Step::Load(n, m),
            9 => Step::Busy(n % NAMES.len(), pct),
            10 => Step::Assign(n % NAMES.len(), m % SITES.len()),
            11 => Step::Place(n % NAMES.len()),
            12 => Step::Outage(m % SITES.len(), secs + 1),
            13 => Step::Origin(m % SITES.len()),
            14 => Step::Federation(pct % 2 == 0),
            15 => Step::Spill(m + 1),
            16 => Step::Canary(n % NAMES.len(), pct),
            17 => Step::ClearCanary,
            18 => Step::Shift(n % NAMES.len(), pct),
            19 => Step::Restore(n % NAMES.len()),
            20 => Step::Advance(secs),
            21..=22 => Step::Route(None),
            _ => Step::Route(Some(n % KEYS.len())),
        })
    }

    fn three_sites() -> Rc<GeoPlane> {
        let mut map = SiteMap::new();
        for site in SITES {
            map.add_site(site);
        }
        map.link("east", "central", Duration::from_millis(20), 1e9);
        map.link("east", "west", Duration::from_millis(60), 1e9);
        map.link("central", "west", Duration::from_millis(40), 1e9);
        GeoPlane::new(map)
    }

    /// The reference's slot list, kept the way the dispatcher kept it
    /// before routing held the rotation: `(id, name, draining, probation)`.
    type ModelSlot = (ReplicaId, &'static str, bool, bool);

    /// Drive the slot-handle stage and the reference through `steps`,
    /// each doing what the dispatcher does with its own state, and hold
    /// every route, shift and restore to agree.
    fn run_twins(policy: Policy, capacity: Option<usize>, geo_on: bool, steps: &[Step]) {
        let mut sim = Sim::new(11);
        let affinity = capacity.map(|capacity| AffinityConfig { capacity });
        let mut new = Routing::new(policy, affinity);
        let mut old = reference::Routing::new(policy, affinity);
        let (new_geo, old_geo) = (three_sites(), three_sites());
        if geo_on {
            new.set_geo(Rc::clone(&new_geo));
            old.set_geo(Rc::clone(&old_geo));
        }
        let mut slots: Vec<ModelSlot> = Vec::new();
        let mut load: Vec<usize> = Vec::new();
        let mut shifted: Vec<(String, String)> = Vec::new();
        let live_named =
            |slots: &[ModelSlot], name: &str| slots.iter().position(|s| !s.2 && s.1 == name);
        for step in steps {
            let now = sim.now();
            match *step {
                Step::Add(n) if live_named(&slots, NAMES[n]).is_none() => {
                    let id = ReplicaId::nth(load.len());
                    new.add_slot(id, NAMES[n]);
                    slots.push((id, NAMES[n], false, false));
                    load.push(0);
                }
                Step::Drain(n) => {
                    let at = live_named(&slots, NAMES[n]);
                    if let Some(at) = at {
                        slots[at].2 = true;
                        old.orphan_replica(NAMES[n]);
                    }
                    assert_eq!(new.drain(NAMES[n]), at.map(|at| slots[at].0));
                }
                Step::Retire(n) => {
                    let draining: Vec<usize> = (0..slots.len()).filter(|&i| slots[i].2).collect();
                    if !draining.is_empty() {
                        let (id, ..) = slots.remove(draining[n % draining.len()]);
                        new.remove(id);
                    }
                }
                Step::Eject(n) => {
                    let at = slots.iter().position(|s| s.1 == NAMES[n]);
                    assert_eq!(new.find(NAMES[n]), at.map(|at| slots[at].0));
                    if let Some(at) = at {
                        let (id, ..) = slots.remove(at);
                        new.remove(id);
                        new.orphan_replica(NAMES[n]);
                        old.orphan_replica(NAMES[n]);
                    }
                }
                Step::Probation(n, on) => {
                    let at = live_named(&slots, NAMES[n]);
                    if let Some(at) = at {
                        slots[at].3 = on;
                    }
                    assert_eq!(new.set_probation(NAMES[n], on), at.is_some());
                }
                Step::Load(n, depth) if !slots.is_empty() => {
                    load[slots[n % slots.len()].0.index()] = depth;
                }
                Step::Busy(n, amount) => {
                    let key = format!("{}.cpu.busy", NAMES[n]);
                    sim.recorder().add_point(&key, now, f64::from(amount));
                }
                Step::Assign(n, site) => {
                    new_geo.assign(NAMES[n], SITES[site]);
                    old_geo.assign(NAMES[n], SITES[site]);
                }
                Step::Place(n) => {
                    assert_eq!(new_geo.place(NAMES[n]), old_geo.place(NAMES[n]));
                }
                Step::Outage(site, secs) => {
                    let to = now + Duration::from_secs(secs);
                    new_geo.add_outage(SITES[site], now, to);
                    old_geo.add_outage(SITES[site], now, to);
                }
                Step::Origin(site) => {
                    new_geo.set_origin(SITES[site]);
                    old_geo.set_origin(SITES[site]);
                }
                Step::Federation(on) => {
                    new_geo.set_federation(on);
                    old_geo.set_federation(on);
                }
                Step::Spill(depth) => {
                    new_geo.set_spill_threshold(depth);
                    old_geo.set_spill_threshold(depth);
                }
                Step::Canary(n, pct) => {
                    new.set_canary(NAMES[n], pct);
                    old.set_canary(NAMES[n], pct);
                }
                Step::ClearCanary => {
                    new.clear_canary();
                    old.clear_canary();
                }
                Step::Shift(n, pct) => {
                    let fraction = f64::from(pct) / 100.0;
                    shifted = new.shift_pins(NAMES[n], fraction);
                    assert_eq!(shifted, old.shift_pins(NAMES[n], fraction));
                }
                Step::Restore(n) => {
                    let in_rotation = |name: &str| live_named(&slots, name).is_some();
                    let restored = old.restore_pins(NAMES[n], &shifted, in_rotation);
                    assert_eq!(new.restore_pins(NAMES[n], &shifted), restored);
                }
                Step::Advance(secs) => {
                    sim.run_until(now + Duration::from_secs(secs));
                }
                Step::Route(key) => {
                    let key = key.map(|k| KEYS[k]);
                    let busy: Vec<String> =
                        slots.iter().map(|s| format!("{}.cpu.busy", s.1)).collect();
                    let view: Vec<reference::Candidate<'_>> = slots
                        .iter()
                        .zip(&busy)
                        .map(
                            |(&(id, name, draining, probation), busy_key)| reference::Candidate {
                                name,
                                outstanding: load[id.index()],
                                draining,
                                probation,
                                busy_key,
                            },
                        )
                        .collect();
                    let want = old.route(&sim, &view, key).map(|(i, o)| (slots[i].0, o));
                    let got = new.route(&sim, |id| load[id.index()], key);
                    assert_eq!(got, want, "route for {key:?} at {:?}", sim.now());
                }
                _ => {}
            }
        }
        assert_eq!(new.live_pins(), old.live_pins());
        for key in KEYS {
            assert_eq!(new.pin_target(key), old.pin_target(key));
        }
        let live = slots.iter().filter(|s| !s.2).map(|s| s.1);
        assert_eq!(new.live_pin_counts(), old.live_pin_counts(live));
        assert_eq!(new_geo.counters().forwards, old_geo.counters().forwards);
    }

    proptest::proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The slot-handle stage routes exactly as the per-route
        /// `Candidate` view did, route for route — the same replica, the
        /// same outcome — over random programs of slots joining,
        /// draining, leaving, ejected and rejoining under their old names;
        /// probation; placements made and moved mid-run; outages; origin
        /// moves; federation; the canary; pin shifts and their undo; a pin
        /// table small enough to evict; keyed and unkeyed routes. At the
        /// end both hold the same pins and counted the same forwards.
        #[test]
        fn route_matches_the_reference(
            policy in 0usize..3,
            capacity in proptest::option::of(1usize..6),
            geo_on in proptest::prelude::any::<bool>(),
            steps in proptest::collection::vec(arb_step(), 1..160),
        ) {
            run_twins(Policy::ALL[policy], capacity, geo_on, &steps);
        }
    }
}
