//! Stage two of the front door: routing.
//!
//! Routing picks the replica for one attempt. It owns everything that
//! bears on the choice — the base [`Policy`] and its round-robin cursor,
//! the probation probe window, the canary share, the affinity pin table
//! and the geo plane handle — and sees the replicas only as a slice of
//! [`Candidate`]s the dispatcher builds per route. [`Routing::route`] is a
//! function of (that slice, the affinity key, the clock); it returns an
//! index into the slice and, for a keyed request under affinity, a
//! [`RouteOutcome`] saying how the pin fared.
//!
//! The filters compose in a fixed order: draining replicas never count;
//! while any candidate is on probation most routes see only the clean
//! subset and every [`PROBE_EVERY`]th sees only the probationers; under a
//! geo plane, replicas on a severed site drop out for the length of the
//! outage. A filter that has nothing to act on — no probation, no plane —
//! leaves the candidate list untouched, so routing without it is
//! bit-for-bit routing before it existed.

use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::rc::Rc;

use simkit::Sim;

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

/// What routing may know about one replica slot.
pub(super) struct Candidate<'a> {
    /// Stable replica name: the rendezvous input, the pin target, the geo
    /// placement key.
    pub name: &'a str,
    /// Attempts outstanding on it right now.
    pub outstanding: usize,
    /// Out of rotation, finishing what it has.
    pub draining: bool,
    /// Probation-weighted by the gray-failure detector.
    pub probation: bool,
    /// Its `<name>.cpu.busy` recorder key, precomputed so the
    /// utilization-weighted pick allocates nothing per candidate.
    pub busy_key: &'a str,
}

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

/// One affinity-table entry. An orphaned pin (`live == false`: its replica
/// was ejected or drained) keeps the replica's name so a geo plane can
/// still look up its home site; the key is reassigned on its next request.
struct Pin {
    replica: String,
    live: bool,
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

/// Highest rendezvous score over `among` wins.
fn pick_rendezvous(key: &str, view: &[Candidate<'_>], among: &[usize]) -> usize {
    first_min(among, |i| Reverse(rendezvous_score(key, view[i].name)))
}

/// Canary traffic share: while set, a deterministic counter sends
/// `share_pct`% of first-sight routes to the named replica instead of the
/// base-policy pick. No randomness — route `k` goes to the canary iff
/// `k % 100 < share_pct`, so replays are byte-identical.
struct CanaryShare {
    target: String,
    share_pct: u32,
    cursor: u64,
}

/// One route's reading of the geo plane: every candidate's site, looked
/// up once.
struct Placed<'g> {
    plane: &'g GeoPlane,
    site: Vec<Option<String>>,
}

impl Placed<'_> {
    /// `among` grouped by site, walking outward from `from` nearest
    /// first; sites holding none of them are skipped.
    fn outward<'a>(
        &'a self,
        from: &str,
        among: &'a [usize],
    ) -> impl Iterator<Item = Vec<usize>> + 'a {
        let sites = self.plane.map().nearest_order(from);
        sites.into_iter().filter_map(move |site| {
            let group: Vec<usize> = among
                .iter()
                .copied()
                .filter(|&i| self.site[i].as_deref() == Some(site.as_str()))
                .collect();
            (!group.is_empty()).then_some(group)
        })
    }
}

/// The routing stage. See the module docs.
pub(super) struct Routing {
    policy: Policy,
    rr_cursor: usize,
    /// Counts routes made while probation is active, for the probe window.
    probe_cursor: u64,
    canary: Option<CanaryShare>,
    affinity: Option<AffinityConfig>,
    /// The bounded `principal → replica` pin table…
    pins: HashMap<String, Pin>,
    /// …and its keys in insertion order, for capacity eviction.
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

    /// Deterministic replica choice for one attempt, as an index into
    /// `view`; `None` when nothing is in rotation — or, under a geo
    /// plane, when every candidate's site is dark (the request sheds at
    /// the door rather than being fed into a partition). The outcome is
    /// `None` when affinity is off or the request carries no key.
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
        // The probe cursor moves only while some live slot is on
        // probation. When every live slot is probationed the filter is a
        // no-op: keep serving rather than shed.
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
        let geo = self.geo.clone();
        let placed = geo.as_deref().map(|plane| Placed {
            plane,
            site: view.iter().map(|c| plane.site_of(c.name)).collect(),
        });
        if let Some(p) = &placed {
            // unplaced candidates are never behind a severed site
            let up = |site: &str| !p.plane.is_down(site, sim.now());
            live.retain(|&i| p.site[i].as_deref().is_none_or(up));
            if live.is_empty() {
                return None;
            }
        }
        let Some((affinity, key)) = self.affinity.zip(key) else {
            let i = self.first_sight(sim, placed.as_ref(), view, &live);
            return Some((i, None));
        };
        let Some(pin) = self.pins.get(key) else {
            // first sight of the key: the canary takes its share, then
            // the base policy spreads the rest; either way the choice
            // sticks
            let i = self.first_sight(sim, placed.as_ref(), view, &live);
            self.pin(key, view[i].name, affinity.capacity);
            return Some((i, Some(RouteOutcome::Miss)));
        };
        // Eject and drain orphan the pin, so a live pin normally resolves;
        // it can still miss the candidate list through the probation or
        // severed-site filters.
        if pin.live {
            if let Some(&i) = live.iter().find(|&&i| view[i].name == pin.replica) {
                return Some((i, Some(RouteOutcome::Hit)));
            }
        }
        // The pin cannot be honoured: reassign by rendezvous hash, a pure
        // function of (key, live names) — independent of how retries
        // interleaved with the loss. Under a geo plane the peers nearest
        // the pinned replica's home site come first (placements outlive
        // the replica), keeping sessions local.
        let home = placed.as_ref().and_then(|p| p.plane.site_of(&pin.replica));
        let peers = placed
            .as_ref()
            .zip(home.as_deref())
            .and_then(|(p, home)| p.outward(home, &live).next());
        let i = pick_rendezvous(key, view, peers.as_deref().unwrap_or(&live));
        if let (Some(p), Some(home), true) = (&placed, &home, pin.live) {
            // HTCondor-C-style forwarding: the pinned replica is still in
            // rotation but its site is severed. Serve the principal from
            // the peer *without* re-pinning — the pin survives the outage,
            // so the session comes home on reconnect.
            let in_rotation = view.iter().any(|c| !c.draining && c.name == pin.replica);
            if p.plane.federation() && p.plane.is_down(home, sim.now()) && in_rotation {
                p.plane.note_forward();
                return Some((i, Some(RouteOutcome::Forward)));
            }
        }
        self.pin(key, view[i].name, affinity.capacity);
        Some((i, Some(RouteOutcome::Repin)))
    }

    /// A pick for a request with no pin to honour: the canary's claim if
    /// it has one, else the base policy — within the nearest site that has
    /// an open replica under a geo plane, over the whole list without one.
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
            for site in p.outward(&p.plane.origin(), live) {
                let open: Vec<usize> = site
                    .into_iter()
                    .filter(|&i| view[i].outstanding < spill)
                    .collect();
                if !open.is_empty() {
                    return self.pick_base(sim, view, &open);
                }
                // this site is saturated: spill to the next-nearest one
            }
            // every placed site saturated, or no replica placed at all
        }
        self.pick_base(sim, view, live)
    }

    /// The canary's claim on this first-sight route, if a share is set:
    /// route `k` (counter, not clock) goes to the canary iff
    /// `k % 100 < share_pct` and the canary is in the live set. The
    /// counter moves on every first-sight route either way; a crashed or
    /// draining canary simply stops claiming routes.
    fn canary_claim(&mut self, view: &[Candidate<'_>], live: &[usize]) -> Option<usize> {
        let c = self.canary.as_mut()?;
        let k = c.cursor;
        c.cursor = k.wrapping_add(1);
        if k % 100 >= u64::from(c.share_pct) {
            return None;
        }
        live.iter().copied().find(|&i| view[i].name == c.target)
    }

    /// Pin `key` to `replica`, evicting the oldest key at capacity.
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

    /// The configured base [`Policy`] over `among`.
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

    // -- planes --------------------------------------------------------------

    /// Attach the geo plane: severed sites leave the candidate list,
    /// first-sight picks go nearest-site-first, reassignment prefers the
    /// home site's peers.
    pub fn set_geo(&mut self, plane: Rc<GeoPlane>) {
        self.geo = Some(plane);
    }

    /// Does the attached geo plane place `replica` on `site`? Never,
    /// without a plane.
    pub fn on_site(&self, replica: &str, site: &str) -> bool {
        self.geo
            .as_ref()
            .is_some_and(|g| g.site_of(replica).as_deref() == Some(site))
    }

    /// Send `share_pct`% of first-sight routes to `target`; the counter
    /// restarts at zero so same-seed replays shift the same requests.
    pub fn set_canary(&mut self, target: &str, share_pct: u32) {
        assert!(share_pct <= 100, "canary share is a percentage");
        self.canary = Some(CanaryShare {
            target: target.to_owned(),
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
        self.canary.as_ref().map(|c| c.target.clone())
    }

    // -- pins ----------------------------------------------------------------

    /// Orphan every pin pointing at `replica` (loss/drain invalidation).
    pub fn orphan_replica(&mut self, replica: &str) {
        for p in self.pins.values_mut().filter(|p| p.replica == replica) {
            p.live = false;
        }
    }

    /// Count live pins per name in `live` — zero-pin names included.
    pub fn live_pin_counts<'a>(
        &self,
        live: impl Iterator<Item = &'a str>,
    ) -> BTreeMap<String, usize> {
        let mut counts: BTreeMap<String, usize> = live.map(|name| (name.to_owned(), 0)).collect();
        for p in self.pins.values().filter(|p| p.live) {
            if let Some(c) = counts.get_mut(&p.replica) {
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

    /// Undo a [`Routing::shift_pins`]: every listed pin still live on
    /// `target` goes back to its previous replica — orphaned there if
    /// `in_rotation` says that replica has since left. Returns how many
    /// pins were restored.
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

    /// The replica `key`'s live pin targets, if any.
    pub fn pin_target(&self, key: &str) -> Option<String> {
        self.pins
            .get(key)
            .filter(|p| p.live)
            .map(|p| p.replica.clone())
    }

    /// Every live pin as sorted `(key, replica)` pairs.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geo::SiteMap;
    use simkit::{Duration, SimTime};

    /// A view over `(name, outstanding)` pairs, nothing draining or probed.
    fn view<'a>(slots: &'a [(&'a str, usize)]) -> Vec<Candidate<'a>> {
        slots
            .iter()
            .map(|&(name, outstanding)| Candidate {
                name,
                outstanding,
                draining: false,
                probation: false,
                busy_key: "",
            })
            .collect()
    }

    fn sticky(policy: Policy) -> Routing {
        Routing::new(policy, Some(AffinityConfig::default()))
    }

    #[test]
    fn keyed_routes_miss_then_hit_and_unkeyed_routes_never_pin() {
        let sim = Sim::new(1);
        let v = view(&[("a", 0), ("b", 0)]);
        let mut r = sticky(Policy::RoundRobin);
        assert_eq!(r.route(&sim, &v, None), Some((0, None)));
        assert_eq!(
            r.route(&sim, &v, Some("k")),
            Some((1, Some(RouteOutcome::Miss)))
        );
        assert_eq!(
            r.route(&sim, &v, Some("k")),
            Some((1, Some(RouteOutcome::Hit)))
        );
        assert_eq!(r.live_pins(), [("k".to_owned(), "b".to_owned())]);
        // without affinity a key is just ignored
        let mut plain = Routing::new(Policy::RoundRobin, None);
        assert_eq!(plain.route(&sim, &v, Some("k")), Some((0, None)));
        assert!(plain.live_pins().is_empty());
    }

    #[test]
    fn an_orphaned_pin_reassigns_by_rendezvous_and_draining_slots_never_serve() {
        let sim = Sim::new(2);
        let mut v = view(&[("a", 0), ("b", 0), ("c", 0)]);
        let mut r = sticky(Policy::RoundRobin);
        let (first, _) = r.route(&sim, &v, Some("k")).expect("routed");
        let lost = v[first].name;
        v[first].draining = true;
        r.orphan_replica(lost);
        assert_eq!(r.pin_target("k"), None);
        let (next, outcome) = r.route(&sim, &v, Some("k")).expect("two remain");
        assert_eq!(outcome, Some(RouteOutcome::Repin));
        let survivors: Vec<usize> = (0..3).filter(|&i| i != first).collect();
        assert_eq!(next, pick_rendezvous("k", &v, &survivors));
        assert_eq!(r.pin_target("k").as_deref(), Some(v[next].name));
        for c in &mut v {
            c.draining = true;
        }
        assert_eq!(r.route(&sim, &v, None), None);
    }

    #[test]
    fn probationers_see_one_route_in_eight_and_the_cursor_rests_without_them() {
        let sim = Sim::new(3);
        let mut v = view(&[("sick", 0), ("well", 0)]);
        let mut r = Routing::new(Policy::RoundRobin, None);
        v[0].probation = true;
        let picks: Vec<usize> = (0..16)
            .map(|_| r.route(&sim, &v, None).expect("routed").0)
            .collect();
        let probes: Vec<usize> = (0..16).filter(|&k| picks[k] == 0).collect();
        assert_eq!(probes, [0, 8]);
        v[0].probation = false;
        r.route(&sim, &v, None);
        assert_eq!(r.probe_cursor, 16, "no probation, no cursor movement");
        // a fleet that is all probation keeps serving
        v[0].probation = true;
        v[1].probation = true;
        assert!(r.route(&sim, &v, None).is_some());
    }

    #[test]
    fn the_canary_claims_its_share_of_first_sight_routes_only() {
        let sim = Sim::new(4);
        let v = view(&[("stable", 0), ("canary", 0)]);
        let mut r = sticky(Policy::LeastOutstanding);
        r.route(&sim, &v, Some("pinned"));
        r.set_canary("canary", 25);
        assert_eq!(r.canary_target().as_deref(), Some("canary"));
        let claimed = (0..100)
            .filter(|_| r.route(&sim, &v, None).expect("routed").0 == 1)
            .count();
        assert_eq!(claimed, 25);
        assert_eq!(
            r.route(&sim, &v, Some("pinned")),
            Some((0, Some(RouteOutcome::Hit)))
        );
        r.clear_canary();
        assert_eq!(r.route(&sim, &v, None), Some((0, None)));
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
        assert!(r.on_site("w1", "west") && !r.on_site("w1", "east"));
        let near_open = view(&[("e1", 0), ("e2", 0), ("w1", 1)]);
        assert_eq!(r.route(&sim, &near_open, None).map(|(i, _)| i), Some(2));
        let near_full = view(&[("e1", 1), ("e2", 0), ("w1", 2)]);
        assert_eq!(r.route(&sim, &near_full, None).map(|(i, _)| i), Some(1));
        geo.add_outage("west", SimTime::from_secs(10), SimTime::from_secs(20));
        geo.add_outage("east", SimTime::from_secs(15), SimTime::from_secs(20));
        sim.run_until(SimTime::from_secs(12));
        assert_eq!(r.route(&sim, &near_open, None).map(|(i, _)| i), Some(0));
        sim.run_until(SimTime::from_secs(16));
        assert_eq!(r.route(&sim, &near_open, None), None);
    }

    #[test]
    fn a_severed_pin_forwards_under_federation_and_repins_to_home_peers_without() {
        let mut sim = Sim::new(6);
        let geo = two_sites();
        geo.set_origin("east");
        let v = view(&[("e1", 0), ("e2", 0), ("w1", 0)]);
        let mut r = sticky(Policy::RoundRobin);
        r.set_geo(Rc::clone(&geo));
        assert_eq!(
            r.route(&sim, &v, Some("k")),
            Some((0, Some(RouteOutcome::Miss)))
        );
        geo.add_outage("east", SimTime::from_secs(10), SimTime::from_secs(20));
        sim.run_until(SimTime::from_secs(12));
        // federation off: the pin moves to whoever is reachable
        assert_eq!(
            r.route(&sim, &v, Some("k")),
            Some((2, Some(RouteOutcome::Repin)))
        );
        sim.run_until(SimTime::from_secs(30));
        // an orphaned pin comes back to its home site's peers, not just anywhere
        r.restore_pins("w1", &[("k".into(), "e1".into())], |_| false);
        assert_eq!(
            r.route(&sim, &v, Some("k")).and_then(|(_, o)| o),
            Some(RouteOutcome::Repin)
        );
        assert!(r.on_site(&r.pin_target("k").expect("pinned"), "east"));
        // federation on: served by the peer, pin untouched, forward noted
        geo.set_federation(true);
        let home = r.pin_target("k").expect("pinned");
        geo.add_outage("east", SimTime::from_secs(40), SimTime::from_secs(50));
        sim.run_until(SimTime::from_secs(42));
        assert_eq!(
            r.route(&sim, &v, Some("k")),
            Some((2, Some(RouteOutcome::Forward)))
        );
        assert_eq!(r.pin_target("k"), Some(home));
        assert_eq!(geo.counters().forwards, 1);
    }

    #[test]
    fn shift_and_restore_move_the_top_ranked_pins_and_undo_them() {
        let sim = Sim::new(7);
        let v = view(&[("old", 0), ("new", 0)]);
        let mut r = sticky(Policy::RoundRobin);
        let only_old = &v[..1];
        let keys = ["k0", "k1", "k2", "k3"];
        for k in keys {
            r.route(&sim, only_old, Some(k));
        }
        let shifted = r.shift_pins("new", 0.5);
        let mut ranked = keys.to_vec();
        ranked.sort_by_key(|k| std::cmp::Reverse(rendezvous_score(k, "new")));
        let expect: Vec<(String, String)> = ranked[..2]
            .iter()
            .map(|k| ((*k).to_owned(), "old".to_owned()))
            .collect();
        assert_eq!(shifted, expect);
        let names = || ["old", "new"].into_iter();
        assert_eq!(r.live_pin_counts(names())["new"], 2);
        assert!(r.shift_pins("new", 0.0).is_empty());
        // undone after its old replica left rotation, a pin comes back orphaned
        assert_eq!(r.restore_pins("new", &shifted[..1], |_| false), 1);
        assert_eq!(r.pin_target(&shifted[0].0), None);
        // a pin orphaned since the shift is left alone
        r.orphan_replica("new");
        assert_eq!(r.restore_pins("new", &shifted, |_| true), 0);
        assert_eq!(r.live_pin_counts(names())["old"], 2);
    }
}
