//! The geo plane: multi-site placement, WAN cost model, site outages and
//! HTCondor-C-style federation accounting.
//!
//! The paper's TeraGrid was eleven centres behind wide-area links, yet the
//! fleet has always booted every replica "in one room". A [`SiteMap`]
//! names the sites and the modelled WAN path between each pair (latency +
//! bandwidth, built from [`gridsim::SiteSpec`]s via
//! [`gridsim::wan_between`] or declared by hand); a [`GeoPlane`] then
//! carries everything the fleet tier needs to be geography-aware:
//!
//! * **placement** — replicas are assigned to sites round-robin in boot
//!   order ([`GeoPlane::place`]), so placement is a pure function of the
//!   boot sequence and replays byte-identically;
//! * **WAN cost** — answers delivered across sites pay a full round trip
//!   plus a payload transfer on the pair's path
//!   ([`GeoPlane::round_trip`]), with optional seeded link faults
//!   (drop → retransmit, exponential jitter) drawn from an attached
//!   [`FaultInjector`]. Intra-site hops are free and schedule no event,
//!   so a single-site fleet with a plane attached is bit-for-bit
//!   identical to one without;
//! * **outage windows** — a severed site ([`GeoPlane::add_outage`]) is
//!   *silent*, not connection-refused: requests sent into the partition
//!   vanish (only the dispatcher's watchdog can tell), and answers
//!   produced behind it are held at the site and pulled back on
//!   reconnect — which is exactly what lets federation lose nothing;
//! * **federation** — with [`GeoPlane::set_federation`] on, the
//!   dispatcher forwards work pinned to an unreachable site to the
//!   nearest healthy peer (pin preserved, so the principal comes home
//!   after reconnect) and parks in-flight watchdogs across the window.
//!
//! The plane itself schedules nothing and draws randomness only through
//! the injector on cross-site hops; every decision is a deterministic
//! function of (map, boot order, outage schedule, virtual time).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use gridsim::{wan_between, SiteSpec};
use simkit::fault::FaultInjector;
use simkit::{Duration, SimTime};

/// One modelled WAN path between a pair of sites.
#[derive(Clone, Copy, Debug)]
pub struct WanLink {
    /// One-way latency.
    pub latency: Duration,
    /// Path bandwidth, bytes/s.
    pub bandwidth_bps: f64,
}

/// Named sites and the WAN link between each pair.
///
/// Pairs are symmetric; a site paired with itself is a free local hop.
#[derive(Clone, Debug, Default)]
pub struct SiteMap {
    sites: Vec<String>,
    links: BTreeMap<(String, String), WanLink>,
}

/// Symmetric pair key.
fn pair(a: &str, b: &str) -> (String, String) {
    if a <= b {
        (a.to_owned(), b.to_owned())
    } else {
        (b.to_owned(), a.to_owned())
    }
}

impl SiteMap {
    /// An empty map; add sites with [`SiteMap::add_site`] +
    /// [`SiteMap::link`].
    pub fn new() -> SiteMap {
        SiteMap::default()
    }

    /// Build from gridsim site specs: every pair gets the
    /// [`wan_between`] path (latencies sum through the access layer,
    /// bandwidth is the min of the two access links).
    pub fn from_specs(specs: &[SiteSpec]) -> SiteMap {
        let mut map = SiteMap::new();
        for s in specs {
            map.add_site(&s.name);
        }
        for a in specs {
            for b in specs {
                if a.name < b.name {
                    let (latency, bandwidth_bps) = wan_between(a, b);
                    map.link(&a.name, &b.name, latency, bandwidth_bps);
                }
            }
        }
        map
    }

    /// Declare a site (declaration order is placement order).
    pub fn add_site(&mut self, name: &str) {
        assert!(
            !self.sites.iter().any(|s| s == name),
            "site {name:?} declared twice"
        );
        self.sites.push(name.to_owned());
    }

    /// Declare the WAN path between two distinct sites.
    pub fn link(&mut self, a: &str, b: &str, latency: Duration, bandwidth_bps: f64) {
        assert_ne!(a, b, "a site needs no link to itself");
        assert!(bandwidth_bps > 0.0, "WAN bandwidth must be positive");
        self.links.insert(
            pair(a, b),
            WanLink {
                latency,
                bandwidth_bps,
            },
        );
    }

    /// Declared sites, in declaration order.
    pub fn sites(&self) -> &[String] {
        &self.sites
    }

    /// `name`'s declaration index, if it is declared.
    fn index_of(&self, name: &str) -> Option<usize> {
        self.sites.iter().position(|s| s == name)
    }

    /// The WAN path between `a` and `b`. A site paired with itself is a
    /// free infinite-bandwidth local hop; an undeclared pair panics
    /// (misconfigured map).
    pub fn path(&self, a: &str, b: &str) -> WanLink {
        if a == b {
            return WanLink {
                latency: Duration::ZERO,
                bandwidth_bps: f64::INFINITY,
            };
        }
        *self
            .links
            .get(&pair(a, b))
            .unwrap_or_else(|| panic!("no WAN link declared between {a:?} and {b:?}"))
    }

    /// Sites ordered by one-way latency from `origin`, nearest first
    /// (`origin` itself leads with zero); ties break on name so the
    /// order is deterministic.
    pub fn nearest_order(&self, origin: &str) -> Vec<String> {
        let mut v: Vec<(Duration, String)> = self
            .sites
            .iter()
            .map(|s| (self.path(origin, s).latency, s.clone()))
            .collect();
        v.sort();
        v.into_iter().map(|(_, s)| s).collect()
    }

    /// The follow-the-sun origin: which site the load peak sits over at
    /// `elapsed` into a rotation of length `period`. Each site leads for
    /// `period / n`, in declaration order, wrapping every period.
    pub fn sun_origin(&self, elapsed: Duration, period: Duration) -> &str {
        assert!(!self.sites.is_empty(), "sun needs at least one site");
        let n = self.sites.len();
        let phase = elapsed.as_secs_f64() / period.as_secs_f64();
        let idx = (phase * n as f64).floor() as usize % n;
        &self.sites[idx]
    }
}

/// Running totals of geo-plane activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GeoCounters {
    /// Pinned attempts forwarded to a peer site while the pinned site
    /// was severed (federation).
    pub forwards: u64,
    /// Answers produced behind a partition, held at the site, and pulled
    /// back on reconnect.
    pub results_pulled: u64,
    /// Cross-site answer deliveries (WAN round trips paid).
    pub wan_hops: u64,
    /// Requests that vanished into a severed site (no answer until the
    /// watchdog tells).
    pub blackholed: u64,
}

/// The fleet tier's geography: site map, replica placement, outage
/// schedule, ambient request origin, and federation switches. Attach to a
/// [`crate::Fleet`] with [`crate::Fleet::attach_geo`] (WAN costs +
/// placement) and to the [`crate::Dispatcher`] with
/// [`crate::Dispatcher::set_geo`] (latency-aware routing).
///
/// Inside the plane a site is its declaration index in the map: names are
/// resolved once, where they come in, so routing reads placement, outages
/// and the nearest-site order without touching a string.
pub struct GeoPlane {
    map: SiteMap,
    /// Per origin site, every site nearest first:
    /// [`SiteMap::nearest_order`], resolved once at construction.
    nearest: Vec<Vec<usize>>,
    /// Replica → site, filled by [`GeoPlane::place`] /
    /// [`GeoPlane::assign`].
    placement: RefCell<BTreeMap<String, usize>>,
    /// Moves whenever `placement` does, so a reader that resolved sites
    /// at one epoch knows when to look again.
    placement_epoch: Cell<u64>,
    /// Round-robin placement cursor.
    cursor: Cell<usize>,
    /// Outage windows: `(site, from, to)`.
    outages: RefCell<Vec<(usize, SimTime, SimTime)>>,
    /// Ambient origin site of the *next* submitted request (set by the
    /// workload, read by the WAN cost model and nearest-site routing).
    origin: Cell<usize>,
    /// Bytes charged against the path bandwidth per cross-site answer.
    payload_bytes: Cell<f64>,
    /// Outstanding attempts per replica at which nearest-site routing
    /// spills to the next site out.
    spill_threshold: Cell<usize>,
    federation: Cell<bool>,
    injector: RefCell<Option<Rc<FaultInjector>>>,
    forwards: Cell<u64>,
    results_pulled: Cell<u64>,
    wan_hops: Cell<u64>,
    blackholed: Cell<u64>,
}

impl GeoPlane {
    /// New plane over `map`; the ambient origin starts at the first
    /// declared site.
    pub fn new(map: SiteMap) -> Rc<GeoPlane> {
        assert!(!map.sites().is_empty(), "a geo plane needs sites");
        let nearest = map
            .sites()
            .iter()
            .map(|origin| {
                let order = map.nearest_order(origin).into_iter();
                order.filter_map(|site| map.index_of(&site)).collect()
            })
            .collect();
        Rc::new(GeoPlane {
            map,
            nearest,
            placement: RefCell::new(BTreeMap::new()),
            placement_epoch: Cell::new(0),
            cursor: Cell::new(0),
            outages: RefCell::new(Vec::new()),
            origin: Cell::new(0),
            payload_bytes: Cell::new(2048.0),
            spill_threshold: Cell::new(4),
            federation: Cell::new(false),
            injector: RefCell::new(None),
            forwards: Cell::new(0),
            results_pulled: Cell::new(0),
            wan_hops: Cell::new(0),
            blackholed: Cell::new(0),
        })
    }

    /// The site map.
    pub fn map(&self) -> &SiteMap {
        &self.map
    }

    /// Forward work away from severed sites and park in-flight watchdogs
    /// across outages (HTCondor-C-style disconnect resilience). Off by
    /// default: a site-oblivious fleet pays the outage in timeouts.
    pub fn set_federation(&self, on: bool) {
        self.federation.set(on);
    }

    /// Whether federation is on.
    pub fn federation(&self) -> bool {
        self.federation.get()
    }

    /// Bytes charged against the path bandwidth per cross-site answer
    /// delivery (request + response payload).
    pub fn set_payload_bytes(&self, bytes: f64) {
        assert!(bytes >= 0.0);
        self.payload_bytes.set(bytes);
    }

    /// Outstanding-attempt depth at which nearest-site routing spills to
    /// the next-nearest site.
    pub fn set_spill_threshold(&self, depth: usize) {
        assert!(depth > 0, "a zero spill threshold would never route home");
        self.spill_threshold.set(depth);
    }

    /// The current spill threshold.
    pub fn spill_threshold(&self) -> usize {
        self.spill_threshold.get()
    }

    /// Seeded draw source for cross-site link faults (drop → retransmit,
    /// exponential extra delay), from a [`simkit::fault::FaultPlan`]'s
    /// injector. `None` (the default) models clean links.
    pub fn set_injector(&self, injector: Rc<FaultInjector>) {
        *self.injector.borrow_mut() = Some(injector);
    }

    /// `site`'s declaration index; an undeclared site panics
    /// (misconfigured caller).
    fn declared(&self, site: &str) -> usize {
        let index = self.map.index_of(site);
        index.unwrap_or_else(|| panic!("unknown site {site:?}"))
    }

    /// Place `replica` on the next site round-robin and return the site.
    /// Already-placed replicas keep their site.
    pub fn place(&self, replica: &str) -> String {
        let mut placement = self.placement.borrow_mut();
        let site = *placement.entry(replica.to_owned()).or_insert_with(|| {
            let k = self.cursor.get();
            self.cursor.set(k + 1);
            self.bump_placement_epoch();
            k % self.map.sites().len()
        });
        self.map.sites()[site].clone()
    }

    /// Pin `replica` to an explicit site (tests, hand-built layouts).
    pub fn assign(&self, replica: &str, site: &str) {
        let site = self.declared(site);
        self.placement.borrow_mut().insert(replica.to_owned(), site);
        self.bump_placement_epoch();
    }

    fn bump_placement_epoch(&self) {
        self.placement_epoch.set(self.placement_epoch.get() + 1);
    }

    /// The site `replica` lives on, if placed. Placements survive the
    /// replica's loss — an orphaned affinity pin still knows its home.
    pub fn site_of(&self, replica: &str) -> Option<String> {
        let site = self.site_index(replica)?;
        Some(self.map.sites()[site].clone())
    }

    /// Set the ambient origin site of subsequently submitted requests.
    pub fn set_origin(&self, site: &str) {
        self.origin.set(self.declared(site));
    }

    /// The ambient request origin.
    pub fn origin(&self) -> String {
        self.map.sites()[self.origin.get()].clone()
    }

    /// Register one outage window: `site` is severed over `[from, to)`.
    pub fn add_outage(&self, site: &str, from: SimTime, to: SimTime) {
        let site = self.declared(site);
        assert!(from < to, "outage window must have positive length");
        self.outages.borrow_mut().push((site, from, to));
    }

    /// Is `site` severed at `now`?
    pub fn is_down(&self, site: &str, now: SimTime) -> bool {
        let site = self.map.index_of(site);
        site.is_some_and(|site| self.severed(site, now))
    }

    /// When `site` reconnects, if it is severed at `now` (the latest end
    /// over every active window).
    pub fn reconnect_at(&self, site: &str, now: SimTime) -> Option<SimTime> {
        let site = self.map.index_of(site)?;
        self.outages
            .borrow()
            .iter()
            .filter(|&&(s, from, to)| s == site && from <= now && now < to)
            .map(|&(_, _, to)| to)
            .max()
    }

    // -- by declaration index: what routing reads per request ----------------

    /// Which placement the plane holds: moves on every [`GeoPlane::place`]
    /// of a new replica and every [`GeoPlane::assign`], so a
    /// [`GeoPlane::site_index`] read stays good until it moves.
    pub(crate) fn placement_epoch(&self) -> u64 {
        self.placement_epoch.get()
    }

    /// The site `replica` lives on, as a declaration index.
    pub(crate) fn site_index(&self, replica: &str) -> Option<usize> {
        self.placement.borrow().get(replica).copied()
    }

    /// The ambient request origin, as a declaration index.
    pub(crate) fn origin_index(&self) -> usize {
        self.origin.get()
    }

    /// Every site, nearest `from` first, as declaration indices.
    pub(crate) fn nearest_from(&self, from: usize) -> &[usize] {
        &self.nearest[from]
    }

    /// Is the site at declaration index `site` severed at `now`?
    pub(crate) fn severed(&self, site: usize, now: SimTime) -> bool {
        self.outages
            .borrow()
            .iter()
            .any(|&(s, from, to)| s == site && from <= now && now < to)
    }

    /// The WAN cost of delivering one answer from `site` back to `from`:
    /// a full round trip plus the payload transfer, plus any injected
    /// link faults (a dropped pass costs a retransmit timeout; jitter
    /// adds exponential delay). Intra-site delivery is free and draws
    /// nothing.
    pub fn round_trip(&self, from: &str, to: &str) -> Duration {
        if from == to {
            return Duration::ZERO;
        }
        let link = self.map.path(from, to);
        self.wan_hops.set(self.wan_hops.get() + 1);
        let mut d = link.latency
            + link.latency
            + Duration::from_secs_f64(self.payload_bytes.get() / link.bandwidth_bps);
        if let Some(inj) = self.injector.borrow().as_ref() {
            if inj.drop_transfer() {
                d += inj.config().link_retransmit;
            }
            d += inj.extra_delay();
        }
        d
    }

    /// Note one federation forward (dispatcher bookkeeping).
    pub fn note_forward(&self) {
        self.forwards.set(self.forwards.get() + 1);
    }

    /// Note one answer held behind a partition and pulled on reconnect.
    pub fn note_result_pulled(&self) {
        self.results_pulled.set(self.results_pulled.get() + 1);
    }

    /// Note one request swallowed by a severed site.
    pub fn note_blackholed(&self) {
        self.blackholed.set(self.blackholed.get() + 1);
    }

    /// Totals so far.
    pub fn counters(&self) -> GeoCounters {
        GeoCounters {
            forwards: self.forwards.get(),
            results_pulled: self.results_pulled.get(),
            wan_hops: self.wan_hops.get(),
            blackholed: self.blackholed.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::KB;

    fn three_sites() -> SiteMap {
        let mut east = SiteSpec::teragrid_like("east", 2, 4);
        east.wan_latency = Duration::from_millis(30);
        east.wan_bandwidth_bps = 100.0 * KB;
        let mut central = SiteSpec::teragrid_like("central", 2, 4);
        central.wan_latency = Duration::from_millis(40);
        central.wan_bandwidth_bps = 85.0 * KB;
        let mut west = SiteSpec::teragrid_like("west", 2, 4);
        west.wan_latency = Duration::from_millis(55);
        west.wan_bandwidth_bps = 70.0 * KB;
        SiteMap::from_specs(&[east, central, west])
    }

    #[test]
    fn from_specs_builds_every_pair() {
        let map = three_sites();
        assert_eq!(map.sites(), &["east", "central", "west"]);
        let ec = map.path("east", "central");
        assert_eq!(ec.latency, Duration::from_millis(70));
        assert_eq!(ec.bandwidth_bps, 85.0 * KB);
        let ew = map.path("west", "east");
        assert_eq!(ew.latency, Duration::from_millis(85));
        assert_eq!(ew.bandwidth_bps, 70.0 * KB);
        // self-pair is free
        assert!(map.path("east", "east").latency.is_zero());
    }

    #[test]
    fn nearest_order_is_latency_sorted_and_deterministic() {
        let map = three_sites();
        assert_eq!(map.nearest_order("east"), vec!["east", "central", "west"]);
        // west: east (85ms) beats central (95ms) — pairwise sums, not hops
        assert_eq!(map.nearest_order("west"), vec!["west", "east", "central"]);
        // central: east (70ms) beats west (95ms)
        assert_eq!(map.nearest_order("central"), vec!["central", "east", "west"]);
    }

    #[test]
    fn sun_origin_rotates_across_sites_and_wraps() {
        let map = three_sites();
        let period = Duration::from_secs(900);
        assert_eq!(map.sun_origin(Duration::ZERO, period), "east");
        assert_eq!(map.sun_origin(Duration::from_secs(300), period), "central");
        assert_eq!(map.sun_origin(Duration::from_secs(600), period), "west");
        assert_eq!(map.sun_origin(Duration::from_secs(900), period), "east");
        assert_eq!(map.sun_origin(Duration::from_secs(1200), period), "central");
    }

    #[test]
    fn placement_is_round_robin_in_boot_order() {
        let geo = GeoPlane::new(three_sites());
        assert_eq!(geo.place("replica0"), "east");
        assert_eq!(geo.place("replica1"), "central");
        assert_eq!(geo.place("replica2"), "west");
        assert_eq!(geo.place("replica3"), "east");
        // re-placing is idempotent and does not advance the cursor
        assert_eq!(geo.place("replica1"), "central");
        assert_eq!(geo.place("replica4"), "central");
        assert_eq!(geo.site_of("replica0").as_deref(), Some("east"));
        assert_eq!(geo.site_of("ghost"), None);
    }

    #[test]
    fn the_placement_epoch_moves_only_when_a_placement_can_have() {
        let geo = GeoPlane::new(three_sites());
        let epoch = geo.placement_epoch();
        geo.place("replica0");
        let placed = geo.placement_epoch();
        assert_ne!(placed, epoch, "a new placement");
        geo.place("replica0");
        assert_eq!(geo.placement_epoch(), placed, "re-placing moves nothing");
        geo.assign("replica0", "west");
        let assigned = geo.placement_epoch();
        assert_ne!(assigned, placed, "an assignment may move a replica");
        geo.add_outage("west", SimTime::ZERO, SimTime::from_secs(1));
        geo.set_origin("west");
        assert_eq!(
            geo.placement_epoch(),
            assigned,
            "outages and origins are not placement"
        );
    }

    #[test]
    fn outage_windows_answer_is_down_and_reconnect() {
        let geo = GeoPlane::new(three_sites());
        let t = SimTime::from_secs;
        geo.add_outage("west", t(100), t(200));
        geo.add_outage("west", t(150), t(260));
        assert!(!geo.is_down("west", t(99)));
        assert!(geo.is_down("west", t(100)));
        assert!(geo.is_down("west", t(199)));
        assert!(geo.is_down("west", t(230)), "overlapping window extends");
        assert!(!geo.is_down("west", t(260)), "end is exclusive");
        assert!(!geo.is_down("east", t(150)), "other sites unaffected");
        assert_eq!(geo.reconnect_at("west", t(120)), Some(t(200)));
        assert_eq!(
            geo.reconnect_at("west", t(160)),
            Some(t(260)),
            "latest end over active windows"
        );
        assert_eq!(geo.reconnect_at("west", t(300)), None);
    }

    /// Declared out of name order, so latency ties exercise the name
    /// tie-break.
    const NAMES: [&str; 6] = ["delta", "alpha", "echo", "bravo", "foxtrot", "charlie"];

    proptest::proptest! {
        /// The plane's index-keyed reads answer exactly as the by-name
        /// definitions do: per origin, the precomputed order is
        /// `nearest_order` (ties included); per site and instant, the
        /// severed check and `reconnect_at` match a scan of the windows
        /// by name; placements read back the same site either way.
        #[test]
        fn index_reads_agree_with_the_by_name_definitions(
            n in 2usize..7,
            latencies in proptest::collection::vec(1u64..4, 15),
            windows in proptest::collection::vec((0usize..6, 0u64..100, 1u64..40), 0..8),
            instants in proptest::collection::vec(0u64..150, 1..20),
        ) {
            let names = &NAMES[..n];
            let mut map = SiteMap::new();
            for site in names {
                map.add_site(site);
            }
            let mut pairs = latencies.iter();
            for a in 0..n {
                for b in a + 1..n {
                    let ms = 10 * pairs.next().expect("15 pairs cover six sites");
                    map.link(names[a], names[b], Duration::from_millis(ms), 1e6);
                }
            }
            let geo = GeoPlane::new(map.clone());
            for (i, origin) in names.iter().enumerate() {
                let by_index: Vec<&str> = geo.nearest_from(i).iter().map(|&s| names[s]).collect();
                proptest::prop_assert_eq!(by_index, map.nearest_order(origin));
                let replica = format!("r{i}");
                geo.assign(&replica, names[n - 1 - i]);
                let placed = geo.site_index(&replica).map(|s| names[s].to_owned());
                proptest::prop_assert_eq!(placed, geo.site_of(&replica));
            }
            let t = SimTime::from_secs;
            let windows: Vec<(&str, SimTime, SimTime)> = windows
                .iter()
                .map(|&(s, from, len)| (names[s % n], t(from), t(from + len)))
                .collect();
            for &(site, from, to) in &windows {
                geo.add_outage(site, from, to);
            }
            for now in instants.into_iter().map(t) {
                for (i, site) in names.iter().enumerate() {
                    let active: Vec<SimTime> = windows
                        .iter()
                        .filter(|(s, from, to)| s == site && *from <= now && now < *to)
                        .map(|w| w.2)
                        .collect();
                    proptest::prop_assert_eq!(geo.severed(i, now), !active.is_empty());
                    proptest::prop_assert_eq!(geo.is_down(site, now), !active.is_empty());
                    proptest::prop_assert_eq!(geo.reconnect_at(site, now), active.into_iter().max());
                }
            }
        }
    }

    #[test]
    fn round_trip_charges_latency_and_payload_and_is_free_at_home() {
        let geo = GeoPlane::new(three_sites());
        geo.set_payload_bytes(85.0 * KB); // one second at the e-c path rate
        assert!(geo.round_trip("east", "east").is_zero());
        assert_eq!(geo.counters().wan_hops, 0, "local hops are not WAN hops");
        let d = geo.round_trip("east", "central");
        // 2 × 70 ms + 1 s payload
        assert!((d.as_secs_f64() - 1.14).abs() < 1e-9, "{d:?}");
        assert_eq!(geo.counters().wan_hops, 1);
    }

    #[test]
    fn injected_link_faults_are_seeded_and_replayable() {
        let run = || {
            let geo = GeoPlane::new(three_sites());
            let plan = simkit::fault::FaultPlan::new(9)
                .link_drop(0.5)
                .link_extra_delay(Duration::from_millis(100));
            geo.set_injector(plan.injector());
            let v: Vec<f64> = (0..20)
                .map(|_| geo.round_trip("east", "west").as_secs_f64())
                .collect();
            v
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "same plan, same WAN draws");
        let base = 2.0 * 0.085 + 2048.0 / (70.0 * KB);
        assert!(a.iter().all(|&d| d > base - 1e-9));
        assert!(
            a.iter().any(|&d| d > base + 0.9),
            "half the passes should eat the 1 s retransmit"
        );
    }
}
