//! The four workloads. Each builds a fresh world from the seed, offers its
//! traffic on the virtual clock, drains, checks request conservation and
//! returns the simulated statistics plus the host time each phase took.
//!
//! Why these four (the table of record is `README.md`):
//!
//! * `fleet_day` — the `millionuser` CI shape; the blobstore read path
//!   does most of the work, the dispatcher almost none.
//! * `door_planes` — a bare dispatcher with every front-door plane on in
//!   front of stub backends; `fleet` does nearly all the work, `blobstore`
//!   and `wsstack` none.
//! * `appliance_paper` — the paper's single appliance with every cache
//!   off and a tiny blob, so agent, grid and SOAP argument handling run on
//!   every request and kernel events dominate.
//! * `publish_storm` — the write path: uploads broadcast to four replicas,
//!   then UDDI inquiry + WSDL import per published service.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use blobstore::ExecutableRecord;
use fleet::{
    start_closed_loop, start_open_loop, AffinityConfig, ArrivalProcess, Backend, Dispatcher,
    DispatcherConfig, Fleet, FleetSpec, GeoPlane, HealthConfig, HealthPlane, Mix, Policy,
    QosConfig, QosTier, Request, Responder, SiteMap, StorageTopology, SubmitFn, WorkloadStats,
};
use gridsim::SiteSpec;
use onserve::deployment::{Deployment, DeploymentSpec};
use onserve::profile::ExecutionProfile;
use simkit::{Duration, Rng, Sim, SimTime, KB, MB};
use vappliance::ApplianceImage;
use wsstack::{ClientStub, SoapValue};

use crate::stats::percentile_sorted;
use crate::trace::Tracer;

/// Default seed: the `millionuser` bench's, so `fleet_day` at the default
/// seed reproduces that golden's CI row.
pub const DEFAULT_SEED: u64 = 0x1_000_000;

/// A workload: name, why it exists (one line, for `BENCHMARK.json` and
/// the report header), and how to run one repetition.
pub struct Workload {
    /// Name on the command line and in every output.
    pub name: &'static str,
    /// Why this workload was chosen.
    pub why: &'static str,
    /// Run one repetition from `seed`; with `setup_only`, stop once the
    /// world is built (set-up and publish phases) and return `None`.
    pub run: fn(u64, &mut Tracer, bool) -> Option<Rep>,
}

/// All workloads, report order.
pub const ALL: [Workload; 4] = [
    Workload {
        name: "fleet_day",
        why: "millionuser CI shape: 8 cached replicas, 64 KB blob, diurnal open loop; blobstore load dominates, dispatcher under 1%",
        run: fleet_day,
    },
    Workload {
        name: "door_planes",
        why: "bare dispatcher, all planes on, 9 stub backends, Poisson tenants plus a bursty flooder; fleet does nearly all the work",
        run: door_planes,
    },
    Workload {
        name: "appliance_paper",
        why: "the paper's single appliance, caches off, 1 KB blob, 16 closed-loop clients with typed SOAP args; kernel events dominate",
        run: appliance_paper,
    },
    Workload {
        name: "publish_storm",
        why: "write path: 8 closed-loop uploaders broadcast 64 KB to 4 replicas, then UDDI find + WSDL import per service",
        run: publish_storm,
    },
];

/// Simulated statistics of one repetition. Virtual-time state only, so
/// they repeat exactly for a seed — across repetitions, across traced and
/// untraced runs, and across any change that only makes the simulator
/// faster.
#[derive(Clone, Debug, PartialEq)]
pub struct SimStats {
    /// Requests the generators issued.
    pub issued: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Requests answered with a fault (shed requests included).
    pub faulted: u64,
    /// Requests refused at the front door.
    pub shed: u64,
    /// Attempts routed to the replica their principal was pinned to.
    pub affinity_hits: u64,
    /// First-sight pins.
    pub affinity_misses: u64,
    /// Mean latency of successful requests, seconds.
    pub mean_s: f64,
    /// Median latency, seconds.
    pub p50_s: f64,
    /// 95th percentile latency, seconds.
    pub p95_s: f64,
    /// 99th percentile latency, seconds.
    pub p99_s: f64,
    /// Latency samples behind the percentiles.
    pub samples: u64,
    /// Workload-specific exact counts (never event counts).
    pub extra: Vec<(&'static str, u64)>,
}

impl SimStats {
    fn from_workload(stats: &WorkloadStats) -> SimStats {
        // mean before any percentile: the percentile query sorts the
        // samples in place, and the goldens sum them in completion order
        let mean_s = stats.latency_mean();
        SimStats {
            issued: stats.issued(),
            completed: stats.completed(),
            faulted: stats.faulted(),
            shed: 0,
            affinity_hits: 0,
            affinity_misses: 0,
            mean_s,
            p50_s: stats.latency_percentile(50.0),
            p95_s: stats.latency_percentile(95.0),
            p99_s: stats.latency_percentile(99.0),
            samples: stats.completed(),
            extra: Vec::new(),
        }
    }

    fn with_door(mut self, dispatcher: &Dispatcher) -> SimStats {
        let c = dispatcher.counters();
        assert_eq!(
            c.accepted,
            c.completed + c.faulted,
            "request conservation: accepted == completed + faulted"
        );
        self.shed = c.shed;
        self.affinity_hits = c.affinity_hits;
        self.affinity_misses = c.affinity_misses;
        self
    }

    /// Requests that were not answered successfully.
    pub fn failed(&self) -> u64 {
        self.issued - self.completed
    }

    /// The digest compared with `expected/<workload>.txt`: one `key=value`
    /// line per statistic, latencies to four decimals.
    pub fn digest(&self) -> String {
        let mut out = format!(
            "issued={}\ncompleted={}\nfaulted={}\nshed={}\naffinity_hits={}\naffinity_misses={}\n\
             sim_mean_s={:.4}\nsim_p50_s={:.4}\nsim_p95_s={:.4}\nsim_p99_s={:.4}\nsamples={}\n",
            self.issued,
            self.completed,
            self.faulted,
            self.shed,
            self.affinity_hits,
            self.affinity_misses,
            self.mean_s,
            self.p50_s,
            self.p95_s,
            self.p99_s,
            self.samples,
        );
        for (k, v) in &self.extra {
            out.push_str(&format!("{k}={v}\n"));
        }
        out
    }
}

/// Counts read from a traced repetition's telemetry, by span or counter
/// name, plus a few workload-side totals.
pub type LayerCounts = BTreeMap<&'static str, f64>;

/// One repetition.
pub struct Rep {
    /// Exact simulated statistics.
    pub stats: SimStats,
    /// Kernel events executed in the measured window.
    pub events: u64,
    /// Deepest the event queue got over the whole repetition.
    pub queue_high_water: u64,
    /// Per-layer counts; empty unless the repetition was traced.
    pub counts: LayerCounts,
}

/// Every issued request was answered exactly once.
fn assert_answered(stats: &SimStats) {
    assert_eq!(
        stats.issued,
        stats.completed + stats.faulted,
        "request conservation: issued == answered"
    );
}

/// Read the per-layer counts out of a traced simulator.
fn layer_counts(sim: &Sim) -> LayerCounts {
    let mut counts = LayerCounts::new();
    let Some(t) = sim.telemetry() else {
        return counts;
    };
    for (key, span) in [
        ("wsstack.soap_dispatch_count", "soap.dispatch"),
        ("wsstack.uddi_publish_count", "uddi.publish"),
        ("blobstore.load_count", "db.load"),
        ("blobstore.store_count", "db.store"),
        ("gridsim.gram_job_count", "gram.job"),
        ("cyberaide.authenticate_count", "agent.authenticate"),
        ("cyberaide.stage_count", "agent.stage"),
        ("cyberaide.poll_count", "agent.poll"),
        ("onserve.invoke_count", "onserve.invoke"),
        ("fleet.dispatch_count", "dispatcher.dispatch"),
    ] {
        counts.insert(key, t.spans_named(span).len() as f64);
    }
    let load_bytes: f64 = t
        .spans_named("db.load")
        .into_iter()
        .filter_map(|id| t.span(id))
        .filter_map(|s| match s.attr("bytes") {
            Some(simkit::AttrValue::F64(b)) => Some(*b),
            Some(simkit::AttrValue::U64(b)) => Some(*b as f64),
            _ => None,
        })
        .sum();
    counts.insert("blobstore.load_bytes", load_bytes);
    for (key, counter) in [
        ("onserve.session_hits", "onserve.session_cache_hit"),
        ("fleet.qos_enqueued", "dispatcher.qos_enqueued"),
        ("fleet.retried", "dispatcher.retried"),
    ] {
        counts.insert(key, t.counter(counter) as f64);
    }
    counts
}

/// Where the measured window began: events executed and layer counts so
/// far, so that set-up work (boot, publish) is not billed to the window.
struct WindowStart {
    events: u64,
    counts: LayerCounts,
}

fn window_start(sim: &Sim) -> WindowStart {
    WindowStart {
        events: sim.events_executed(),
        counts: layer_counts(sim),
    }
}

fn finish(sim: &Sim, stats: SimStats, start: WindowStart) -> Option<Rep> {
    assert_answered(&stats);
    let mut counts = layer_counts(sim);
    for (key, before) in start.counts {
        *counts.get_mut(key).expect("same keys") -= before;
    }
    Some(Rep {
        stats,
        events: sim.events_executed() - start.events,
        queue_high_water: sim.profile().queue_depth_high_water as u64,
        counts,
    })
}

/// The appliance image every fleet replica boots from (the one the
/// `fleetscale` and `millionuser` benches use).
fn fleet_image() -> ApplianceImage {
    ApplianceImage {
        name: "onserve".into(),
        bytes: 600.0 * MB,
        boot_services: vec!["mysqld".into(), "tomcat".into(), "juddi".into()],
        recipe_fingerprint: 1,
    }
}

// -- fleet_day ---------------------------------------------------------------

/// Principal population requests draw from.
const DAY_POPULATION: u64 = 20_000;

fn fleet_day(seed: u64, tr: &mut Tracer, setup_only: bool) -> Option<Rep> {
    let mut sim = tr.sim(seed);
    let fleet = tr.phase("setup", |_| {
        let mut spec = FleetSpec::with_image(fleet_image());
        spec.topology = StorageTopology::Replicated;
        spec.initial_replicas = 8;
        spec.dispatcher.policy = Policy::RoundRobin;
        spec.dispatcher.max_in_flight = 4096;
        spec.dispatcher.affinity = Some(AffinityConfig { capacity: 1 << 16 });
        spec.base.config.cache_grid_sessions = true;
        spec.base.config.reuse_staged_files = true;
        let fleet = Fleet::new(&mut sim, spec);
        sim.run(); // cold-start the replicas
        fleet
    });
    tr.phase("publish", |_| {
        fleet.publish(
            &mut sim,
            "app.exe",
            64 * 1024,
            ExecutionProfile::quick()
                .lasting(Duration::from_millis(500))
                .producing(16.0 * KB),
            |_| {},
        );
        sim.run();
    });
    if setup_only {
        return None;
    }

    let until = sim.now() + Duration::from_secs(864);
    // distinct principals seen at the door, as a bitmap over `u{k}`
    let seen = Rc::new(RefCell::new(vec![false; DAY_POPULATION as usize]));
    let dispatcher = Rc::clone(fleet.dispatcher());
    let seen2 = Rc::clone(&seen);
    let sink: Rc<SubmitFn> = Rc::new(move |sim, req, done| {
        if let Request::Invoke {
            principal: Some(p), ..
        } = &req
        {
            if let Some(k) = p.strip_prefix('u').and_then(|s| s.parse::<usize>().ok()) {
                seen2.borrow_mut()[k] = true;
            }
        }
        dispatcher.submit(sim, req, done)
    });
    let stats = start_open_loop(
        &mut sim,
        ArrivalProcess::Diurnal {
            base_rate: 8.0,
            peak_rate: 40.0,
            period: Duration::from_secs(864),
        },
        Mix::invoke_population(&["app"], DAY_POPULATION),
        tr.wrap_submit(sink),
        until,
    );
    let start = window_start(&sim);
    tr.phase("drain", |tr| tr.drain(&mut sim));

    let mut out = SimStats::from_workload(&stats).with_door(fleet.dispatcher());
    let distinct = seen.borrow().iter().filter(|&&s| s).count() as u64;
    out.extra.push(("distinct_principals", distinct));
    finish(&sim, out, start)
}

// -- door_planes -------------------------------------------------------------

/// A test-double replica: a FIFO with a fixed virtual service time, one
/// kernel event per request. With no service time it answers inside
/// `serve`, scheduling nothing — the probes use that to time the
/// dispatcher alone.
pub struct StubBackend {
    name: String,
    service: Option<Duration>,
    busy_until: Cell<SimTime>,
}

impl StubBackend {
    /// A stub called `name`.
    pub fn new(name: &str, service: Option<Duration>) -> Rc<StubBackend> {
        Rc::new(StubBackend {
            name: name.to_owned(),
            service,
            busy_until: Cell::new(SimTime::ZERO),
        })
    }
}

impl Backend for StubBackend {
    fn name(&self) -> &str {
        &self.name
    }

    fn serve(&self, sim: &mut Sim, _req: Request, done: Responder) {
        match self.service {
            None => done(sim, Ok(SoapValue::Bool(true))),
            Some(service) => {
                let end = sim.now().max(self.busy_until.get()) + service;
                self.busy_until.set(end);
                sim.schedule_at(end, move |sim| done(sim, Ok(SoapValue::Bool(true))));
            }
        }
    }
}

/// Registered tenants behind the door (`t000` .. `t239`).
pub const DOOR_TENANTS: usize = 240;

/// Stub replicas, three per site.
pub const DOOR_REPLICAS: usize = 9;

/// Virtual service time of one stub replica. Every tenant is pinned at
/// first sight, and first sight happens in the opening seconds while the
/// origin is still the first site — so one site can end up serving nearly
/// every tenant. 25 ms keeps a single site (3 × 40 req/s) above the whole
/// offered load, whatever split the pins settle into.
fn door_service() -> Duration {
    Duration::from_millis(25)
}

/// The unregistered bursty tenant.
const FLOOD_TENANT: &str = "flood";

/// Which front-door planes a [`door`] carries.
#[derive(Clone, Copy, Default)]
pub struct Planes {
    /// Session affinity, pin table capacity 4096.
    pub affinity: bool,
    /// The health plane's windowed series.
    pub health: bool,
    /// Three-site geo routing, nearest first, spill threshold 4.
    pub geo: bool,
    /// Per-tenant QoS over the 240 registered tenants.
    pub qos: bool,
}

impl Planes {
    /// Every plane on.
    pub const ALL: Planes = Planes {
        affinity: true,
        health: true,
        geo: true,
        qos: true,
    };
}

/// The three sites of the door's geo plane.
fn door_sites() -> Vec<SiteSpec> {
    let mut east = SiteSpec::teragrid_like("east", 64, 4);
    east.wan_latency = Duration::from_millis(30);
    east.wan_bandwidth_bps = 100.0 * KB;
    let central = SiteSpec::teragrid_like("central", 64, 4);
    let mut west = SiteSpec::teragrid_like("west", 64, 4);
    west.wan_latency = Duration::from_millis(55);
    west.wan_bandwidth_bps = 70.0 * KB;
    vec![east, central, west]
}

/// The registered tenants' names.
pub fn door_tenants() -> Vec<String> {
    (0..DOOR_TENANTS).map(|i| format!("t{i:03}")).collect()
}

/// A bare dispatcher in front of [`DOOR_REPLICAS`] stubs with the given
/// planes attached. Returns the geo plane too, so the caller can move the
/// request origin.
pub fn door(planes: Planes, service: Option<Duration>) -> (Rc<Dispatcher>, Option<Rc<GeoPlane>>) {
    let dispatcher = Dispatcher::new(DispatcherConfig {
        policy: Policy::RoundRobin,
        max_in_flight: 512,
        affinity: planes.affinity.then_some(AffinityConfig { capacity: 4096 }),
        ..DispatcherConfig::default()
    });
    let health = planes.health.then(|| {
        let plane = HealthPlane::new(HealthConfig::default());
        dispatcher.set_health_plane(Rc::clone(&plane));
        plane
    });
    let geo = planes.geo.then(|| {
        let geo = GeoPlane::new(SiteMap::from_specs(&door_sites()));
        geo.set_spill_threshold(4);
        dispatcher.set_geo(Rc::clone(&geo));
        geo
    });
    for i in 0..DOOR_REPLICAS {
        let name = format!("r{i}");
        if let Some(geo) = &geo {
            let site = geo.map().sites()[i / 3].clone();
            geo.assign(&name, &site);
            if let Some(health) = &health {
                health.set_site(&name, &site);
            }
        }
        dispatcher.add_backend(StubBackend::new(&name, service));
    }
    if planes.qos {
        dispatcher.set_qos(QosConfig {
            default_tier: QosTier::Batch,
            tiers: door_tenants()
                .into_iter()
                .enumerate()
                .map(|(i, t)| (t, QosTier::ALL[i % 3]))
                .collect(),
            // deep enough that the flooder's backlog always waits and is
            // never shed: the contract wants workloads where nothing fails
            queue_depth: 1 << 20,
            borrow: 1,
        });
    }
    (dispatcher, geo)
}

/// Move the request origin to the next site every 600 virtual seconds.
fn rotate_origin(sim: &mut Sim, geo: Rc<GeoPlane>, turn: usize, until: SimTime) {
    let sites = geo.map().sites();
    geo.set_origin(&sites[turn % sites.len()]);
    let period = Duration::from_secs(600);
    if sim.now() + period <= until {
        sim.schedule(period, move |sim| rotate_origin(sim, geo, turn + 1, until));
    }
}

fn door_planes(seed: u64, tr: &mut Tracer, setup_only: bool) -> Option<Rep> {
    let mut sim = tr.sim(seed);
    let tenants = door_tenants();
    let (dispatcher, geo) = tr.phase("setup", |_| door(Planes::ALL, Some(door_service())));
    if setup_only {
        return None;
    }
    let until = sim.now() + Duration::from_secs(7200);
    rotate_origin(&mut sim, geo.expect("geo plane on"), 0, until);

    let d2 = Rc::clone(&dispatcher);
    let sink = tr.wrap_submit(Rc::new(move |sim: &mut Sim, req, done| {
        d2.submit(sim, req, done)
    }));
    let targets: Vec<(&str, &str)> = tenants.iter().map(|t| ("app", t.as_str())).collect();
    let behaved = start_open_loop(
        &mut sim,
        ArrivalProcess::Poisson { rate: 60.0 },
        Mix::invoke_as(&targets),
        Rc::clone(&sink),
        until,
    );
    // ~6 req/s on average in 3 s bursts of 40 req/s: far over the batch
    // tier's door quota, so every burst waits in the flooder's own queue
    let flood = start_open_loop(
        &mut sim,
        ArrivalProcess::Bursty {
            rate_on: 40.0,
            mean_on: Duration::from_secs(3),
            mean_off: Duration::from_secs(17),
        },
        Mix::invoke_as(&[("app", FLOOD_TENANT)]),
        sink,
        until,
    );
    let start = window_start(&sim);
    tr.phase("drain", |tr| tr.drain(&mut sim));

    // latency is the registered tenants'; the flooder's own wait is the
    // price QoS makes it pay and is pinned separately
    let flood_stats = SimStats::from_workload(&flood);
    assert_answered(&flood_stats);
    let mut out = SimStats::from_workload(&behaved).with_door(&dispatcher);
    out.issued += flood_stats.issued;
    out.completed += flood_stats.completed;
    out.faulted += flood_stats.faulted;
    let c = dispatcher.counters();
    assert_eq!(c.accepted + c.shed, out.issued, "door ledger");
    let mut enqueued = 0;
    for (tenant, q) in dispatcher.qos_tenants() {
        assert_eq!(q.issued, q.accepted + q.shed, "{tenant}: tenant ledger");
        assert_eq!((q.queued, q.in_flight), (0, 0), "{tenant}: drained");
        enqueued += q.enqueued;
    }
    out.extra.push(("qos_enqueued", enqueued));
    out.extra.push(("flood_issued", flood_stats.issued));
    out.extra
        .push(("flood_p50_ms", (flood_stats.p50_s * 1e3).round() as u64));
    out.extra
        .push(("flood_p99_ms", (flood_stats.p99_s * 1e3).round() as u64));
    finish(&sim, out, start)
}

// -- appliance_paper ---------------------------------------------------------

/// Invocations the closed-loop clients make in total.
const PAPER_INVOCATIONS: u64 = 80_000;

/// Declared parameters of the paper workload's executable.
pub const PAPER_PARAMS: [(&str, &str); 3] =
    [("label", "string"), ("steps", "int"), ("scale", "double")];

/// One invocation's typed arguments, drawn from `rng`.
pub fn paper_args(rng: &mut Rng) -> [(&'static str, SoapValue); 3] {
    [
        (
            "label",
            SoapValue::Str(format!("case-{:05}", rng.below(100_000))),
        ),
        ("steps", SoapValue::Int(rng.range(1, 10_000) as i64)),
        ("scale", SoapValue::Double(rng.range_f64(0.5, 2.0))),
    ]
}

/// Publish `file` through the portal and drain.
pub fn publish_on(sim: &mut Sim, d: &Deployment, file: &str, len: usize, params: &[(&str, &str)]) {
    let req = d.upload_request(
        file,
        len,
        ExecutionProfile::quick().producing(16.0 * KB),
        params,
    );
    let ok = Rc::new(Cell::new(false));
    let ok2 = Rc::clone(&ok);
    d.portal.upload(sim, req, move |_, res| {
        res.expect("publish");
        ok2.set(true);
    });
    sim.run();
    assert!(ok.get(), "publish of {file} never confirmed");
}

struct PaperLoop {
    d: Deployment,
    rng: RefCell<Rng>,
    issued: Cell<u64>,
    faulted: Cell<u64>,
    latencies: RefCell<Vec<f64>>,
}

/// One client: think (exponential, mean 2 s), invoke, wait, repeat until
/// the population has issued its total.
fn paper_client(sim: &mut Sim, st: Rc<PaperLoop>) {
    let think = Duration::from_secs_f64(st.rng.borrow_mut().exp(2.0));
    sim.schedule(think, move |sim| {
        if st.issued.get() >= PAPER_INVOCATIONS {
            return;
        }
        st.issued.set(st.issued.get() + 1);
        let args = paper_args(&mut st.rng.borrow_mut());
        let sent = sim.now();
        let st2 = Rc::clone(&st);
        st.d.invoke(sim, "tool", &args, move |sim, res| {
            match res {
                Ok(_) => st2
                    .latencies
                    .borrow_mut()
                    .push((sim.now() - sent).as_secs_f64()),
                Err(_) => st2.faulted.set(st2.faulted.get() + 1),
            }
            paper_client(sim, st2);
        });
    });
}

fn appliance_paper(seed: u64, tr: &mut Tracer, setup_only: bool) -> Option<Rep> {
    let mut sim = tr.sim(seed);
    let d = tr.phase("setup", |_| {
        Deployment::build(&mut sim, &DeploymentSpec::default())
    });
    tr.phase("publish", |_| {
        publish_on(&mut sim, &d, "tool.exe", 1024, &PAPER_PARAMS)
    });
    if setup_only {
        return None;
    }
    let st = Rc::new(PaperLoop {
        rng: RefCell::new(sim.rng().fork()),
        d,
        issued: Cell::new(0),
        faulted: Cell::new(0),
        latencies: RefCell::new(Vec::new()),
    });
    for _ in 0..16 {
        paper_client(&mut sim, Rc::clone(&st));
    }
    let start = window_start(&sim);
    tr.phase("drain", |tr| tr.drain(&mut sim));

    let mut lat = st.latencies.borrow_mut();
    let mean_s = lat.iter().sum::<f64>() / lat.len().max(1) as f64;
    lat.sort_by(f64::total_cmp);
    let (invocations, failures) = st.d.onserve.counters();
    let (auths, session_hits, _) = st.d.onserve.session_counters();
    assert_eq!((invocations, failures), (st.issued.get(), st.faulted.get()));
    let out = SimStats {
        issued: st.issued.get(),
        completed: lat.len() as u64,
        faulted: st.faulted.get(),
        shed: 0,
        affinity_hits: 0,
        affinity_misses: 0,
        mean_s,
        p50_s: percentile_sorted(&lat, 50.0),
        p95_s: percentile_sorted(&lat, 95.0),
        p99_s: percentile_sorted(&lat, 99.0),
        samples: lat.len() as u64,
        extra: vec![
            ("authentications", auths),
            ("session_hits", session_hits),
            ("polls", st.d.agent.polls_issued()),
        ],
    };
    drop(lat);
    finish(&sim, out, start)
}

// -- publish_storm -----------------------------------------------------------

/// Size of every uploaded executable.
const STORM_UPLOAD_LEN: usize = 64 * 1024;

/// UDDI inquiry by name, then `wsimport` of the service's WSDL, then a
/// typed request — what a consumer does before its first call. Returns
/// how many services were discovered.
fn discover(fleet: &Fleet, uploads: u64) -> u64 {
    let mut found = 0;
    for seq in 1..=uploads {
        let service = format!("wl{seq}");
        let mut registry = fleet.registry().borrow_mut();
        let hits = registry.find(&service);
        let Some(svc) = hits.iter().find(|s| s.name == service) else {
            continue; // a faulted upload publishes nothing
        };
        let host = svc.bindings[0]
            .access_point
            .trim_start_matches("http://")
            .split(':')
            .next()
            .expect("access point has a host");
        // the text the replica serves at `?wsdl`: the generator's output
        // for a parameterless executable
        let record = ExecutableRecord {
            id: seq,
            name: format!("{service}.exe"),
            description: format!("synthetic executable {service}.exe"),
            params: Vec::new(),
            original_len: STORM_UPLOAD_LEN,
            stored_len: 0,
            checksum: 0,
        };
        let wsdl_text = onserve::generator::generate(&record, host)
            .expect("generate")
            .wsdl
            .to_text();
        let stub = ClientStub::from_wsdl_text(&wsdl_text).expect("wsimport");
        let request = stub.build_request("execute", &[]).expect("typed request");
        assert_eq!(request.service, service);
        found += 1;
    }
    found
}

fn publish_storm(seed: u64, tr: &mut Tracer, setup_only: bool) -> Option<Rep> {
    let mut sim = tr.sim(seed);
    let fleet = tr.phase("setup", |_| {
        let mut spec = FleetSpec::with_image(fleet_image());
        spec.topology = StorageTopology::Replicated;
        spec.initial_replicas = 4;
        let fleet = Fleet::new(&mut sim, spec);
        sim.run();
        fleet
    });
    if setup_only {
        return None;
    }
    let until = sim.now() + Duration::from_secs(650);
    let dispatcher = Rc::clone(fleet.dispatcher());
    let sink = tr.wrap_submit(Rc::new(move |sim: &mut Sim, req, done| {
        dispatcher.submit(sim, req, done)
    }));
    let stats = start_closed_loop(
        &mut sim,
        8,
        Duration::from_secs(1),
        Mix {
            upload_fraction: 1.0,
            upload_len: STORM_UPLOAD_LEN,
            upload_profile: ExecutionProfile::quick(),
            services: Vec::new(),
            principal_population: None,
        },
        sink,
        until,
    );
    let start = window_start(&sim);
    tr.phase("drain", |tr| tr.drain(&mut sim));
    let mut out = SimStats::from_workload(&stats).with_door(fleet.dispatcher());
    let discovered = tr.phase("discovery", |_| discover(&fleet, out.issued));
    assert_eq!(
        discovered, out.completed,
        "every published service is discoverable"
    );
    out.extra.push(("discovered", discovered));
    let mut rep = finish(&sim, out, start)?;
    rep.counts.insert("bench.discovered", discovered as f64);
    Some(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_formats_counts_and_four_decimal_latencies() {
        let stats = SimStats {
            issued: 20881,
            completed: 20881,
            faulted: 0,
            shed: 0,
            affinity_hits: 7890,
            affinity_misses: 12991,
            mean_s: 15.700_94,
            p50_s: 12.0,
            p95_s: 34.718_049,
            p99_s: 41.000_05,
            samples: 20881,
            extra: vec![("distinct_principals", 12991)],
        };
        assert_eq!(
            stats.digest(),
            "issued=20881\ncompleted=20881\nfaulted=0\nshed=0\naffinity_hits=7890\n\
             affinity_misses=12991\nsim_mean_s=15.7009\nsim_p50_s=12.0000\nsim_p95_s=34.7180\n\
             sim_p99_s=41.0001\nsamples=20881\ndistinct_principals=12991\n"
        );
        assert_eq!(stats.failed(), 0);
    }

    /// `fleet_day` at the default seed is the `millionuser` CI run: the
    /// committed expectation must agree with that bench's golden row on
    /// every column the two share.
    #[test]
    fn fleet_day_expectation_matches_the_millionuser_golden() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let golden =
            std::fs::read_to_string(root.join("../crates/bench/tests/golden/millionuser.csv"))
                .expect("millionuser golden");
        let mut lines = golden.lines();
        let header: Vec<&str> = lines.next().expect("header").split(',').collect();
        let row: Vec<&str> = lines.next().expect("ci row").split(',').collect();
        let golden_of = |col: &str| row[header.iter().position(|h| *h == col).expect(col)];
        let expected =
            std::fs::read_to_string(root.join("expected/fleet_day.txt")).expect("expectation");
        let expected_of = |key: &str| {
            expected
                .lines()
                .find_map(|l| l.strip_prefix(key)?.strip_prefix('='))
                .unwrap_or_else(|| panic!("{key} missing"))
        };
        for (key, col) in [
            ("issued", "issued"),
            ("completed", "completed"),
            ("faulted", "faulted"),
            ("affinity_hits", "affinity_hits"),
            ("affinity_misses", "affinity_misses"),
            ("sim_mean_s", "mean_latency_s"),
            ("sim_p95_s", "p95_latency_s"),
            ("distinct_principals", "distinct_principals"),
        ] {
            assert_eq!(expected_of(key), golden_of(col), "{key} vs golden {col}");
        }
    }

    #[test]
    fn stub_backend_is_a_fifo_on_the_virtual_clock() {
        let mut sim = Sim::new(1);
        let stub = StubBackend::new("r0", Some(Duration::from_millis(100)));
        let done_at = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..3 {
            let d = Rc::clone(&done_at);
            let req = Request::Invoke {
                service: "app".into(),
                args: Vec::new(),
                principal: None,
            };
            stub.serve(
                &mut sim,
                req,
                Box::new(move |sim, res| {
                    res.expect("stub answers ok");
                    d.borrow_mut().push(sim.now().as_secs_f64());
                }),
            );
        }
        sim.run();
        let at = done_at.borrow();
        assert_eq!(at.len(), 3);
        for (got, want) in at.iter().zip([0.1, 0.2, 0.3]) {
            assert!((got - want).abs() < 1e-9, "{at:?}");
        }
    }
}
