//! Characterisation test: the front door with every plane on at once,
//! under faults.
//!
//! Each plane has its own suite with the other planes off; this is the one
//! scenario that crosses them. Six stub replicas on three sites sit behind
//! a dispatcher carrying affinity, a health plane, a federated geo plane
//! and per-tenant QoS (three tiers plus an unregistered flooder), with
//! telemetry on. Across two virtual minutes the run crosses three upload
//! broadcasts (one clean, one cut by an eject, one faulting), a seeded
//! eject with work in flight, a site outage (watchdogs parked by
//! `park_site`, pinned work forwarded), a drain under load and a
//! replacement replica, a replica going silent until the watchdog fires, a
//! canary share with a pin shift and its undo, a probation window, and
//! finally the loss of every replica with tenants still queued at the door.
//!
//! The digest — ledgers, pins, the health exposition, the span summary —
//! is compared byte for byte with `golden/door_all_planes.txt`, recorded
//! from the single-struct dispatcher before it was split into stages. A
//! refactor of the dispatcher must leave that file untouched.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::rc::Rc;

use fleet::{
    AffinityConfig, Backend, Dispatcher, DispatcherConfig, GeoPlane, HealthConfig, HealthPlane,
    Policy, QosConfig, QosTier, Request, Responder, RetryConfig, SiteMap,
};
use onserve::profile::ExecutionProfile;
use simkit::{Duration, Rng, Sim, SimTime};
use wsstack::{SoapFault, SoapValue};

/// A replica double: serves requests one at a time after a fixed service
/// time, holds answers behind a severed site until it reconnects (the way
/// `ReplicaBackend` does), and can be told to go silent or to fault.
struct Stub {
    name: String,
    site: String,
    geo: Rc<GeoPlane>,
    service: Duration,
    busy_until: Cell<SimTime>,
    silent: Cell<bool>,
    faulting: Cell<bool>,
    served: Cell<u64>,
}

impl Stub {
    fn new(name: &str, site: &str, geo: &Rc<GeoPlane>, service_ms: u64) -> Rc<Stub> {
        Rc::new(Stub {
            name: name.into(),
            site: site.into(),
            geo: Rc::clone(geo),
            service: Duration::from_millis(service_ms),
            busy_until: Cell::new(SimTime::ZERO),
            silent: Cell::new(false),
            faulting: Cell::new(false),
            served: Cell::new(0),
        })
    }
}

impl Backend for Stub {
    fn name(&self) -> &str {
        &self.name
    }

    fn serve(&self, sim: &mut Sim, _req: Request, done: Responder) {
        self.served.set(self.served.get() + 1);
        if self.silent.get() {
            return;
        }
        let end = sim.now().max(self.busy_until.get()) + self.service;
        self.busy_until.set(end);
        let fault = self.faulting.get();
        let (geo, site) = (Rc::clone(&self.geo), self.site.clone());
        sim.schedule_at(end, move |sim| {
            let answer = move |sim: &mut Sim| {
                if fault {
                    done(sim, Err(SoapFault::server("stub fault")));
                } else {
                    done(sim, Ok(SoapValue::Bool(true)));
                }
            };
            match geo.reconnect_at(&site, sim.now()) {
                Some(at) => {
                    sim.schedule_at(at, answer);
                }
                None => answer(sim),
            }
        });
    }
}

/// Client-side tally of how every submitted request ended.
#[derive(Default)]
struct Tally {
    issued: Cell<u64>,
    ok: Cell<u64>,
    faults: RefCell<std::collections::BTreeMap<String, u64>>,
}

fn submit(sim: &mut Sim, d: &Rc<Dispatcher>, tally: &Rc<Tally>, req: Request) {
    tally.issued.set(tally.issued.get() + 1);
    let t = Rc::clone(tally);
    d.submit(
        sim,
        req,
        Box::new(move |_, res| match res {
            Ok(_) => t.ok.set(t.ok.get() + 1),
            Err(f) => *t.faults.borrow_mut().entry(f.to_string()).or_insert(0) += 1,
        }),
    );
}

fn invoke(principal: Option<&str>) -> Request {
    Request::Invoke {
        service: "tool".into(),
        args: vec![("n".into(), SoapValue::Int(7))],
        principal: principal.map(str::to_owned),
    }
}

fn upload(file: &str) -> Request {
    Request::Upload {
        file_name: file.into(),
        payload: onserve::deployment::synth_executable(4096),
        profile: ExecutionProfile::quick(),
    }
}

fn at(sim: &mut Sim, secs: f64, f: impl FnOnce(&mut Sim) + 'static) {
    sim.schedule_at(SimTime::from_secs_f64(secs), f);
}

const REGISTERED: [(&str, QosTier); 7] = [
    ("g0", QosTier::Gold),
    ("g1", QosTier::Gold),
    ("s0", QosTier::Standard),
    ("s1", QosTier::Standard),
    ("s2", QosTier::Standard),
    ("b0", QosTier::Batch),
    ("b1", QosTier::Batch),
];

/// Span-summary lines kept verbatim in the golden.
const SPAN_HEAD: usize = 120;

fn fnv1a64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs the scenario; returns the digest and the full span summary.
fn run_scenario() -> (String, String) {
    let mut sim = Sim::new(1313);
    sim.enable_telemetry();

    let d = Dispatcher::new(DispatcherConfig {
        policy: Policy::RoundRobin,
        max_in_flight: 12,
        retry: Some(RetryConfig {
            max_retries: 3,
            base_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_secs(2),
            jitter: 0.2,
        }),
        request_timeout: Some(Duration::from_secs(4)),
        // fewer slots than principals, so the table also evicts
        affinity: Some(AffinityConfig { capacity: 12 }),
    });
    let health = HealthPlane::new(HealthConfig::default());
    d.set_health_plane(Rc::clone(&health));

    let mut map = SiteMap::new();
    for site in ["east", "central", "west"] {
        map.add_site(site);
    }
    map.link("east", "central", Duration::from_millis(20), 1e8);
    map.link("central", "west", Duration::from_millis(30), 1e8);
    map.link("east", "west", Duration::from_millis(55), 1e8);
    let geo = GeoPlane::new(map);
    geo.set_federation(true);
    geo.set_spill_threshold(2);
    d.set_geo(Rc::clone(&geo));

    let mut stubs: Vec<Rc<Stub>> = Vec::new();
    for (name, site, service_ms) in [
        ("e0", "east", 120),
        ("e1", "east", 150),
        ("c0", "central", 100),
        ("c1", "central", 180),
        ("w0", "west", 140),
        ("w1", "west", 160),
    ] {
        geo.assign(name, site);
        health.set_site(name, site);
        let stub = Stub::new(name, site, &geo, service_ms);
        d.add_backend(stub.clone());
        stubs.push(stub);
    }
    let stub = |name: &str| Rc::clone(stubs.iter().find(|s| s.name == name).expect("stub"));

    // after the backends, the way the benchmark's door attaches it
    d.set_qos(QosConfig {
        default_tier: QosTier::Batch,
        tiers: REGISTERED
            .iter()
            .map(|(t, tier)| ((*t).to_owned(), *tier))
            .collect(),
        queue_depth: 6,
        borrow: 1,
    });

    let drained: Rc<RefCell<Vec<String>>> = Rc::default();
    let dr = Rc::clone(&drained);
    d.set_drain_hook(move |sim, name| {
        dr.borrow_mut()
            .push(format!("{name}@{:.3}", sim.now().as_secs_f64()));
    });
    let cataloged: Rc<RefCell<Vec<String>>> = Rc::default();
    let cat = Rc::clone(&cataloged);
    d.set_upload_hook(move |_, req| {
        if let Request::Upload { file_name, .. } = req {
            cat.borrow_mut().push(file_name.clone());
        }
    });

    let tally: Rc<Tally> = Rc::default();

    // -- traffic: seeded open-loop arrivals over 120 virtual seconds --------
    let mut rng = Rng::new(77);
    let mut t = 0.0;
    while t < 120.0 {
        t += rng.exp(1.0 / 24.0);
        let principal: Option<String> = match rng.below(20) {
            0 => None,
            1..=14 => Some(REGISTERED[rng.below(7) as usize].0.to_owned()),
            _ => Some(format!("guest{}", rng.below(6))),
        };
        let (d2, tally2) = (Rc::clone(&d), Rc::clone(&tally));
        at(&mut sim, t, move |sim| {
            submit(sim, &d2, &tally2, invoke(principal.as_deref()));
        });
    }
    // the unregistered flooder: 40 req/s bursts, far over a batch quota
    for (from, to) in [(10.0, 13.0), (50.0, 53.0), (80.0, 82.0), (108.0, 110.5)] {
        let mut t = from;
        while t < to {
            let (d2, tally2) = (Rc::clone(&d), Rc::clone(&tally));
            at(&mut sim, t, move |sim| {
                submit(sim, &d2, &tally2, invoke(Some("flood")));
            });
            t += 0.025;
        }
    }
    // the request origin follows the sun
    for (secs, site) in [(0.0, "west"), (40.0, "central"), (80.0, "east")] {
        let g = Rc::clone(&geo);
        at(&mut sim, secs, move |_| g.set_origin(site));
    }

    // -- uploads: clean, cut by the eject below, faulting --------------------
    for (secs, file) in [(0.0, "tool.exe"), (11.95, "cut.exe"), (16.0, "bad.exe")] {
        let (d2, tally2) = (Rc::clone(&d), Rc::clone(&tally));
        at(&mut sim, secs, move |sim| {
            submit(sim, &d2, &tally2, upload(file))
        });
    }
    let w1 = stub("w1");
    at(&mut sim, 15.9, move |_| w1.faulting.set(true));
    let w1 = stub("w1");
    at(&mut sim, 16.6, move |_| w1.faulting.set(false));

    // -- faults and control actions ------------------------------------------
    // crash: c1 dies with work (and one upload branch) outstanding
    let d2 = Rc::clone(&d);
    at(&mut sim, 12.0, move |sim| {
        assert!(d2.eject_backend(sim, "c1"));
    });
    // west is severed 20 s..45 s; the fleet would park its watchdogs
    let reconnect = SimTime::from_secs(45);
    geo.add_outage("west", SimTime::from_secs(20), reconnect);
    let parked = Rc::new(Cell::new(0usize));
    let (d2, p) = (Rc::clone(&d), Rc::clone(&parked));
    at(&mut sim, 20.0, move |sim| {
        p.set(d2.park_site(sim, "west", reconnect))
    });
    // drain e1 under load, then bring up e2 in its place
    let d2 = Rc::clone(&d);
    at(&mut sim, 35.0, move |sim| {
        assert!(d2.remove_backend(sim, "e1"));
    });
    let (d2, g, h) = (Rc::clone(&d), Rc::clone(&geo), Rc::clone(&health));
    at(&mut sim, 40.0, move |_| {
        g.assign("e2", "east");
        h.set_site("e2", "east");
        d2.add_backend(Stub::new("e2", "east", &g, 110));
    });
    // c0 goes silent: only the watchdog can tell
    let c0 = stub("c0");
    at(&mut sim, 65.0, move |_| c0.silent.set(true));
    // canary window on e2: a first-sight share plus a pin shift, undone later
    let shifted: Rc<RefCell<Vec<(String, String)>>> = Rc::default();
    let (d2, sh) = (Rc::clone(&d), Rc::clone(&shifted));
    at(&mut sim, 70.0, move |_| {
        d2.set_canary("e2", 25);
        *sh.borrow_mut() = d2.shift_pins("e2", 0.3);
    });
    let restored = Rc::new(Cell::new(0usize));
    let (d2, sh, r) = (Rc::clone(&d), Rc::clone(&shifted), Rc::clone(&restored));
    at(&mut sim, 78.0, move |_| {
        r.set(d2.restore_pins("e2", &sh.borrow()));
        d2.clear_canary();
    });
    // probation window on e0
    let d2 = Rc::clone(&d);
    at(&mut sim, 75.0, move |_| {
        assert!(d2.set_probation("e0", true));
    });
    let d2 = Rc::clone(&d);
    at(&mut sim, 90.0, move |_| {
        assert!(d2.set_probation("e0", false));
    });
    // the pin table mid-run: under the outage, after the shift, after the undo
    let pins: Rc<RefCell<Vec<String>>> = Rc::default();
    for secs in [30.0, 72.0, 100.0] {
        let (d2, p) = (Rc::clone(&d), Rc::clone(&pins));
        at(&mut sim, secs, move |_| {
            p.borrow_mut()
                .push(format!("pins@{secs}: {:?}", d2.live_pins()));
        });
    }
    // total outage with the flooder still queued: the door flushes as shed
    let d2 = Rc::clone(&d);
    at(&mut sim, 110.0, move |sim| {
        for name in d2.live_pin_counts().keys() {
            assert!(d2.eject_backend(sim, name));
        }
    });

    sim.run();

    // -- the invariants any door must hold, whatever the bytes ---------------
    let c = d.counters();
    assert_eq!(c.accepted + c.shed, tally.issued.get(), "door ledger");
    assert_eq!(c.accepted, c.completed + c.faulted, "every admit settles");
    let faults: u64 = tally.faults.borrow().values().sum();
    assert_eq!(tally.ok.get() + faults, tally.issued.get(), "answered once");
    assert_eq!(d.in_flight(), 0);
    for (tenant, q) in d.qos_tenants() {
        assert_eq!(q.issued, q.accepted + q.shed, "{tenant}: tenant ledger");
        assert_eq!((q.queued, q.in_flight), (0, 0), "{tenant}: drained");
    }
    assert!(c.retried > 0 && c.forwarded > 0 && c.affinity_repins > 0);
    assert!(parked.get() > 0, "the outage caught work in flight");
    assert!(
        restored.get() > 0,
        "the undo found shifted pins still in place"
    );

    // -- the digest ----------------------------------------------------------
    let mut out = String::new();
    writeln!(out, "counters: {c:?}").unwrap();
    writeln!(out, "geo: {:?}", geo.counters()).unwrap();
    writeln!(
        out,
        "client: issued={} ok={}",
        tally.issued.get(),
        tally.ok.get()
    )
    .unwrap();
    for (fault, n) in tally.faults.borrow().iter() {
        writeln!(out, "client fault x{n}: {fault}").unwrap();
    }
    writeln!(out, "parked: {}", parked.get()).unwrap();
    writeln!(out, "drained: {:?}", drained.borrow()).unwrap();
    writeln!(out, "cataloged: {:?}", cataloged.borrow()).unwrap();
    writeln!(out, "shifted: {:?}", shifted.borrow()).unwrap();
    writeln!(out, "restored: {}", restored.get()).unwrap();
    for s in &stubs {
        writeln!(out, "served {}: {}", s.name, s.served.get()).unwrap();
    }
    writeln!(out, "finished: {:.6}", sim.now().as_secs_f64()).unwrap();
    writeln!(out, "-- qos_tenants").unwrap();
    for (tenant, q) in d.qos_tenants() {
        writeln!(out, "{tenant}: {q:?}").unwrap();
    }
    writeln!(out, "-- live_pins").unwrap();
    for snapshot in pins.borrow().iter() {
        writeln!(out, "{snapshot}").unwrap();
    }
    writeln!(out, "pins@end: {:?}", d.live_pins()).unwrap();
    writeln!(out, "-- prometheus_text").unwrap();
    out.push_str(&health.prometheus_text(sim.now()));
    // one line per span, attributes and all: pinned whole by hash, with the
    // head kept readable (the full text goes to the target dir on mismatch)
    let spans = sim.span_summary();
    writeln!(
        out,
        "-- span_summary: {} lines, fnv1a64 {:016x}",
        spans.lines().count(),
        fnv1a64(&spans)
    )
    .unwrap();
    for line in spans.lines().take(SPAN_HEAD) {
        writeln!(out, "{line}").unwrap();
    }
    (out, spans)
}

#[test]
fn every_plane_on_under_faults_matches_golden() {
    let (digest, spans) = run_scenario();
    assert_eq!(digest, run_scenario().0, "same seed, same bytes");
    let golden =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/door_all_planes.txt");
    let expected = std::fs::read_to_string(&golden).unwrap_or_default();
    if digest != expected {
        let tmp = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
        let actual = tmp.join("door_all_planes.txt");
        std::fs::write(&actual, &digest).expect("write actual digest");
        std::fs::write(tmp.join("door_all_planes.spans.txt"), &spans).expect("write spans");
        panic!(
            "digest differs from {}; actual written to {}",
            golden.display(),
            actual.display()
        );
    }
}
