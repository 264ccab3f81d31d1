//! Per-layer probes: direct calls into each crate's public functions with
//! the workloads' own inputs, timed from outside.
//!
//! A probe runs its routine in batches of at least `batch` host time and
//! reports the fastest of [`BATCHES`] batches — the preemption-free floor,
//! like `perfbaseline`. Routines that need a world (a `Sim`, a deployment)
//! build it themselves and time only the calls under test; `.us` probes
//! that schedule events time the call plus the drain of what it scheduled.

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration as Wall, Instant};

use blobstore::{
    compress, decompress, BlobDb, ExecutableRecord, ParamSpec, TimedDb, WriteStrategy,
};
use fleet::{
    start_open_loop, ArrivalProcess, Dispatcher, HealthConfig, HealthPlane, Mix, Request, SubmitFn,
};
use gridsim::scheduler::{ClusterScheduler, SchedPolicy, SchedRequest};
use gridsim::{CertAuthority, Gatekeeper, JobDescription};
use onserve::deployment::{synth_payload, Deployment, DeploymentSpec};
use onserve::profile::ExecutionProfile;
use simkit::wheel::TimerWheel;
use simkit::{
    Duration, FifoServer, Host, HostSpec, Link, PsServer, Recorder, Rng, ServerConfig, Sim,
    SimTime, WindowedRegistry, GBIT_PER_S, MB,
};
use vappliance::{Appliance, ApplianceImage, DeploySpec};
use wsstack::container::ServiceArchive;
use wsstack::soap::Envelope;
use wsstack::{
    BindingTemplate, ClientStub, HttpChannel, ParamType, SoapContainer, SoapValue, UddiRegistry,
    WsdlDocument, WsdlOperation, WsdlParam, XmlNode,
};

use crate::workloads::{door, door_tenants, paper_args, publish_on, Planes, PAPER_PARAMS};

/// Batches per probe; the fastest one is reported.
const BATCHES: usize = 5;

/// One probe result: `(metric name, value in the metric's unit)`.
pub type ProbeValues = Vec<(&'static str, f64)>;

/// What a routine did in one call: operations, and the host time they took.
type Sample = (u64, Wall);

/// Time `f`, counting it as `ops` operations.
fn timed<R>(ops: u64, f: impl FnOnce() -> R) -> Sample {
    let t = Instant::now();
    black_box(f());
    (ops, t.elapsed())
}

/// Time 64 calls of a pure function.
fn timed64<R>(mut f: impl FnMut() -> R) -> Sample {
    timed(64, || {
        for _ in 0..64 {
            black_box(f());
        }
    })
}

/// Host nanoseconds per operation of `routine`: the fastest of
/// [`BATCHES`] batches, each at least `batch` of timed work.
fn ns_per_op(batch: Wall, mut routine: impl FnMut() -> Sample) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..BATCHES {
        let (mut ops, mut spent) = (0u64, Wall::ZERO);
        while spent < batch {
            let (o, d) = routine();
            ops += o;
            spent += d;
        }
        best = best.min(spent.as_nanos() as f64 / ops.max(1) as f64);
    }
    best
}

struct Probes {
    batch: Wall,
    out: ProbeValues,
}

impl Probes {
    fn ns(&mut self, name: &'static str, routine: impl FnMut() -> Sample) {
        let v = ns_per_op(self.batch, routine);
        self.out.push((name, v));
    }

    fn us(&mut self, name: &'static str, routine: impl FnMut() -> Sample) {
        let v = ns_per_op(self.batch, routine) / 1e3;
        self.out.push((name, v));
    }
}

/// Probes [`run_all`] runs.
const PROBES: usize = 54;

/// The batch length with which all probes together take about `budget`,
/// capped at the full set's 50 ms.
pub fn batch_for(budget: Wall) -> Wall {
    (budget / (PROBES * BATCHES) as u32).clamp(Wall::from_millis(2), Wall::from_millis(50))
}

/// Run every probe with batches of `batch` and return the values.
pub fn run_all(batch: Wall) -> ProbeValues {
    let mut p = Probes {
        batch,
        out: Vec::new(),
    };
    simkit_probes(&mut p);
    wsstack_probes(&mut p);
    blobstore_probes(&mut p);
    gridsim_probes(&mut p);
    cyberaide_probes(&mut p);
    vappliance_probes(&mut p);
    onserve_probes(&mut p);
    fleet_probes(&mut p);
    assert_eq!(
        p.out.len(),
        PROBES,
        "keep PROBES in step with the probe list"
    );
    p.out
}

// -- simkit ------------------------------------------------------------------

fn ps_flows(n: u64) -> Sample {
    let mut sim = Sim::new(2);
    let srv = PsServer::new(ServerConfig::named("srv", 100.0));
    timed(n, || {
        for i in 0..n {
            PsServer::submit(&srv, &mut sim, 1.0 + i as f64, |_| {});
        }
        sim.run()
    })
}

fn simkit_probes(p: &mut Probes) {
    p.ns("simkit.event_ns", || {
        let mut sim = Sim::new(1);
        timed(1024, || {
            for i in 0..1024 {
                sim.schedule(Duration::from_micros(i), |_| {});
            }
            sim.run()
        })
    });
    p.ns("simkit.same_tick_event_ns", || {
        let mut sim = Sim::new(4);
        timed(16 * 64, || {
            for t in 0..16 {
                for _ in 0..64 {
                    sim.schedule(Duration::from_micros(t), |_| {});
                }
            }
            sim.run()
        })
    });
    p.ns("simkit.wheel_push_pop_ns", || {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        timed(1024, || {
            for i in 0..1024 {
                w.push(i, i, 0);
            }
            while w.pop_next(u64::MAX, |_| true).is_some() {}
        })
    });
    p.ns("simkit.ps_flow_ns.16", || ps_flows(16));
    p.ns("simkit.ps_flow_ns.512", || ps_flows(512));
    p.ns("simkit.fifo_job_ns", || {
        let mut sim = Sim::new(2);
        let srv = FifoServer::new(ServerConfig::named("disk", 100.0));
        timed(64, || {
            for i in 0..64 {
                FifoServer::submit(&srv, &mut sim, 1.0 + i as f64, |_| {});
            }
            sim.run()
        })
    });
    p.ns("simkit.recorder_span_ns", || {
        let mut rec = Recorder::new(Duration::from_secs(3));
        timed(256, || {
            for i in 0..256 {
                let t0 = SimTime::from_secs_f64(i as f64 * 0.7);
                let t1 = SimTime::from_secs_f64(i as f64 * 0.7 + 0.9);
                rec.add_span("host.cpu.busy", t0, t1, 0.9);
            }
        })
    });
    p.ns("simkit.windowed_observe_ns", || {
        let mut reg = WindowedRegistry::new(Duration::from_secs(5), 64);
        let id = reg.histogram("fleet.replica.r0.latency_us");
        timed(1024, || {
            for i in 0..1024u64 {
                reg.record(id, SimTime::from_ticks(i * 50_000), 25_000 + i);
            }
        })
    });
    for (name, on) in [("simkit.span_off_ns", false), ("simkit.span_on_ns", true)] {
        p.ns(name, || {
            let mut sim = Sim::new(3);
            if on {
                sim.enable_telemetry();
            }
            timed(4096, || {
                for _ in 0..4096 {
                    let id = sim.span_begin("bench.span");
                    sim.span_end(id);
                }
                black_box(&mut sim);
            })
        });
    }
}

// -- wsstack -----------------------------------------------------------------

/// The `appliance_paper` request: `tool.execute(label, steps, scale)`.
fn paper_envelope() -> Envelope {
    let mut env = Envelope::request("tool", "execute");
    for (name, value) in paper_args(&mut Rng::new(7)) {
        env = env.arg(name, value);
    }
    env
}

/// The WSDL the generator emits for the paper workload's executable.
fn paper_wsdl() -> WsdlDocument {
    WsdlDocument::single_op(
        "tool",
        "http://appliance:8080/services/tool",
        "synthetic executable tool.exe",
        WsdlOperation {
            name: "execute".into(),
            inputs: vec![
                WsdlParam::new("label", ParamType::Str),
                WsdlParam::new("steps", ParamType::Int),
                WsdlParam::new("scale", ParamType::Double),
            ],
            output: ParamType::Binary,
        },
    )
}

/// Services in the registry the UDDI probes run against.
const UDDI_SERVICES: usize = 2000;

fn uddi_binding(i: usize) -> BindingTemplate {
    BindingTemplate {
        access_point: format!("http://replica0:8080/axis2/services/wl{i}"),
        wsdl_location: format!("http://replica0:8080/axis2/services/wl{i}?wsdl"),
    }
}

fn uddi_registry() -> UddiRegistry {
    let mut reg = UddiRegistry::new();
    for i in 0..UDDI_SERVICES {
        reg.publish(
            "onserve-fleet",
            &format!("wl{i}"),
            "fleet front-end endpoint",
            uddi_binding(i),
        )
        .expect("unique names");
    }
    reg
}

fn wsstack_probes(p: &mut Probes) {
    let env = paper_envelope();
    let doc = env.to_xml();
    let text = doc.to_xml();
    p.ns("wsstack.xml_write_ns", || timed64(|| doc.to_xml()));
    p.ns("wsstack.xml_parse_ns", || {
        timed64(|| XmlNode::parse(&text).expect("xml"))
    });
    p.ns("wsstack.soap_encode_ns", || {
        timed64(|| env.to_xml().to_xml())
    });
    p.ns("wsstack.soap_decode_ns", || {
        timed64(|| Envelope::parse(&XmlNode::parse(&text).expect("xml")).expect("soap"))
    });
    let wsdl = paper_wsdl();
    let wsdl_text = wsdl.to_text();
    p.ns("wsstack.wsdl_write_ns", || timed64(|| wsdl.to_text()));
    p.ns("wsstack.wsdl_parse_ns", || {
        timed64(|| WsdlDocument::parse_text(&wsdl_text).expect("wsdl"))
    });
    let args = paper_args(&mut Rng::new(7));
    p.ns("wsstack.client_stub_ns", || {
        timed64(|| {
            let stub = ClientStub::from_wsdl_text(&wsdl_text).expect("wsimport");
            stub.build_request("execute", &args).expect("typed request")
        })
    });
    p.ns("wsstack.uddi_publish_ns", || {
        timed(UDDI_SERVICES as u64, uddi_registry)
    });
    let mut reg = uddi_registry();
    p.ns("wsstack.uddi_find_ns", || {
        timed64(|| reg.find("wl1234").len())
    });
    p.ns("wsstack.uddi_wildcard_ns", || {
        timed64(|| reg.find("%wl12%").len())
    });
    p.us("wsstack.channel_call_us", || {
        // an echo service behind a LAN channel: transfer, dispatch, respond
        let mut sim = Sim::new(5);
        let container = SoapContainer::new(Host::new(&HostSpec::commodity("appliance")));
        let archive = ServiceArchive {
            name: "tool".into(),
            wsdl: paper_wsdl(),
            archive_bytes: 4096.0,
            handler: Rc::new(
                |sim: &mut Sim,
                 _: &str,
                 _: &std::collections::BTreeMap<String, SoapValue>,
                 respond: wsstack::container::Responder| {
                    respond(sim, Ok(SoapValue::Bool(true)))
                },
            ),
        };
        SoapContainer::deploy(&container, &mut sim, archive, |_, r| r.expect("deploy"));
        sim.run();
        let lan = Rc::new(simkit::Duplex::new(
            "lan",
            "client",
            "appliance",
            GBIT_PER_S,
            Duration::from_millis(1),
        ));
        let channel = HttpChannel::new(lan, container);
        let env = paper_envelope();
        timed(64, || {
            for _ in 0..64 {
                channel.call(&mut sim, env.clone(), |_, r| {
                    r.expect("echo");
                });
                sim.run();
            }
        })
    });
}

// -- blobstore ---------------------------------------------------------------

fn timed_db(strategy: WriteStrategy) -> Rc<TimedDb> {
    TimedDb::new(
        Rc::new(RefCell::new(BlobDb::new())),
        Host::new(&HostSpec::commodity("appliance")),
        strategy,
    )
}

fn blobstore_probes(p: &mut Probes) {
    // the payloads the workloads store: `upload_request`'s synthesis
    let exe_64k = synth_payload(64 * 1024, 0x5eed ^ (64 * 1024));
    let exe_1k = synth_payload(1024, 0x5eed ^ 1024);
    let packed = compress(&exe_64k);
    p.ns("blobstore.compress_ns_per_kb", || {
        timed(64, || compress(&exe_64k))
    });
    p.ns("blobstore.decompress_ns_per_kb", || {
        timed(64, || decompress(&packed).expect("round trip"))
    });
    p.us("blobstore.db_insert_us.64k", || {
        let mut db = BlobDb::new();
        timed(16, || {
            for i in 0..16 {
                db.insert(&format!("wl{i}.exe"), "d", Vec::new(), &exe_64k)
                    .expect("insert");
            }
        })
    });
    let mut db = BlobDb::new();
    db.insert("app.exe", "d", Vec::new(), &exe_64k)
        .expect("insert");
    db.insert("tool.exe", "d", Vec::new(), &exe_1k)
        .expect("insert");
    p.us("blobstore.db_load_us.1k", || {
        timed64(|| db.load("tool.exe").expect("load"))
    });
    p.us("blobstore.db_load_us.64k", || {
        timed64(|| db.load("app.exe").expect("load"))
    });
    for (name, strategy) in [
        (
            "blobstore.timed_store_us.double",
            WriteStrategy::DoubleWrite,
        ),
        ("blobstore.timed_store_us.direct", WriteStrategy::Direct),
    ] {
        p.us(name, || {
            let mut sim = Sim::new(6);
            let db = timed_db(strategy);
            timed(8, || {
                for i in 0..8 {
                    db.store(
                        &mut sim,
                        &format!("wl{i}.exe"),
                        "d",
                        Vec::new(),
                        exe_64k.clone(),
                        |_, res, _| {
                            res.expect("store");
                        },
                    );
                    sim.run();
                }
            })
        });
    }
    p.us("blobstore.timed_load_us.64k", || {
        let mut sim = Sim::new(6);
        let db = timed_db(WriteStrategy::Direct);
        db.db()
            .borrow_mut()
            .insert("app.exe", "d", Vec::new(), &exe_64k)
            .expect("insert");
        timed(8, || {
            for _ in 0..8 {
                db.load_for_use(&mut sim, "app.exe", |_, res, _| {
                    res.expect("load");
                });
                sim.run();
            }
        })
    });
}

// -- gridsim -----------------------------------------------------------------

/// The job description the agent builds for one paper-workload invocation.
fn paper_job() -> JobDescription {
    JobDescription::new("tool.exe")
        .args(["case-00042", "4200", "1.25"])
        .capture_stdout("tool-1.out")
        .walltime(Duration::from_secs(3600))
}

fn gridsim_probes(p: &mut Probes) {
    let jd = paper_job();
    let rsl = jd.to_rsl();
    p.ns("gridsim.rsl_write_ns", || timed64(|| jd.to_rsl()));
    p.ns("gridsim.rsl_parse_ns", || {
        timed64(|| JobDescription::parse(&rsl).expect("rsl"))
    });
    for (name, policy) in [
        ("gridsim.sched_job_ns.fcfs", SchedPolicy::Fcfs),
        ("gridsim.sched_job_ns.backfill", SchedPolicy::Backfill),
    ] {
        p.ns(name, || {
            let mut sim = Sim::new(1);
            let sched = ClusterScheduler::new("site", 16, 8, policy);
            timed(1000, || {
                for i in 0..1000u64 {
                    let cores = 1 + (i % 16) as u32;
                    let sc = Rc::clone(&sched);
                    sim.schedule(Duration::from_secs(i / 4), move |sim| {
                        ClusterScheduler::submit(
                            &sc,
                            sim,
                            SchedRequest {
                                cores,
                                walltime_limit: Duration::from_secs(500),
                                actual_runtime: Duration::from_secs(60 + u64::from(cores)),
                            },
                            |_, _| {},
                        );
                    });
                }
                sim.run()
            })
        });
    }
    let mut ca = CertAuthority::new("/CN=CA", 7);
    let proxy = ca
        .issue("/CN=alice", SimTime::ZERO, Duration::from_secs(365 * 86400))
        .delegate(SimTime::ZERO, Duration::from_secs(30 * 86400))
        .delegate(SimTime::ZERO, Duration::from_secs(12 * 3600))
        .proxy();
    p.ns("gridsim.proxy_validate_ns", || {
        timed64(|| {
            proxy
                .validate(&ca, SimTime::from_secs(60), 16)
                .expect("valid chain")
        })
    });
    p.us("gridsim.gram_job_us", || {
        let mut sim = Sim::new(8);
        let grid = gridsim::ProductionGrid::teragrid("appliance");
        let cred = grid.enroll_user(
            "/O=SimTeraGrid/CN=alice",
            "alice",
            sim.now(),
            Duration::from_secs(365 * 86400),
        );
        let proxy = cred.proxy();
        let site = Rc::clone(&grid.sites()[0]);
        site.storage()
            .borrow_mut()
            .put("tool.exe", 1024.0)
            .expect("staged");
        let exec = ExecutionProfile::quick().sample(&mut Rng::new(1));
        let rsl = paper_job().to_rsl();
        timed(32, || {
            for _ in 0..32 {
                Gatekeeper::submit(site.gatekeeper(), &mut sim, &proxy, &rsl, exec)
                    .expect("accepted");
                sim.run();
            }
        })
    });
    p.us("gridsim.stage_in_us.64k", || {
        let mut sim = Sim::new(8);
        let grid = gridsim::ProductionGrid::teragrid("appliance");
        let site = Rc::clone(&grid.sites()[0]);
        timed(32, || {
            for _ in 0..32 {
                site.stage_in(&mut sim, "app.exe", 65_536.0, |_, r| r.expect("staged"));
                sim.run();
            }
        })
    });
}

// -- cyberaide ---------------------------------------------------------------

fn cyberaide_probes(p: &mut Probes) {
    /// Calls per world: amortizes nothing (each call is timed with its own
    /// drain) but keeps world construction out of the way.
    const CALLS: u64 = 16;
    let world = || {
        let mut sim = Sim::new(9);
        let d = Deployment::build(&mut sim, &DeploymentSpec::default());
        let session = Rc::new(std::cell::Cell::new(0));
        let s2 = Rc::clone(&session);
        d.agent
            .authenticate(&mut sim, "alice", "s3cret", move |_, r| {
                s2.set(r.expect("authenticated"))
            });
        sim.run();
        let site = Rc::clone(&d.grid.sites()[0]);
        site.storage()
            .borrow_mut()
            .put("tool.exe", 1024.0)
            .expect("staged");
        (sim, d, session.get(), site)
    };
    p.us("cyberaide.authenticate_us", || {
        let (mut sim, d, _, _) = world();
        timed(CALLS, || {
            for _ in 0..CALLS {
                d.agent.authenticate(&mut sim, "alice", "s3cret", |_, r| {
                    r.expect("authenticated");
                });
                sim.run();
            }
        })
    });
    p.us("cyberaide.stage_us.64k", || {
        let (mut sim, d, session, site) = world();
        timed(CALLS, || {
            for _ in 0..CALLS {
                d.agent
                    .stage_file(&mut sim, session, &site, "app.exe", 65_536.0, |_, r| {
                        r.expect("staged")
                    });
                sim.run();
            }
        })
    });
    let exec = ExecutionProfile::quick().sample(&mut Rng::new(1));
    p.us("cyberaide.submit_us", || {
        let (mut sim, d, session, site) = world();
        let jd = paper_job();
        timed(CALLS, || {
            for _ in 0..CALLS {
                d.agent
                    .submit_job(&mut sim, session, &site, &jd, exec, |_, r| {
                        r.expect("submitted");
                    });
                sim.run();
            }
        })
    });
    p.us("cyberaide.poll_us", || {
        let (mut sim, d, session, site) = world();
        let handle = Rc::new(RefCell::new(None));
        let h2 = Rc::clone(&handle);
        d.agent
            .submit_job(&mut sim, session, &site, &paper_job(), exec, move |_, r| {
                *h2.borrow_mut() = Some(r.expect("submitted"))
            });
        sim.run(); // the job has finished: every poll fetches the full output
        let handle = handle.borrow_mut().take().expect("job handle");
        timed(CALLS, || {
            for _ in 0..CALLS {
                d.agent
                    .poll_output(&mut sim, session, &site, &handle, |_, r| {
                        r.expect("polled");
                    });
                sim.run();
            }
        })
    });
}

// -- vappliance --------------------------------------------------------------

fn vappliance_probes(p: &mut Probes) {
    let image = ApplianceImage {
        name: "onserve".into(),
        bytes: 600.0 * MB,
        boot_services: vec!["mysqld".into(), "tomcat".into(), "juddi".into()],
        recipe_fingerprint: 1,
    };
    p.us("vappliance.boot_us", || {
        let mut sim = Sim::new(10);
        let link = Link::new(
            "imgstore",
            "store",
            "vmm",
            GBIT_PER_S,
            Duration::from_millis(5),
        );
        timed(8, || {
            for i in 0..8 {
                let spec = DeploySpec::default_for(&format!("replica{i}"));
                Appliance::deploy(&mut sim, &image, &link, &spec, |_, app| {
                    assert!(app.is_running());
                });
                sim.run();
            }
        })
    });
}

// -- onserve -----------------------------------------------------------------

fn onserve_probes(p: &mut Probes) {
    let params: Vec<ParamSpec> = PAPER_PARAMS
        .iter()
        .map(|&(n, t)| ParamSpec::new(n, t))
        .collect();
    let record = ExecutableRecord {
        id: 1,
        name: "tool.exe".into(),
        description: "synthetic executable tool.exe".into(),
        params: params.clone(),
        original_len: 1024,
        stored_len: 200,
        checksum: 0,
    };
    p.us("onserve.generate_us", || {
        timed64(|| onserve::generator::generate(&record, "appliance").expect("generate"))
    });
    let args: std::collections::BTreeMap<String, SoapValue> = paper_args(&mut Rng::new(7))
        .into_iter()
        .map(|(n, v)| (n.to_owned(), v))
        .collect();
    p.ns("onserve.validate_args_ns", || {
        timed64(|| onserve::validate_args(&params, &args).expect("valid"))
    });
    p.us("onserve.upload_us.64k", || {
        let mut sim = Sim::new(11);
        let d = Deployment::build(&mut sim, &DeploymentSpec::default());
        timed(8, || {
            for i in 0..8 {
                publish_on(&mut sim, &d, &format!("wl{i}.exe"), 64 * 1024, &[]);
            }
        })
    });
    for (name, len) in [
        ("onserve.invoke_us.1k", 1024),
        ("onserve.invoke_us.64k", 64 * 1024),
    ] {
        p.us(name, || {
            let mut sim = Sim::new(12);
            let d = Deployment::build(&mut sim, &DeploymentSpec::default());
            publish_on(&mut sim, &d, "tool.exe", len, &PAPER_PARAMS);
            let mut rng = Rng::new(7);
            timed(8, || {
                for _ in 0..8 {
                    d.invoke(&mut sim, "tool", &paper_args(&mut rng), |_, r| {
                        r.expect("invoked");
                    });
                    sim.run();
                }
            })
        });
    }
}

// -- fleet -------------------------------------------------------------------

/// Submit `n` tenant-keyed invocations through `dispatcher`; the stubs
/// answer inside `serve`, so nothing is left to drain.
fn submit_burst(sim: &mut Sim, dispatcher: &Rc<Dispatcher>, tenants: &[String], n: usize) {
    for i in 0..n {
        dispatcher.submit(
            sim,
            Request::Invoke {
                service: "app".into(),
                args: Vec::new(),
                principal: Some(tenants[i % tenants.len()].clone()),
            },
            Box::new(|_, r| {
                r.expect("stub answers");
            }),
        );
    }
}

fn fleet_probes(p: &mut Probes) {
    let tenants = door_tenants();
    for (name, planes) in [
        ("fleet.submit_ns.bare", Planes::default()),
        (
            "fleet.submit_ns.affinity",
            Planes {
                affinity: true,
                ..Planes::default()
            },
        ),
        (
            "fleet.submit_ns.health",
            Planes {
                health: true,
                ..Planes::default()
            },
        ),
        (
            "fleet.submit_ns.geo",
            Planes {
                geo: true,
                ..Planes::default()
            },
        ),
        (
            "fleet.submit_ns.qos",
            Planes {
                qos: true,
                ..Planes::default()
            },
        ),
        ("fleet.submit_ns.all", Planes::ALL),
    ] {
        p.ns(name, || {
            let mut sim = Sim::new(13);
            let (dispatcher, _) = door(planes, None);
            // warm: every tenant registered and pinned before timing
            submit_burst(&mut sim, &dispatcher, &tenants, tenants.len());
            timed(2048, || submit_burst(&mut sim, &dispatcher, &tenants, 2048))
        });
    }
    p.ns("fleet.workload_draw_ns", || {
        // the fleet_day generator into a sink that answers at once: the
        // arrival draw, the request draw and one kernel event per request
        let mut sim = Sim::new(14);
        let sink: Rc<SubmitFn> = Rc::new(|sim, _req, done| done(sim, Ok(SoapValue::Bool(true))));
        let stats = start_open_loop(
            &mut sim,
            ArrivalProcess::Diurnal {
                base_rate: 8.0,
                peak_rate: 40.0,
                period: Duration::from_secs(864),
            },
            Mix::invoke_population(&["app"], 20_000),
            sink,
            SimTime::from_secs(864),
        );
        let (_, wall) = timed64(|| sim.run());
        (stats.issued(), wall)
    });
    p.us("fleet.health_prom_us", || {
        let plane = HealthPlane::new(HealthConfig::default());
        for i in 0..2000u64 {
            let now = SimTime::from_ticks(i * 10_000);
            plane.record_attempt(
                now,
                &format!("r{}", i % 9),
                Duration::from_millis(25),
                false,
            );
            plane.record_submit(now, i % 7, 0, Some(&tenants[i as usize % tenants.len()]));
        }
        timed64(|| plane.prometheus_text(SimTime::from_secs(20)))
    });
}
