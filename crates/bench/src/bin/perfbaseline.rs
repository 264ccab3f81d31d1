//! Tracked kernel performance baseline.
//!
//! Measures the simkit hot paths (event queue, processor-sharing server,
//! metric recorder, span-tree export), the end-to-end Figure-6 pipeline,
//! the two host-time sinks of the upload path (payload synthesis,
//! exact-name UDDI inquiry), the two of the invocation path (sizing a
//! SOAP request, delegating and validating a proxy chain), the two
//! byte-work floors (reloading a stored row, fanning one upload out to
//! four replicas) and the front door with every plane on, and writes the results as machine-readable JSON to
//! `BENCH_kernel.json` at the repo root. CI and future optimisation PRs
//! diff this file to catch regressions.
//!
//! Run with: `cargo run --release -p onserve-bench --bin perfbaseline`
//!
//! With `--check`, the binary re-measures every scenario and compares
//! against the committed `BENCH_kernel.json` instead of overwriting it,
//! exiting non-zero if any scenario regressed by more than 25% — the
//! CI perf gate (`scripts/ci.sh`). The comparison is **min vs min**: on a
//! shared single-vCPU runner the sample mean swings ±50% run-to-run with
//! host preemption while the fastest sample — the preemption-free floor —
//! stays within a few percent, so the floor is what the gate trusts. A
//! scenario over tolerance is re-measured a few times before it is
//! flagged; real regressions from algorithmic changes survive retries and
//! are far larger than the margin anyway. When the runner itself is too
//! noisy to judge — median within-scenario sample spread over 1.35x —
//! over-tolerance scenarios are reported but the gate exits 0 (advisory):
//! a verdict from a machine that can't time a constant loop twice alike
//! is not a verdict. That downgrade covers timing verdicts only: a scenario
//! measured here but missing from `BENCH_kernel.json`, or listed there but
//! no longer measured, always fails the check — the gate must not pass by
//! omission.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration as WallDuration, Instant};

use blobstore::{BlobDb, TimedDb, WriteStrategy};
use fleet::{
    AffinityConfig, Backend, Dispatcher, DispatcherConfig, Fleet, FleetSpec, GeoPlane,
    HealthConfig, HealthPlane, Policy, QosConfig, QosTier, Request, Responder, SiteMap,
};
use gridsim::{CertAuthority, MyProxyServer, SiteSpec};
use onserve::deployment::{synth_executable, synth_payload};
use onserve::profile::ExecutionProfile;
use onserve_bench::figures;
use onserve_bench::fleetrun::fleet_image;
use simkit::telemetry::{parse_json, Json};
use simkit::wheel::TimerWheel;
use simkit::{Duration, Host, HostSpec, PsServer, Recorder, ServerConfig, Sim, SimTime, KB};
use wsstack::soap::Envelope;
use wsstack::{BindingTemplate, SoapValue, UddiRegistry};

/// One measured scenario.
struct Entry {
    name: &'static str,
    /// Mean nanoseconds per operation.
    mean_ns: f64,
    /// Fastest sample, ns per operation.
    min_ns: f64,
    /// Operations per second implied by the mean.
    ops_per_sec: f64,
    /// Slowest/fastest sample ratio — the scenario's own noise gauge. A
    /// quiet machine measures these loops within a few percent; host
    /// preemption on a shared runner shows up as spread well over 1.3.
    spread: f64,
}

/// Calibrate a batch to ~2 ms, then time `samples` batches of `routine`,
/// whose return value is the number of operations it performed.
fn measure(name: &'static str, samples: usize, mut routine: impl FnMut() -> u64) -> Entry {
    let target = WallDuration::from_millis(2);
    let mut batch: u64 = 1;
    loop {
        let t0 = Instant::now();
        let mut ops = 0;
        for _ in 0..batch {
            ops += std::hint::black_box(routine());
        }
        let el = t0.elapsed();
        std::hint::black_box(ops);
        if el >= target || batch >= 1 << 24 {
            if el > WallDuration::ZERO && el < target {
                let scale = target.as_secs_f64() / el.as_secs_f64();
                batch = ((batch as f64 * scale).ceil() as u64).max(batch);
            }
            break;
        }
        batch *= 2;
    }
    let mut total_ns = 0.0;
    let mut min_ns = f64::INFINITY;
    let mut max_ns: f64 = 0.0;
    for _ in 0..samples {
        let t0 = Instant::now();
        let mut ops: u64 = 0;
        for _ in 0..batch {
            ops += std::hint::black_box(routine());
        }
        let ns = t0.elapsed().as_nanos() as f64 / ops as f64;
        total_ns += ns;
        min_ns = min_ns.min(ns);
        max_ns = max_ns.max(ns);
    }
    let mean_ns = total_ns / samples as f64;
    Entry {
        name,
        mean_ns,
        min_ns,
        ops_per_sec: 1e9 / mean_ns,
        spread: max_ns / min_ns,
    }
}

/// Schedule-and-drain through the event queue; one op = one event.
fn bench_event_queue() -> Entry {
    const EVENTS: u64 = 1024;
    measure("engine.queue_push_pop", 20, || {
        let mut sim = Sim::new(1);
        for i in 0..EVENTS {
            sim.schedule(Duration::from_micros(i), |_| {});
        }
        sim.run();
        EVENTS
    })
}

/// The raw timer wheel, no boxed closures or kernel bookkeeping — the
/// structural cost `engine.queue_push_pop` pays on top of its event
/// dispatch. Same shape as that scenario: 1024 entries at distinct
/// ascending ticks, then a full drain. One op = one entry through.
fn bench_wheel_push_pop() -> Entry {
    const EVENTS: u64 = 1024;
    measure("engine.wheel_push_pop", 20, || {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        for i in 0..EVENTS {
            w.push(i, i, 0);
        }
        while w.pop_next(u64::MAX, |_| true).is_some() {}
        EVENTS
    })
}

/// Worst-case wheel traffic: entries spread 65536 ticks apart land on
/// levels 2–4 and must cascade down level by level before level 0 can
/// stage them. One op = one entry pushed, cascaded, and popped.
fn bench_wheel_cascade() -> Entry {
    const EVENTS: u64 = 512;
    measure("engine.wheel_cascade", 20, || {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        for i in 0..EVENTS {
            w.push(i * 65_536, i, 0);
        }
        while w.pop_next(u64::MAX, |_| true).is_some() {}
        EVENTS
    })
}

/// Same-tick batch execution through the full kernel: 64 events per tick
/// across 16 ticks, drained by `run`'s batched loop (one slot scan and
/// one clock update per tick instead of one queue pop per event). One op
/// = one executed event.
fn bench_same_tick_batch() -> Entry {
    const TICKS: u64 = 16;
    const PER_TICK: u64 = 64;
    measure("engine.same_tick_batch_64", 20, || {
        let mut sim = Sim::new(4);
        for t in 0..TICKS {
            for _ in 0..PER_TICK {
                sim.schedule(Duration::from_micros(t), |_| {});
            }
        }
        sim.run();
        TICKS * PER_TICK
    })
}

/// The onServe watchdog's traffic: arm a 48 h timeout, let a short live
/// event run, disarm. One op = one arm + disarm.
fn bench_cancel_rearm() -> Entry {
    const ROUNDS: u64 = 1024;
    measure("engine.cancel_rearm", 20, || {
        let mut sim = Sim::new(5);
        for _ in 0..ROUNDS {
            let timeout = sim.schedule(Duration::from_secs(48 * 3600), |_| {});
            sim.schedule(Duration::from_millis(1), |_| {});
            sim.step();
            sim.cancel_event(timeout);
        }
        sim.run();
        ROUNDS
    })
}

/// Metric-recording PS server under churn: submit `n` staggered flows,
/// run to completion. One op = one completed flow (each completion
/// triggers an advance + rate recompute + reschedule).
fn bench_ps_flows(name: &'static str, n: u64) -> Entry {
    measure(name, 20, move || {
        let mut sim = Sim::new(2);
        let srv = PsServer::new(ServerConfig::named("srv", 100.0));
        for i in 0..n {
            PsServer::submit(&srv, &mut sim, 1.0 + i as f64, |_| {});
        }
        sim.run();
        n
    })
}

/// Submit a 50-unit flow whose completion submits the next, `left` times.
fn chain_flows(srv: &Rc<RefCell<PsServer>>, sim: &mut Sim, left: u64) {
    if left > 0 {
        let srv2 = Rc::clone(srv);
        PsServer::submit(srv, sim, 50.0, move |sim| chain_flows(&srv2, sim, left - 1));
    }
}

/// The appliance's shape on each of its resources: one flow at a time on
/// an otherwise idle server, the next submitted from the completion of
/// the last (`ps_flows_2/16/64` submit everything up front and never see
/// a server go from empty to one flow and back). One op = one flow.
fn bench_ps_flows_1() -> Entry {
    const FLOWS: u64 = 256;
    measure("server.ps_flows_1", 20, || {
        let mut sim = Sim::new(2);
        let srv = PsServer::new(ServerConfig::named("srv", 100.0));
        chain_flows(&srv, &mut sim, FLOWS);
        sim.run();
        FLOWS
    })
}

/// The same chain on a server a long flow keeps busy throughout: every
/// completion re-arms the tick for the long flow and the submit that
/// follows supersedes it at once. One op = one flow = one retracted tick.
fn bench_ps_resubmit() -> Entry {
    const FLOWS: u64 = 256;
    measure("server.ps_resubmit", 20, || {
        let mut sim = Sim::new(2);
        let srv = PsServer::new(ServerConfig::named("srv", 100.0));
        PsServer::submit(&srv, &mut sim, 20_000.0, |_| {});
        chain_flows(&srv, &mut sim, FLOWS);
        sim.run();
        FLOWS
    })
}

/// Span accumulation into the bucketed recorder; one op = one add_span.
fn bench_recorder() -> Entry {
    const SPANS: u64 = 256;
    measure("metrics.add_span", 20, || {
        let mut rec = Recorder::new(Duration::from_secs(3));
        for i in 0..SPANS {
            let t0 = SimTime::from_secs_f64(i as f64 * 0.7);
            let t1 = SimTime::from_secs_f64(i as f64 * 0.7 + 0.9);
            rec.add_span("host.cpu.busy", t0, t1, 0.9);
        }
        SPANS
    })
}

/// The span API with telemetry off — the common case, which must cost no
/// more than a null check. One op = one begin/end pair.
fn bench_span_disabled() -> Entry {
    const PAIRS: u64 = 4096;
    measure("telemetry.span_disabled", 20, || {
        let mut sim = Sim::new(3);
        for _ in 0..PAIRS {
            let id = sim.span_begin("bench.span");
            sim.span_end(id);
        }
        std::hint::black_box(&mut sim);
        PAIRS
    })
}

/// The span API with telemetry on; one op = one recorded begin/end pair.
fn bench_span_enabled() -> Entry {
    const PAIRS: u64 = 4096;
    measure("telemetry.span_enabled", 20, || {
        let mut sim = Sim::new(3);
        sim.enable_telemetry();
        for _ in 0..PAIRS {
            let id = sim.span_begin("bench.span");
            sim.span_end(id);
        }
        std::hint::black_box(&mut sim);
        PAIRS
    })
}

/// Rendering the span summary of a traced fleet run: 8 000 answered
/// requests, each a three-deep `dispatcher.dispatch → soap.dispatch →
/// onserve.invoke` chain. One op = one span rendered; the cost per span
/// must not grow with the number of spans.
fn bench_span_tree() -> Entry {
    const CHAINS: u64 = 8_000;
    let mut sim = Sim::new(5);
    sim.enable_telemetry();
    for i in 0..CHAINS {
        let door = sim.span_begin("dispatcher.dispatch");
        sim.span_attr(door, "request", i);
        let soap = sim.span_child("soap.dispatch", door);
        let invoke = sim.span_child("onserve.invoke", soap);
        for id in [invoke, soap, door] {
            sim.span_end(id);
        }
    }
    measure("telemetry.span_tree_24k", 10, move || {
        std::hint::black_box(sim.span_summary());
        3 * CHAINS
    })
}

/// The full Figure-6 invocation pipeline; one op = one invocation.
fn bench_fig6_pipeline() -> Entry {
    measure("pipeline.fig6", 10, || {
        figures::fig6(|_| {});
        1
    })
}

/// The 64 KB synthetic executable every fleet upload builds once, under
/// the seed `synth_executable` derives. One op = one payload.
fn bench_synth_payload() -> Entry {
    const LEN: usize = 64 * 1024;
    measure("deployment.synth_payload_64k", 20, || {
        std::hint::black_box(synth_payload(
            std::hint::black_box(LEN),
            0x5eed ^ LEN as u64,
        ));
        1
    })
}

/// What `fleet_day` does 20 881 times to 8 rows: `load_for_use` of a
/// stored 64 KB executable, drained. Every load is charged its disk and
/// CPU time; the host decodes and verifies the row on the first only. One
/// op = one load.
fn bench_load_for_use() -> Entry {
    const LOADS: u64 = 32;
    let mut sim = Sim::new(6);
    let db = TimedDb::new(
        Rc::new(RefCell::new(BlobDb::new())),
        Host::new(&HostSpec::commodity("appliance")),
        WriteStrategy::Direct,
    );
    db.store(&mut sim, "app.exe", "d", Vec::new(), synth_executable(64 * 1024), |_, res, _| {
        res.expect("store");
    });
    sim.run();
    measure("blobstore.load_for_use_64k", 20, move || {
        for _ in 0..LOADS {
            db.load_for_use(&mut sim, "app.exe", |_, res, _| {
                res.expect("load");
            });
            sim.run();
        }
        LOADS
    })
}

/// What `publish_storm` does 1 997 times: one 64 KB upload through the
/// front door of a 4-replica fleet, drained — synthesised by the client,
/// compressed by the first replica to store it, the rest of the portal
/// and provisioning pipeline four times over. One op = one upload.
fn bench_upload_fanout() -> Entry {
    let mut sim = Sim::new(7);
    let mut spec = FleetSpec::with_image(fleet_image());
    spec.initial_replicas = 4;
    let fleet = Fleet::new(&mut sim, spec);
    sim.run();
    let mut seq = 0u64;
    measure("fleet.upload_fanout_4", 10, move || {
        seq += 1;
        let upload = Request::Upload {
            file_name: format!("wl{seq}.exe"),
            payload: synth_executable(64 * 1024),
            profile: ExecutionProfile::quick(),
        };
        fleet.dispatcher().clone().submit(
            &mut sim,
            upload,
            Box::new(|_, res| {
                res.expect("upload");
            }),
        );
        sim.run();
        1
    })
}

/// A replica that answers inside `serve` and schedules nothing, so only
/// the front door is timed.
struct InlineStub(String);

impl Backend for InlineStub {
    fn name(&self) -> &str {
        &self.0
    }

    fn serve(&self, sim: &mut Sim, _req: Request, done: Responder) {
        done(sim, Ok(SoapValue::Bool(true)));
    }
}

/// The front door with every plane on, in the shape of the ledger probe
/// `fleet.submit_ns.all` (`benchmark/src/probes.rs`): affinity, a health
/// plane, a three-site geo plane and QoS over 240 tenants, in front of
/// nine stubs answering inline. Every tenant is registered and pinned
/// before timing. One op = one keyed invocation admitted, routed,
/// answered and settled.
fn bench_door_all_planes() -> Entry {
    bench_door("fleet.door_all_planes", 4096)
}

/// [`bench_door_all_planes`] with a pin table too small for the 240
/// tenants: the oldest pin is evicted before its tenant comes round
/// again, so every keyed route is a first sight and walks the geo
/// nearest-site path the pinned door barely runs.
fn bench_door_first_sight() -> Entry {
    bench_door("fleet.door_first_sight", 128)
}

/// The all-planes door with a pin table of `capacity` keys.
fn bench_door(name: &'static str, capacity: usize) -> Entry {
    let dispatcher = Dispatcher::new(DispatcherConfig {
        policy: Policy::RoundRobin,
        max_in_flight: 512,
        affinity: Some(AffinityConfig { capacity }),
        ..DispatcherConfig::default()
    });
    let health = HealthPlane::new(HealthConfig::default());
    dispatcher.set_health_plane(Rc::clone(&health));
    let mut sites = ["east", "central", "west"].map(|s| SiteSpec::teragrid_like(s, 64, 4));
    (sites[0].wan_latency, sites[0].wan_bandwidth_bps) = (Duration::from_millis(30), 100.0 * KB);
    (sites[2].wan_latency, sites[2].wan_bandwidth_bps) = (Duration::from_millis(55), 70.0 * KB);
    let geo = GeoPlane::new(SiteMap::from_specs(&sites));
    geo.set_spill_threshold(4);
    dispatcher.set_geo(Rc::clone(&geo));
    for i in 0..9 {
        let name = format!("r{i}");
        let site = &geo.map().sites()[i / 3];
        geo.assign(&name, site);
        health.set_site(&name, site);
        dispatcher.add_backend(Rc::new(InlineStub(name)));
    }
    let tenants: Vec<String> = (0..240).map(|i| format!("t{i:03}")).collect();
    dispatcher.set_qos(QosConfig {
        default_tier: QosTier::Batch,
        tiers: tenants
            .iter()
            .cloned()
            .zip(QosTier::ALL.into_iter().cycle())
            .collect(),
        queue_depth: 1 << 20,
        borrow: 1,
    });
    let mut sim = Sim::new(13);
    let door = Rc::clone(&dispatcher);
    let round = move |sim: &mut Sim| {
        for tenant in &tenants {
            let req = Request::Invoke {
                service: "app".into(),
                args: Vec::new(),
                principal: Some(tenant.clone()),
            };
            let done: Responder = Box::new(|_, res| {
                res.expect("stub answers");
            });
            dispatcher.submit(sim, req, done);
        }
        tenants.len() as u64
    };
    round(&mut sim);
    round(&mut sim);
    // the second round hits every pin the table kept and none it evicted
    let kept = if capacity >= 240 { 240 } else { 0 };
    assert_eq!(door.counters().affinity_hits, kept, "{name}: pin hits");
    measure(name, 20, move || round(&mut sim))
}

/// An exact-name inquiry against a front-end registry of 2000 services —
/// the discovery step of a consumer, on the registry shape
/// `benchmark/src/probes.rs` times as `wsstack.uddi_find_ns`. One op =
/// one `find`.
fn bench_uddi_find_exact() -> Entry {
    let mut reg = UddiRegistry::new();
    for i in 0..2000 {
        let access_point = format!("http://replica0:8080/axis2/services/wl{i}");
        let binding = BindingTemplate {
            wsdl_location: format!("{access_point}?wsdl"),
            access_point,
        };
        reg.publish(
            "onserve-fleet",
            &format!("wl{i}"),
            "fleet front-end endpoint",
            binding,
        )
        .expect("unique names");
    }
    measure("uddi.find_exact_2000", 20, move || {
        assert_eq!(reg.find(std::hint::black_box("wl1234")).len(), 1);
        1
    })
}

/// Sizing the `appliance_paper` request — `tool.execute(label, steps,
/// scale)`, the envelope `benchmark/src/probes.rs` encodes — which the
/// channel and the container each do once per call. One op = one
/// `wire_size`.
fn bench_wire_size_paper() -> Entry {
    let env = Envelope::request("tool", "execute")
        .arg("label", SoapValue::Str("case-04217".into()))
        .arg("steps", SoapValue::Int(4200))
        .arg("scale", SoapValue::Double(1.25));
    measure("soap.wire_size_paper", 20, move || {
        std::hint::black_box(std::hint::black_box(&env).wire_size());
        1
    })
}

/// What authentication and each later presentation of the proxy cost the
/// host: MyProxy delegates a short proxy from the stored credential
/// (EEC → stored proxy → session proxy, a 3-certificate chain) and a
/// gatekeeper validates it. One op = one `retrieve` plus one `validate`.
fn bench_retrieve_validate() -> Entry {
    let mut ca = CertAuthority::new("/O=SimTeraGrid/CN=CA", 7);
    let eec = ca.issue(
        "/O=SimTeraGrid/CN=alice",
        SimTime::ZERO,
        Duration::from_secs(365 * 86_400),
    );
    let mut myproxy = MyProxyServer::new();
    myproxy.store(
        "alice",
        "s3cret",
        eec.delegate(SimTime::ZERO, Duration::from_secs(30 * 86_400)),
    );
    let now = SimTime::from_secs(60);
    measure("security.retrieve_validate", 20, move || {
        let session = myproxy
            .retrieve("alice", "s3cret", now, Duration::from_secs(12 * 3600))
            .expect("stored credential");
        let proxy = session.proxy();
        assert_eq!(proxy.depth(), 2);
        proxy.validate(&ca, now, 8).expect("valid chain");
        1
    })
}

/// Maximum tolerated min-ns ratio vs the committed baseline in `--check`.
const CHECK_TOLERANCE: f64 = 1.25;

/// Re-measurements granted to a scenario over tolerance before `--check`
/// flags it — absorbs a preemption spike landing on every sample of one
/// scenario's first pass.
const CHECK_RETRIES: usize = 3;

/// Pause before each `--check` retry. In CI the gate runs right after the
/// build and test steps; deferred kernel work (writeback, cache eviction)
/// keeps stealing the single vCPU for a while, so retrying back-to-back
/// just re-samples the same noise window.
const CHECK_SETTLE: WallDuration = WallDuration::from_millis(300);

/// Median per-scenario sample spread above which the runner is too noisy
/// for the gate's verdict to mean anything: regressions are still printed
/// but the exit code is 0 (advisory). A quiet machine stays well under
/// this; a shared vCPU being preempted mid-sample blows past it.
const NOISE_SPREAD_LIMIT: f64 = 1.35;

/// A scenario's committed floor.
fn baseline(doc: &Json, name: &str) -> Option<f64> {
    doc.get(name)?.get("min_ns")?.as_num()
}

/// Scenarios on one side only: measured here without a committed floor, or
/// committed but no longer measured. Either way `BENCH_kernel.json` is
/// stale, and `--check` fails rather than wave the scenario through.
fn out_of_step(measured: &[&str], doc: &Json) -> Vec<String> {
    let mut stale = Vec::new();
    for name in measured.iter().filter(|n| baseline(doc, n).is_none()) {
        stale.push(format!("{name:<28} measured but not in the committed baseline"));
    }
    if let Json::Obj(fields) = doc {
        for (name, _) in fields.iter().filter(|(n, _)| !measured.contains(&n.as_str())) {
            stale.push(format!("{name:<28} in the committed baseline but no longer measured"));
        }
    }
    stale
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let scenarios: Vec<fn() -> Entry> = vec![
        bench_event_queue,
        bench_wheel_push_pop,
        bench_wheel_cascade,
        bench_same_tick_batch,
        bench_cancel_rearm,
        bench_ps_flows_1,
        bench_ps_resubmit,
        || bench_ps_flows("server.ps_flows_2", 2),
        || bench_ps_flows("server.ps_flows_16", 16),
        || bench_ps_flows("server.ps_flows_64", 64),
        bench_recorder,
        bench_span_disabled,
        bench_span_enabled,
        bench_span_tree,
        bench_fig6_pipeline,
        bench_synth_payload,
        bench_load_for_use,
        bench_upload_fanout,
        bench_door_all_planes,
        bench_door_first_sight,
        bench_uddi_find_exact,
        bench_wire_size_paper,
        bench_retrieve_validate,
    ];
    let entries: Vec<Entry> = scenarios.iter().map(|f| f()).collect();

    for e in &entries {
        println!(
            "{:<28} {:>12.1} ns/op  (min {:>10.1})  {:>14.0} ops/s",
            e.name, e.mean_ns, e.min_ns, e.ops_per_sec
        );
    }

    // repo root = two levels above this crate's manifest
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("repo root")
        .to_path_buf();
    let path = root.join("BENCH_kernel.json");

    if check {
        let committed = std::fs::read_to_string(&path).expect("read BENCH_kernel.json");
        let doc = parse_json(&committed).expect("parse BENCH_kernel.json");
        // the scenario sets must match both ways before any timing counts
        let names: Vec<&str> = entries.iter().map(|e| e.name).collect();
        let stale = out_of_step(&names, &doc);
        if !stale.is_empty() {
            eprintln!("  {}", stale.join("\n  "));
            eprintln!(
                "perf check FAILED: {} scenario(s) out of step with {} — \
                 re-record `BENCH_kernel.json`",
                stale.len(),
                path.display()
            );
            std::process::exit(1);
        }
        let mut regressions = 0;
        for (i, e) in entries.iter().enumerate() {
            let base = baseline(&doc, e.name).expect("checked above: every scenario has one");
            let mut floor = e.min_ns;
            let mut attempts = 0;
            while floor > base * CHECK_TOLERANCE && attempts < CHECK_RETRIES {
                std::thread::sleep(CHECK_SETTLE);
                floor = floor.min(scenarios[i]().min_ns);
                attempts += 1;
            }
            if floor > base * CHECK_TOLERANCE {
                eprintln!(
                    "REGRESSION {:<28} floor {:.1} ns/op vs baseline {:.1} (+{:.0}%)",
                    e.name,
                    floor,
                    base,
                    100.0 * (floor / base - 1.0)
                );
                regressions += 1;
            }
        }
        let mut spreads: Vec<f64> = entries.iter().map(|e| e.spread).collect();
        spreads.sort_by(|a, b| a.total_cmp(b));
        let noise = spreads[spreads.len() / 2];
        if regressions > 0 {
            if noise > NOISE_SPREAD_LIMIT {
                eprintln!(
                    "perf check ADVISORY: {regressions} scenario(s) over tolerance, but the \
                     runner is too noisy to judge (median sample spread {noise:.2}x > \
                     {NOISE_SPREAD_LIMIT}x) — not failing; re-run on a quiet machine"
                );
                return;
            }
            eprintln!("perf check FAILED: {regressions} scenario(s) regressed");
            std::process::exit(1);
        }
        eprintln!("(perf check OK against {})", path.display());
        return;
    }

    let mut json = String::from("{\n");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        json.push_str(&format!(
            "  \"{}\": {{ \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \"ops_per_sec\": {:.0} }}{}\n",
            e.name, e.mean_ns, e.min_ns, e.ops_per_sec, comma
        ));
    }
    json.push_str("}\n");
    std::fs::write(&path, json).expect("write BENCH_kernel.json");
    eprintln!("(baseline written to {})", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_refuses_a_baseline_out_of_step_either_way() {
        let doc = parse_json(r#"{"kept": {"min_ns": 1.5}, "gone": {"min_ns": 2.0}}"#).unwrap();
        assert!(out_of_step(&["kept", "gone"], &doc).is_empty());
        let stale = out_of_step(&["kept", "added"], &doc);
        assert_eq!(stale.len(), 2, "{stale:?}");
        assert!(stale[0].starts_with("added ") && stale[0].contains("not in the committed"));
        assert!(stale[1].starts_with("gone ") && stale[1].contains("no longer measured"));
    }
}
