//! `onserve-benchmark` — the layered host-time benchmark.
//!
//! Three ways to run (see `README.md`):
//!
//! * **full set** (no `--trace`): every selected workload runs twice in a
//!   fresh child process — untraced repetitions for the end-to-end
//!   metrics, then probes plus one traced repetition for the per-layer
//!   metrics — and the parent prints every metric and writes
//!   `<out>/results.json`.
//! * **one run** (`--workload W --trace 0|1`): what the children and the
//!   PR driver execute; the last line of stdout is the result object.
//! * **`--compare A B`**: check that two `results.json` sets agree.

mod json;
mod metrics;
mod probes;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration as Wall, Instant};

use simkit::telemetry::{parse_json, Json};

use json::{num, obj, string};
use metrics::{MetricDef, END_TO_END, PER_LAYER};
use stats::{highest_percentile, median, quartiles};
use trace::Tracer;
use workloads::{Rep, Workload, DEFAULT_SEED};

/// The root manifest's `[profile.release]`, which `Cargo.toml` here copies.
const PROFILE: &str = "release (opt-level 3, debug = line-tables-only)";

/// `--compare` holds `setup_s` to its bound only above this many seconds.
const SETUP_FLOOR_S: f64 = 0.010;

/// Set-up-only builds timed after each repetition, for `setup_s`.
const SETUPS_PER_REP: usize = 10;

struct Args {
    workload: Option<String>,
    seed: u64,
    reps: usize,
    seconds: Option<f64>,
    trace: Option<bool>,
    out: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: onserve-benchmark [--workload NAME] [--seed N] [--reps R | --seconds S] \
         [--trace 0|1] [--out DIR]\n       onserve-benchmark --compare A.json B.json\n       \
         onserve-benchmark --manifest | --digest NAME"
    );
    std::process::exit(2);
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        reps: 5,
        seconds: None,
        trace: None,
        // run.sh points this next to itself
        out: std::env::var_os("ONSERVE_BENCHMARK_OUT")
            .map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().map(String::as_str).unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = Some(value().to_owned()),
            "--seed" => args.seed = parse_seed(value()).unwrap_or_else(|| usage()),
            "--reps" => {
                args.reps = value()
                    .parse()
                    .ok()
                    .filter(|&r| r > 0)
                    .unwrap_or_else(|| usage())
            }
            "--seconds" => {
                args.seconds = Some(
                    value()
                        .parse()
                        .ok()
                        .filter(|&s| s > 0.0)
                        .unwrap_or_else(|| usage()),
                )
            }
            "--trace" => {
                args.trace = Some(match value() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                })
            }
            "--out" => args.out = PathBuf::from(value()),
            _ => usage(),
        }
    }
    args
}

fn workload_named(name: &str) -> &'static Workload {
    workloads::ALL
        .iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| {
            eprintln!("unknown workload {name:?}");
            usage()
        })
}

/// The committed digest of a workload's simulated statistics at
/// [`DEFAULT_SEED`].
fn expected_digest(name: &str) -> &'static str {
    match name {
        "fleet_day" => include_str!("../expected/fleet_day.txt"),
        "door_planes" => include_str!("../expected/door_planes.txt"),
        "appliance_paper" => include_str!("../expected/appliance_paper.txt"),
        "publish_storm" => include_str!("../expected/publish_storm.txt"),
        _ => unreachable!("workload_named checked {name}"),
    }
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

/// One metric's value and how it was sampled.
struct Measured {
    /// The median of the samples.
    value: f64,
    min: f64,
    max: f64,
    /// First and third quartile (the value itself for a single sample).
    quartiles: (f64, f64),
    n: usize,
}

impl Measured {
    fn of(samples: &[f64]) -> Measured {
        let value = median(samples);
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        // the exclusive method extrapolates past the sample when it is tiny
        let (q1, q3) = if samples.len() < 2 {
            (value, value)
        } else {
            quartiles(samples)
        };
        Measured {
            value,
            min,
            max,
            quartiles: (q1.max(min), q3.min(max)),
            n: samples.len(),
        }
    }

    fn single(value: f64) -> Measured {
        Measured::of(&[value])
    }
}

/// What one run found, before printing.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static MetricDef, Measured)>,
    digest: String,
}

/// Correctness of a run's simulated statistics: every repetition agrees
/// (same seed, same bytes), nothing failed, and at the default seed the
/// digest is the committed one. Conservation is asserted inside the
/// workloads.
fn check(w: &Workload, seed: u64, reps: &[Rep]) -> bool {
    let first = &reps[0].stats;
    let mut correct = true;
    if let Some(other) = reps.iter().find(|r| r.stats != *first) {
        eprintln!(
            "INCORRECT {}: repetitions disagree:\n{}--- vs ---\n{}",
            w.name,
            first.digest(),
            other.stats.digest()
        );
        correct = false;
    }
    if first.failed() != 0 {
        eprintln!(
            "INCORRECT {}: {} of {} requests failed",
            w.name,
            first.failed(),
            first.issued
        );
        correct = false;
    }
    if seed == DEFAULT_SEED && first.digest() != expected_digest(w.name) {
        eprintln!(
            "INCORRECT {}: digest differs from expected/{}.txt:\n{}--- expected ---\n{}",
            w.name,
            w.name,
            first.digest(),
            expected_digest(w.name)
        );
        correct = false;
    }
    correct
}

/// Host seconds of the measured window of a finished repetition.
fn window_secs(tr: &Tracer) -> f64 {
    tr.phase_secs("drain") + tr.phase_secs("discovery")
}

/// Untraced repetitions: the end-to-end metrics.
fn run_end_to_end(w: &Workload, args: &Args) -> RunResult {
    let started = Instant::now();
    let mut reps = Vec::new();
    let (mut rate, mut setup_s) = (Vec::new(), Vec::new());
    let mut rss_mb = None;
    loop {
        let mut tr = Tracer::new(false);
        let rep = (w.run)(args.seed, &mut tr, false).expect("a full repetition");
        rate.push(rep.stats.completed as f64 / window_secs(&tr));
        reps.push(rep);
        // one repetition's footprint: later ones only add what the
        // allocator happens to keep, which depends on how many there are
        rss_mb.get_or_insert_with(peak_rss_mb);
        // Set-up is milliseconds at most, so a handful of samples taken
        // at one moment all see the same neighbours. Sample it in bursts
        // spread over the run: after each repetition, build the world a
        // few more times. The first build of a burst finds the caches the
        // repetition left; the median is a warm build.
        for _ in 0..SETUPS_PER_REP {
            let mut tr = Tracer::new(false);
            let none = (w.run)(args.seed, &mut tr, true);
            assert!(none.is_none(), "set-up only");
            setup_s.push(tr.phase_secs("setup") + tr.phase_secs("publish"));
        }
        let done = match args.seconds {
            Some(s) => started.elapsed().as_secs_f64() >= s,
            None => reps.len() >= args.reps,
        };
        if done {
            break;
        }
    }
    let stats = &reps[0].stats;
    let values = [
        Measured::of(&rate),
        Measured::of(&setup_s),
        Measured::single(rss_mb.expect("at least one repetition")),
        Measured::single(stats.completed as f64 / stats.issued as f64),
    ];
    RunResult {
        correct: check(w, args.seed, &reps),
        attempted: stats.issued,
        failed: stats.failed(),
        metrics: END_TO_END.iter().zip(values).collect(),
        digest: stats.digest(),
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Probes, one untraced and one traced repetition: the per-layer metrics.
fn run_per_layer(w: &Workload, args: &Args) -> RunResult {
    // a time-boxed run gives half its budget to the probes
    let batch = probes::batch_for(
        args.seconds
            .map_or(Wall::MAX, |s| Wall::from_secs_f64(s / 2.0)),
    );
    let mut v: BTreeMap<&'static str, f64> = probes::run_all(batch).into_iter().collect();

    let (mut plain_tr, mut tr) = (Tracer::new(false), Tracer::new(true));
    let reps =
        [&mut plain_tr, &mut tr].map(|t| (w.run)(args.seed, t, false).expect("a full repetition"));
    let [plain, traced] = &reps;
    let wall_ns = window_secs(&plain_tr) * 1e9;
    let c = |key: &str| traced.counts.get(key).copied().unwrap_or(0.0);
    let s = &traced.stats;
    let requests = s.issued as f64;

    v.insert("simkit.events_per_req", traced.events as f64 / requests);
    v.insert("simkit.host_ns_per_event", wall_ns / plain.events as f64);
    v.insert("simkit.step_ns_p50", tr.steps.quantile(0.5));
    v.insert("simkit.step_ns_p99", tr.steps.quantile(0.99));
    v.insert("simkit.step_ns_p999", tr.steps.quantile(0.999));
    v.insert(
        "simkit.heavy_step_share",
        ratio(tr.heavy_ns as f64, tr.steps.sum() as f64),
    );
    v.insert("simkit.queue_high_water", traced.queue_high_water as f64);
    for key in [
        "wsstack.soap_dispatch_count",
        "wsstack.uddi_publish_count",
        "blobstore.load_count",
        "blobstore.store_count",
        "blobstore.load_bytes",
        "gridsim.gram_job_count",
        "cyberaide.authenticate_count",
        "cyberaide.stage_count",
        "cyberaide.poll_count",
        "onserve.invoke_count",
    ] {
        v.insert(key, c(key));
    }
    v.insert(
        "cyberaide.polls_per_job",
        ratio(c("cyberaide.poll_count"), c("gridsim.gram_job_count")),
    );
    let session_hits = c("onserve.session_hits");
    v.insert(
        "onserve.session_hit_ratio",
        ratio(
            session_hits,
            session_hits + c("cyberaide.authenticate_count"),
        ),
    );
    let submits = tr.submits.borrow().clone();
    v.insert("fleet.submit_call_ns_p50", submits.quantile(0.5));
    v.insert("fleet.submit_call_ns_p99", submits.quantile(0.99));
    v.insert(
        "fleet.affinity_hit_ratio",
        ratio(
            s.affinity_hits as f64,
            (s.affinity_hits + s.affinity_misses) as f64,
        ),
    );
    v.insert("fleet.shed_share", s.shed as f64 / requests);
    v.insert("fleet.qos_queued_share", c("fleet.qos_enqueued") / requests);
    v.insert("fleet.retry_per_req", c("fleet.retried") / requests);
    // a percentile is quoted only with ten samples beyond it
    let tail = highest_percentile(s.samples as usize);
    assert!(
        tail >= Some(99.0),
        "{} latency samples cannot carry a p99",
        s.samples
    );
    v.insert("sim.p50_s", s.p50_s);
    v.insert("sim.p99_s", s.p99_s);
    println!(
        "traced repetition: {} steps, {} front-door submits, {} latency samples (percentiles up to p{} admissible)",
        tr.steps.count(),
        submits.count(),
        s.samples,
        tail.unwrap_or(0.0)
    );

    // the ledger: what each layer's probes say the traced counts cost
    let load_us = if ratio(c("blobstore.load_bytes"), c("blobstore.load_count")) >= 32.0 * 1024.0 {
        v["blobstore.db_load_us.64k"]
    } else {
        v["blobstore.db_load_us.1k"]
    };
    let blobstore_ns = 1e3
        * (c("blobstore.load_count") * load_us
            + c("blobstore.store_count") * v["blobstore.db_insert_us.64k"]);
    // the stack serializes each envelope twice (transport size, dispatch
    // cost) and never parses one; discovery is find + WSDL write + import
    let wsstack_ns = c("wsstack.soap_dispatch_count") * 2.0 * v["wsstack.soap_encode_ns"]
        + c("wsstack.uddi_publish_count") * v["wsstack.uddi_publish_ns"]
        + c("bench.discovered")
            * (v["wsstack.uddi_find_ns"]
                + v["wsstack.wsdl_write_ns"]
                + v["wsstack.client_stub_ns"]);
    let door_ns = match w.name {
        "fleet_day" => v["fleet.submit_ns.affinity"],
        "door_planes" => v["fleet.submit_ns.all"],
        _ => v["fleet.submit_ns.bare"],
    };
    let fleet_ns = c("fleet.dispatch_count") * door_ns;
    let simkit_ns = plain.events as f64 * v["simkit.event_ns"];
    let shares = [blobstore_ns, wsstack_ns, fleet_ns, simkit_ns].map(|ns| ns / wall_ns);
    v.insert("est_share.blobstore", shares[0]);
    v.insert("est_share.wsstack", shares[1]);
    v.insert("est_share.fleet", shares[2]);
    v.insert("est_share.simkit", shares[3]);
    v.insert(
        "est_share.rest",
        (1.0 - shares.iter().sum::<f64>()).max(0.0),
    );
    v.insert(
        "bench.trace_overhead_share",
        (window_secs(&tr) - window_secs(&plain_tr)) / window_secs(&plain_tr),
    );

    std::fs::create_dir_all(&args.out).expect("create the out directory");
    let trace_path = args.out.join(format!("trace-{}.json", w.name));
    std::fs::write(&trace_path, json::write(&tr.chrome_trace(w.name)) + "\n")
        .expect("write the trace");
    println!("trace written to {}", trace_path.display());

    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            let value = v
                .remove(m.name)
                .unwrap_or_else(|| panic!("{} was never measured", m.name));
            (m, Measured::single(value))
        })
        .collect();
    assert!(
        v.is_empty(),
        "measured but not in the table: {:?}",
        v.keys()
    );
    RunResult {
        // telemetry and stepping must not change what the simulation does
        correct: check(w, args.seed, &reps),
        attempted: s.issued,
        failed: s.failed(),
        metrics,
        digest: s.digest(),
    }
}

fn print_header(args: &Args) {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let length = match args.seconds {
        Some(s) => format!("{s} s of repetitions"),
        None => format!("{} repetitions", args.reps),
    };
    println!(
        "onserve-benchmark: seed {:#x}, {length}, available_parallelism {cores} (single-threaded), profile {PROFILE}",
        args.seed
    );
}

/// One run in this process; the result object is the last line printed.
fn run_one(args: &Args, traced: bool) -> ExitCode {
    let Some(name) = &args.workload else { usage() };
    let w = workload_named(name);
    print_header(args);
    println!("workload {}: {}", w.name, w.why);
    let result = if traced {
        run_per_layer(w, args)
    } else {
        run_end_to_end(w, args)
    };
    for (m, x) in &result.metrics {
        let spread = match x.n {
            1 => String::new(),
            n => format!(
                "  (min {:.6}, q1 {:.6}, q3 {:.6}, max {:.6}, n {n})",
                x.min, x.quartiles.0, x.quartiles.1, x.max
            ),
        };
        println!("  {:<34} {:>18.6} {:<6}{spread}", m.name, x.value, m.unit);
    }
    let spread = |x: &Measured| {
        obj(vec![
            ("min", num(x.min)),
            ("q1", num(x.quartiles.0)),
            ("q3", num(x.quartiles.1)),
            ("max", num(x.max)),
            ("n", num(x.n as f64)),
        ])
    };
    let detail = obj(vec![
        ("digest", string(&result.digest)),
        (
            "spread",
            Json::Obj(
                result
                    .metrics
                    .iter()
                    .filter(|(_, x)| x.n > 1)
                    .map(|(m, x)| (m.name.to_owned(), spread(x)))
                    .collect(),
            ),
        ),
    ]);
    println!("detail {}", json::write(&detail));
    let metrics = result
        .metrics
        .iter()
        .map(|(m, x)| {
            (
                m.name.to_owned(),
                obj(vec![("value", num(x.value)), ("unit", string(m.unit))]),
            )
        })
        .collect();
    println!(
        "{}",
        json::write(&obj(vec![
            ("correct", Json::Bool(result.correct)),
            ("attempted", num(result.attempted as f64)),
            ("failed", num(result.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ]))
    );
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run one workload in a fresh child process, relay the metric lines it
/// printed, and parse its result and detail objects.
fn run_child(args: &Args, w: &Workload, traced: bool) -> Option<(Json, Json)> {
    let exe = std::env::current_exe().expect("own path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name, "--seed", &args.seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out);
    match args.seconds {
        Some(s) => cmd.args(["--seconds", &s.to_string()]),
        None => cmd.args(["--reps", &args.reps.to_string()]),
    };
    let output = cmd
        .stderr(Stdio::inherit())
        .output()
        .expect("spawn a child run");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let result = lines.pop().and_then(|l| parse_json(l).ok());
    let detail = lines
        .pop()
        .and_then(|l| l.strip_prefix("detail "))
        .and_then(|l| parse_json(l).ok());
    // the child's own header repeats the parent's
    for line in lines.iter().skip(2) {
        println!("{line}");
    }
    match (result, detail) {
        (Some(r), Some(d)) if output.status.success() => Some((r, d)),
        _ => {
            println!(
                "{} (trace {}) failed: {}",
                w.name,
                u8::from(traced),
                output.status
            );
            None
        }
    }
}

/// The full set: every selected workload, both kinds of run, each in its
/// own process; prints every metric and writes `results.json`.
fn run_set(args: &Args) -> ExitCode {
    print_header(args);
    let selected: Vec<&Workload> = match &args.workload {
        Some(name) => vec![workload_named(name)],
        None => workloads::ALL.iter().collect(),
    };
    let mut ok = true;
    let mut doc = Vec::new();
    for w in selected {
        println!("\n== {} — {}", w.name, w.why);
        let mut entry = Vec::new();
        for (kind, detail_kind, traced) in [
            ("end_to_end", "end_to_end_detail", false),
            ("per_layer", "per_layer_detail", true),
        ] {
            match run_child(args, w, traced) {
                Some((result, detail)) => {
                    entry.push((kind, result));
                    entry.push((detail_kind, detail));
                }
                None => ok = false,
            }
        }
        doc.push((w.name, obj(entry)));
    }
    let results = obj(vec![
        ("seed", num(args.seed as f64)),
        ("profile", string(PROFILE)),
        (
            "available_parallelism",
            num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("workloads", obj(doc)),
    ]);
    std::fs::create_dir_all(&args.out).expect("create the out directory");
    let path = args.out.join("results.json");
    std::fs::write(&path, json::write(&results) + "\n").expect("write results.json");
    println!("\nresults written to {}", path.display());
    if ok {
        println!("all outputs correct");
        ExitCode::SUCCESS
    } else {
        println!("FAILED: see above");
        ExitCode::FAILURE
    }
}

/// Compare two `results.json` sets: end-to-end metrics within their
/// bounds in either direction, exact metrics and digests identical.
fn compare(a_path: &Path, b_path: &Path) -> ExitCode {
    let load = |p: &Path| {
        let text = std::fs::read_to_string(p).unwrap_or_else(|e| panic!("{}: {e}", p.display()));
        parse_json(&text).unwrap_or_else(|e| panic!("{}: {e}", p.display()))
    };
    let (a, b) = (load(a_path), load(b_path));
    let mut disagreements = 0;
    for w in &workloads::ALL {
        println!("\n== {}", w.name);
        let side = |doc: &Json, kind: &str, name: &str| {
            doc.get("workloads")?
                .get(w.name)?
                .get(kind)?
                .get("metrics")?
                .get(name)?
                .get("value")?
                .as_num()
        };
        for (kind, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            for m in table {
                let (Some(x), Some(y)) = (side(&a, kind, m.name), side(&b, kind, m.name)) else {
                    println!("  {:<34} missing from one set", m.name);
                    disagreements += 1;
                    continue;
                };
                let r = ratio(y, x);
                // set-up under 10 ms is allocator and cache state, not
                // work: there the bound applies only past that floor
                let tiny_setup = m.name == "setup_s" && x.max(y) < SETUP_FLOOR_S;
                let (verdict, agrees) = match (m.exact, m.bound) {
                    (true, _) if x == y => ("exact", true),
                    (true, _) => ("DIFFERS (must be identical)", false),
                    (false, Some(_)) if tiny_setup => ("under the 10 ms floor", true),
                    (false, Some(b)) if r > 1.0 + b || r < 1.0 / (1.0 + b) => {
                        ("OUT OF BOUND", false)
                    }
                    (false, Some(_)) => ("within bound", true),
                    (false, None) => ("", true),
                };
                if !agrees {
                    disagreements += 1;
                }
                println!("  {:<34} {x:>18.6} {y:>18.6}  x{r:.3} {verdict}", m.name);
            }
        }
        let digest = |doc: &Json| {
            doc.get("workloads")?
                .get(w.name)?
                .get("end_to_end_detail")?
                .get("digest")
                .cloned()
        };
        if digest(&a).is_none() || digest(&a) != digest(&b) {
            println!("  digest DIFFERS");
            disagreements += 1;
        }
    }
    if disagreements == 0 {
        println!("\nthe two sets agree");
        ExitCode::SUCCESS
    } else {
        println!("\n{disagreements} disagreement(s)");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--compare") if argv.len() == 3 => compare(Path::new(&argv[1]), Path::new(&argv[2])),
        Some("--manifest") if argv.len() == 1 => {
            print!("{}", metrics::manifest_text());
            ExitCode::SUCCESS
        }
        // maintainers: the digest to commit under expected/ after a
        // deliberate change to a workload
        Some("--digest") if argv.len() == 2 => {
            let w = workload_named(&argv[1]);
            let rep = (w.run)(DEFAULT_SEED, &mut Tracer::new(false), false).expect("repetition");
            print!("{}", rep.stats.digest());
            ExitCode::SUCCESS
        }
        _ => {
            let args = parse_args(&argv);
            match args.trace {
                Some(traced) => run_one(&args, traced),
                None => run_set(&args),
            }
        }
    }
}
