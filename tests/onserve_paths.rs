//! Characterisation test: every exit of onServe's two pipelines.
//!
//! §VII-A (store → generate → deploy → publish) and §VII-B (retrieve →
//! authenticate → select → stage → describe → submit → poll) each leave the
//! middleware at several points: on success, on a failure of each step,
//! through the retry extension and through the watchdog. Every scenario
//! below takes one of those exits in its own fresh `Sim` with telemetry on
//! and appends a section — outcomes with their instants, the middleware's
//! counters, the agent's live sessions, the appliance's cpu/disk/net
//! totals and the span summary — to a digest compared byte for byte with
//! `golden/onserve_paths.txt`.
//!
//! The golden was recorded before `onserve.rs` was rewritten as two linear
//! pipelines; a refactor of that file must leave it untouched. (One section
//! was recorded again after the rewrite: updates now open the
//! `onserve.upload` and `generator.build` spans uploads always had.) Two
//! things are left out on purpose, because fixing the leaked watchdog
//! changes them on the pre-grid failure exits: `sim.now()` after the drain
//! and the kernel's executed-events-by-label table.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

use blobstore::ParamSpec;
use cyberaide::agent::AgentConfig;
use gridsim::scheduler::ClusterScheduler;
use gridsim::BrokerPolicy;
use onserve::deployment::{synth_payload, Deployment, DeploymentSpec};
use onserve::profile::ExecutionProfile;
use onserve::OnServeConfig;
use simkit::{Duration, Sim, KB};
use wsstack::{SoapFault, SoapValue};

/// One scenario's world plus the lines it has logged so far.
struct World {
    sim: Sim,
    d: Deployment,
    log: Rc<RefCell<String>>,
}

impl World {
    fn new(seed: u64, config: OnServeConfig) -> World {
        World::with_agent(seed, config, AgentConfig::default())
    }

    fn with_agent(seed: u64, config: OnServeConfig, agent: AgentConfig) -> World {
        let mut sim = Sim::new(seed);
        sim.enable_telemetry();
        let spec = DeploymentSpec {
            config,
            agent,
            ..DeploymentSpec::default()
        };
        let d = Deployment::build(&mut sim, &spec);
        World {
            sim,
            d,
            log: Rc::new(RefCell::new(String::new())),
        }
    }

    /// Upload through the portal and drain; logs the outcome.
    fn upload(
        &mut self,
        file: &str,
        len: usize,
        profile: ExecutionProfile,
        params: &[(&str, &str)],
    ) {
        let req = self.d.upload_request(file, len, profile, params);
        self.upload_request(req);
    }

    fn upload_request(&mut self, req: onserve::portal::UploadRequest) {
        let log = Rc::clone(&self.log);
        let file = req.file_name.clone();
        self.d.portal.upload(&mut self.sim, req, move |sim, r| {
            let t = sim.now().as_secs_f64();
            let mut log = log.borrow_mut();
            match r {
                Ok(p) => writeln!(
                    log,
                    "upload {file} @{t:.3} -> ok {} {} {} wsdl_bytes={}",
                    p.service_name,
                    p.service_key,
                    p.endpoint,
                    p.wsdl_text.len()
                ),
                Err(e) => writeln!(log, "upload {file} @{t:.3} -> error {e}"),
            }
            .unwrap();
        });
        self.sim.run();
    }

    fn responder(&self, what: String) -> impl FnOnce(&mut Sim, Result<SoapValue, SoapFault>) {
        let log = Rc::clone(&self.log);
        move |sim, r| {
            let t = sim.now().as_secs_f64();
            let mut log = log.borrow_mut();
            match r {
                Ok(v) => writeln!(log, "{what} @{t:.3} -> ok {v:?}"),
                Err(f) => writeln!(log, "{what} @{t:.3} -> fault {} {}", f.code, f.message),
            }
            .unwrap();
        }
    }

    /// Invoke the way a consumer does (stub over the SOAP channel); does
    /// not drain, so a scenario can act while the invocation is in flight.
    fn start_invoke(&mut self, service: &str, args: &[(&str, SoapValue)]) {
        let done = self.responder(format!("invoke {service}"));
        self.d.invoke(&mut self.sim, service, args, done);
    }

    fn invoke(&mut self, service: &str, args: &[(&str, SoapValue)]) {
        self.start_invoke(service, args);
        self.sim.run();
    }

    /// Call the middleware directly, past the stub's and the container's
    /// own checks — the only way to reach its unknown-service and
    /// bad-argument exits.
    fn execute(&mut self, service: &str, args: &[(&str, SoapValue)]) {
        let args: BTreeMap<String, SoapValue> = args
            .iter()
            .map(|(n, v)| ((*n).to_owned(), v.clone()))
            .collect();
        let done = self.responder(format!("execute {service}"));
        self.d
            .onserve
            .execute_service(&mut self.sim, service, &args, Box::new(done));
        self.sim.run();
    }

    /// Kill every node of whichever site is running a job, `after` from now.
    fn fail_busy_site_in(&mut self, after: Duration) {
        let grid = Rc::clone(&self.d.grid);
        let log = Rc::clone(&self.log);
        self.sim.schedule(after, move |sim| {
            for site in grid.sites() {
                if site.scheduler().borrow().running_count() > 0 {
                    writeln!(log.borrow_mut(), "node failure at {}", site.name()).unwrap();
                    let sched = Rc::clone(site.scheduler());
                    for node in 0..site.spec().nodes {
                        ClusterScheduler::fail_node(&sched, sim, node);
                    }
                    break;
                }
            }
        });
    }

    /// Close the scenario: its section of the digest.
    fn section(self, name: &str) -> String {
        let World { sim, d, log } = self;
        let mut out = format!("==== {name}\n{}", log.borrow());
        let (invocations, failures) = d.onserve.counters();
        let (auths, hits, evictions) = d.onserve.session_counters();
        writeln!(
            out,
            "counters: invocations={invocations} failures={failures}"
        )
        .unwrap();
        writeln!(
            out,
            "sessions: auths={auths} hits={hits} evictions={evictions} live={}",
            d.agent.session_count()
        )
        .unwrap();
        writeln!(
            out,
            "state: db_rows={} registry={} polls_issued={}",
            d.onserve.db().db().borrow().len(),
            d.onserve.registry().borrow().len(),
            d.agent.polls_issued()
        )
        .unwrap();
        let recorder = sim.recorder_ref();
        let mut keys: Vec<&str> = recorder.keys_with_prefix("appliance.").collect();
        keys.sort_unstable();
        for key in keys {
            writeln!(out, "{key} {:.6}", recorder.total(key)).unwrap();
        }
        out.push_str(&sim.span_summary());
        out.push('\n');
        out
    }
}

fn quick() -> ExecutionProfile {
    ExecutionProfile::quick().producing(2.0 * KB)
}

fn typed_args() -> Vec<(&'static str, SoapValue)> {
    vec![
        ("n", SoapValue::Int(7)),
        ("label", SoapValue::Str("run-a".into())),
        ("eps", SoapValue::Double(0.25)),
    ]
}

const TYPED_PARAMS: [(&str, &str); 3] = [("n", "int"), ("label", "string"), ("eps", "double")];

// ---------------------------------------------------------------- §VII-B

fn invoke_success() -> String {
    let mut w = World::new(101, OnServeConfig::default());
    w.upload("hello.exe", 8 * 1024, quick(), &TYPED_PARAMS);
    w.invoke("hello", &typed_args());
    w.section("invoke: success with typed arguments")
}

fn invoke_unknown_service() -> String {
    let mut w = World::new(102, OnServeConfig::default());
    w.upload("hello.exe", 8 * 1024, quick(), &[]);
    w.invoke("ghost", &[]);
    w.execute("ghost", &[]);
    w.section("invoke: unknown service")
}

fn invoke_bad_arguments() -> String {
    let mut w = World::new(103, OnServeConfig::default());
    w.upload("hello.exe", 8 * 1024, quick(), &TYPED_PARAMS);
    w.invoke("hello", &[("n", SoapValue::Str("seven".into()))]);
    w.execute("hello", &[("n", SoapValue::Str("seven".into()))]);
    w.execute("hello", &[("n", SoapValue::Int(7))]);
    w.section("invoke: bad arguments")
}

fn invoke_corrupt_blob() -> String {
    let mut w = World::new(104, OnServeConfig::default());
    w.upload("hello.exe", 8 * 1024, quick(), &[]);
    w.d.onserve
        .db()
        .db()
        .borrow_mut()
        .corrupt_blob("hello.exe")
        .expect("row present");
    w.invoke("hello", &[]);
    w.section("invoke: corrupt blob fails the retrieval")
}

fn invoke_wrong_passphrase() -> String {
    let mut w = World::new(105, OnServeConfig::default());
    let mut req = w.d.upload_request("hello.exe", 8 * 1024, quick(), &[]);
    req.grid_passphrase = "wrong".into();
    w.upload_request(req);
    w.invoke("hello", &[]);
    w.section("invoke: wrong MyProxy passphrase fails the authentication")
}

fn invoke_gatekeepers_down() -> String {
    let mut w = World::new(106, OnServeConfig::default());
    w.upload("hello.exe", 8 * 1024, quick(), &[]);
    for site in w.d.grid.sites() {
        site.gatekeeper().borrow_mut().set_accepting(false);
    }
    w.invoke("hello", &[]);
    w.section("invoke: every gatekeeper down")
}

fn invoke_storage_full_then_retry() -> String {
    let mut w = World::new(
        107,
        OnServeConfig {
            job_retries: 1,
            ..OnServeConfig::default()
        },
    );
    w.upload("hello.exe", 8 * 1024, quick(), &[]);
    // fill the scratch space of the site the broker picks first
    let first =
        w.d.grid
            .select(&BrokerPolicy::MostFreeCores, 1, w.sim.now())
            .expect("a site");
    let room = first.storage().borrow().capacity();
    first
        .storage()
        .borrow_mut()
        .put("filler", room)
        .expect("filler fits exactly");
    writeln!(w.log.borrow_mut(), "storage filled at {}", first.name()).unwrap();
    w.invoke("hello", &[]);
    w.section("invoke: StorageFull on staging, one retry")
}

fn invoke_node_failure(retries: u32) -> String {
    let mut w = World::new(
        108,
        OnServeConfig {
            job_retries: retries,
            ..OnServeConfig::default()
        },
    );
    w.upload(
        "long.exe",
        16 * 1024,
        quick().lasting(Duration::from_secs(600)),
        &[],
    );
    w.start_invoke("long", &[]);
    w.fail_busy_site_in(Duration::from_secs(120));
    w.sim.run();
    w.section(&format!(
        "invoke: NodeFailure mid-job, job_retries={retries}"
    ))
}

fn invoke_poll_timeout() -> String {
    let mut w = World::new(
        109,
        OnServeConfig {
            poll_timeout: Duration::from_secs(60),
            ..OnServeConfig::default()
        },
    );
    w.upload(
        "slow.exe",
        8 * 1024,
        ExecutionProfile::quick()
            .lasting(Duration::from_secs(300))
            .producing(0.0),
        &[],
    );
    w.invoke("slow", &[]);
    w.section("invoke: poll timeout")
}

fn invoke_watchdog_timeout() -> String {
    let mut w = World::new(
        110,
        OnServeConfig {
            invocation_timeout: Duration::from_secs(120),
            ..OnServeConfig::default()
        },
    );
    w.upload(
        "runaway.exe",
        8 * 1024,
        quick().lasting(Duration::from_secs(300)),
        &[],
    );
    w.invoke("runaway", &[]);
    w.section("invoke: watchdog answers, the job finishes later")
}

fn invoke_session_cache_hit() -> String {
    let mut w = World::new(
        111,
        OnServeConfig {
            cache_grid_sessions: true,
            ..OnServeConfig::default()
        },
    );
    w.upload("hello.exe", 8 * 1024, quick(), &[]);
    w.invoke("hello", &[]);
    w.invoke("hello", &[]);
    w.section("invoke: cached grid session reused")
}

fn invoke_session_stale_eviction() -> String {
    let mut w = World::with_agent(
        112,
        OnServeConfig {
            cache_grid_sessions: true,
            ..OnServeConfig::default()
        },
        AgentConfig {
            // the cache demands 600 s of remaining life: always stale
            proxy_lifetime: Duration::from_secs(300),
            ..AgentConfig::default()
        },
    );
    w.upload("hello.exe", 8 * 1024, quick(), &[]);
    w.invoke("hello", &[]);
    w.invoke("hello", &[]);
    w.section("invoke: stale cached session evicted and logged out")
}

fn invoke_staged_file_reused() -> String {
    let mut w = World::new(
        113,
        OnServeConfig {
            reuse_staged_files: true,
            broker: BrokerPolicy::Fixed("sdsc".into()),
            ..OnServeConfig::default()
        },
    );
    w.upload("hello.exe", 64 * 1024, quick(), &[]);
    w.invoke("hello", &[]);
    w.invoke("hello", &[]);
    w.section("invoke: staged file reused")
}

// ---------------------------------------------------------------- §VII-A

fn upload_success() -> String {
    let mut w = World::new(201, OnServeConfig::default());
    w.upload("blast.exe", 64 * 1024, quick(), &TYPED_PARAMS);
    w.section("upload: success")
}

fn upload_duplicate() -> String {
    let mut w = World::new(202, OnServeConfig::default());
    w.upload("blast.exe", 8 * 1024, quick(), &[]);
    w.upload("blast.exe", 8 * 1024, quick(), &[]);
    w.section("upload: duplicate name")
}

fn upload_bad_parameter_declaration() -> String {
    let mut w = World::new(203, OnServeConfig::default());
    w.upload("blast.exe", 8 * 1024, quick(), &[("q", "quaternion")]);
    w.section("upload: bad parameter declaration")
}

fn upload_registry_rejection() -> String {
    let mut w = World::new(204, OnServeConfig::default());
    w.d.onserve
        .registry()
        .borrow_mut()
        .publish(
            "Somebody Else",
            "blast",
            "taken",
            wsstack::uddi::BindingTemplate {
                access_point: "http://elsewhere/services/blast".into(),
                wsdl_location: "http://elsewhere/services/blast?wsdl".into(),
            },
        )
        .expect("pre-publish");
    w.upload("blast.exe", 8 * 1024, quick(), &[]);
    let deployed = w.d.onserve.client_for("blast").is_ok();
    writeln!(w.log.borrow_mut(), "still deployed: {deployed}").unwrap();
    w.section("upload: registry rejects the name")
}

fn update_with_new_signature() -> String {
    let mut w = World::new(
        205,
        OnServeConfig {
            reuse_staged_files: true,
            broker: BrokerPolicy::Fixed("sdsc".into()),
            ..OnServeConfig::default()
        },
    );
    w.upload("tool.exe", 64 * 1024, quick(), &[("n", "int")]);
    w.invoke("tool", &[("n", SoapValue::Int(1))]);
    let log = Rc::clone(&w.log);
    w.d.onserve.clone().update_executable(
        &mut w.sim,
        "tool",
        synth_payload(96 * 1024, 99),
        Some(vec![
            ParamSpec::new("n", "int"),
            ParamSpec::new("mode", "string"),
        ]),
        Some("version 2".into()),
        Some(ExecutionProfile::quick().producing(5.0 * KB)),
        move |sim, r| {
            writeln!(
                log.borrow_mut(),
                "update tool @{:.3} -> {r:?}",
                sim.now().as_secs_f64()
            )
            .unwrap();
        },
    );
    w.sim.run();
    let description = w.d.onserve.registry().borrow_mut().find("tool")[0]
        .description
        .clone();
    let wsdl_bytes =
        w.d.onserve
            .container()
            .borrow()
            .wsdl_for("tool")
            .map(|w| w.to_text().len());
    writeln!(
        w.log.borrow_mut(),
        "registry says {description:?}, wsdl_bytes={wsdl_bytes:?}"
    )
    .unwrap();
    w.invoke(
        "tool",
        &[
            ("n", SoapValue::Int(1)),
            ("mode", SoapValue::Str("x".into())),
        ],
    );
    w.section("update: new binary, parameters, description and profile")
}

fn update_unknown_service() -> String {
    let mut w = World::new(206, OnServeConfig::default());
    w.upload("tool.exe", 8 * 1024, quick(), &[]);
    let log = Rc::clone(&w.log);
    w.d.onserve.clone().update_executable(
        &mut w.sim,
        "ghost",
        synth_payload(1024, 1),
        None,
        None,
        None,
        move |sim, r| {
            writeln!(
                log.borrow_mut(),
                "update ghost @{:.3} -> {r:?}",
                sim.now().as_secs_f64()
            )
            .unwrap();
        },
    );
    w.sim.run();
    w.section("update: unknown service")
}

fn run_all() -> String {
    [
        invoke_success(),
        invoke_unknown_service(),
        invoke_bad_arguments(),
        invoke_corrupt_blob(),
        invoke_wrong_passphrase(),
        invoke_gatekeepers_down(),
        invoke_storage_full_then_retry(),
        invoke_node_failure(0),
        invoke_node_failure(1),
        invoke_poll_timeout(),
        invoke_watchdog_timeout(),
        invoke_session_cache_hit(),
        invoke_session_stale_eviction(),
        invoke_staged_file_reused(),
        upload_success(),
        upload_duplicate(),
        upload_bad_parameter_declaration(),
        upload_registry_rejection(),
        update_with_new_signature(),
        update_unknown_service(),
    ]
    .concat()
}

/// Section titles whose text differs between two digests.
fn differing_sections(expected: &str, actual: &str) -> Vec<String> {
    let sections = |text: &str| -> BTreeMap<String, String> {
        text.split("==== ")
            .skip(1)
            .map(|s| {
                let (title, body) = s.split_once('\n').unwrap_or((s, ""));
                (title.to_owned(), body.to_owned())
            })
            .collect()
    };
    let (expected, actual) = (sections(expected), sections(actual));
    let mut titles: Vec<String> = expected
        .iter()
        .filter(|(title, body)| actual.get(*title) != Some(body))
        .map(|(title, _)| title.clone())
        .collect();
    titles.extend(
        actual
            .keys()
            .filter(|t| !expected.contains_key(*t))
            .cloned(),
    );
    titles
}

#[test]
fn every_exit_of_both_pipelines_matches_golden() {
    let digest = run_all();
    assert_eq!(digest, run_all(), "same seeds, same bytes");
    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/onserve_paths.txt");
    let expected = std::fs::read_to_string(&golden).unwrap_or_default();
    if digest != expected {
        let actual = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("onserve_paths.txt");
        std::fs::write(&actual, &digest).expect("write actual digest");
        panic!(
            "digest differs from {} in sections {:?}; actual written to {}",
            golden.display(),
            differing_sections(&expected, &digest),
            actual.display()
        );
    }
}
