//! End-to-end integration: the two usage scenarios of §VII, driven through
//! the public API exactly as the examples do — portal upload → service
//! generation → UDDI publication → discovery → stub invocation → Grid
//! execution → output back as the SOAP response.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use onserve::deployment::{Deployment, DeploymentSpec};
use onserve::profile::ExecutionProfile;
use onserve::{OnServeConfig, PublishedService};
use simkit::{Duration, Sim, SimTime, KB};
use wsstack::{ClientStub, SoapValue};

fn upload_and_publish(
    sim: &mut Sim,
    d: &Deployment,
    name: &str,
    len: usize,
    profile: ExecutionProfile,
    params: &[(&str, &str)],
) -> PublishedService {
    let req = d.upload_request(name, len, profile, params);
    let out: Rc<RefCell<Option<PublishedService>>> = Rc::new(RefCell::new(None));
    let o2 = out.clone();
    d.portal.upload(sim, req, move |_, r| {
        *o2.borrow_mut() = Some(r.expect("publish"));
    });
    sim.run();
    let svc = out.borrow_mut().take().expect("published");
    svc
}

#[test]
fn scenario_a_upload_generates_and_publishes() {
    let mut sim = Sim::new(1);
    let d = Deployment::build(&mut sim, &DeploymentSpec::default());
    let svc = upload_and_publish(
        &mut sim,
        &d,
        "blast.exe",
        256 * 1024,
        ExecutionProfile::quick(),
        &[("sequence", "string"), ("evalue", "double")],
    );
    assert_eq!(svc.service_name, "blast");
    assert!(svc.endpoint.contains("/services/blast"));
    // WSDL parses into a usable stub with the declared signature
    let stub = ClientStub::from_wsdl_text(&svc.wsdl_text).expect("wsimport");
    assert_eq!(stub.operations().collect::<Vec<_>>(), vec!["execute"]);
    // published in the registry with a resolvable binding
    let mut reg = d.onserve.registry().borrow_mut();
    let hits = reg.find("blast");
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].bindings[0].access_point, svc.endpoint);
    drop(reg);
    // executable stored in the database (compressed)
    let db = d.onserve.db().db().borrow();
    let rec = db.record("blast.exe").expect("stored");
    assert_eq!(rec.original_len, 256 * 1024);
    assert!(rec.stored_len < rec.original_len);
}

#[test]
fn scenario_b_invocation_executes_on_grid_and_returns_output() {
    let mut sim = Sim::new(2);
    let d = Deployment::build(&mut sim, &DeploymentSpec::default());
    let profile = ExecutionProfile::quick().producing(48.0 * KB);
    upload_and_publish(&mut sim, &d, "hello.exe", 8 * 1024, profile, &[("n", "int")]);
    let got: Rc<RefCell<Option<Result<SoapValue, wsstack::SoapFault>>>> =
        Rc::new(RefCell::new(None));
    let g = got.clone();
    d.invoke(&mut sim, "hello", &[("n", SoapValue::Int(7))], move |_, r| {
        *g.borrow_mut() = Some(r);
    });
    sim.run();
    let result = got.borrow_mut().take().expect("responded").expect("ok");
    match result {
        SoapValue::Binary { bytes, .. } => {
            assert!((bytes - 48.0 * KB).abs() < 1.0, "output bytes {bytes}")
        }
        other => panic!("expected binary output, got {other:?}"),
    }
    let (inv, failures) = d.onserve.counters();
    assert_eq!((inv, failures), (1, 0));
    // the job really ran on a grid site
    let total_grid_cores: f64 = d
        .grid
        .sites()
        .iter()
        .map(|s| {
            sim.recorder_ref()
                .total(&format!("{}.core_seconds", s.name()))
        })
        .sum();
    assert!(total_grid_cores >= 29.0, "core-seconds {total_grid_cores}");
    // credential traffic, staging traffic and polling spools all visible
    let r = sim.recorder_ref();
    assert!(r.total("appliance.net.out.bytes") > 8.0 * 1024.0);
    assert!(r.total("appliance.net.in.bytes") > 48.0 * KB);
    assert!(r.total("appliance.disk.write.bytes") > 48.0 * KB);
}

#[test]
fn second_invocation_restages_by_default_paper_behaviour() {
    let mut sim = Sim::new(3);
    let d = Deployment::build(&mut sim, &DeploymentSpec::default());
    let exe_len = 1024 * 1024;
    upload_and_publish(
        &mut sim,
        &d,
        "tool.exe",
        exe_len,
        ExecutionProfile::quick().producing(1.0 * KB),
        &[],
    );
    let run_once = |sim: &mut Sim, d: &Deployment| {
        let ok = Rc::new(Cell::new(false));
        let o = ok.clone();
        d.invoke(sim, "tool", &[], move |_, r| {
            r.expect("invoke");
            o.set(true);
        });
        sim.run();
        assert!(ok.get());
    };
    run_once(&mut sim, &d);
    let staged_once = sim.recorder_ref().total("appliance.net.out.bytes");
    run_once(&mut sim, &d);
    let staged_twice = sim.recorder_ref().total("appliance.net.out.bytes");
    // "Large files ... will even be reloaded when executed a 2nd time":
    // the second run ships the megabyte again
    assert!(
        staged_twice - staged_once >= exe_len as f64,
        "second run only sent {} extra bytes",
        staged_twice - staged_once
    );
}

#[test]
fn reuse_staged_ablation_skips_second_upload() {
    let mut sim = Sim::new(4);
    let spec = DeploymentSpec {
        config: OnServeConfig {
            reuse_staged_files: true,
            // pin the broker so the cached site is chosen again
            broker: gridsim::BrokerPolicy::Fixed("tacc".into()),
            ..OnServeConfig::default()
        },
        ..DeploymentSpec::default()
    };
    let d = Deployment::build(&mut sim, &spec);
    let exe_len = 1024 * 1024;
    upload_and_publish(
        &mut sim,
        &d,
        "tool.exe",
        exe_len,
        ExecutionProfile::quick().producing(1.0 * KB),
        &[],
    );
    let run_once = |sim: &mut Sim, d: &Deployment| {
        let ok = Rc::new(Cell::new(false));
        let o = ok.clone();
        d.invoke(sim, "tool", &[], move |_, r| {
            r.expect("invoke");
            o.set(true);
        });
        sim.run();
        assert!(ok.get());
    };
    run_once(&mut sim, &d);
    let after_first = sim.recorder_ref().total("appliance.net.out.bytes");
    run_once(&mut sim, &d);
    let after_second = sim.recorder_ref().total("appliance.net.out.bytes");
    // only control traffic on the second run — no megabyte re-upload
    assert!(
        after_second - after_first < 0.2 * exe_len as f64,
        "reuse still sent {} bytes",
        after_second - after_first
    );
}

/// Removing a service forgets where its binary was staged: a new binary
/// uploaded under the same file name is shipped on its first invocation,
/// not skipped because the site still holds the removed one.
#[test]
fn reupload_after_remove_restages_despite_the_reuse_cache() {
    let mut sim = Sim::new(5);
    sim.enable_telemetry();
    let spec = DeploymentSpec {
        config: OnServeConfig {
            reuse_staged_files: true,
            broker: gridsim::BrokerPolicy::Fixed("tacc".into()),
            ..OnServeConfig::default()
        },
        ..DeploymentSpec::default()
    };
    let d = Deployment::build(&mut sim, &spec);
    let invoke = |sim: &mut Sim, d: &Deployment| {
        let ok = Rc::new(Cell::new(false));
        let o = ok.clone();
        d.invoke(sim, "tool", &[], move |_, r| {
            r.expect("invoke");
            o.set(true);
        });
        sim.run();
        assert!(ok.get());
    };
    let stages = |sim: &Sim| sim.telemetry().expect("on").spans_named("agent.stage").len();
    let shipped = |sim: &Sim| sim.recorder_ref().total("tacc.net.in.bytes");
    let profile = ExecutionProfile::quick().producing(1.0 * KB);
    upload_and_publish(&mut sim, &d, "tool.exe", 64 * 1024, profile, &[]);
    invoke(&mut sim, &d);
    assert_eq!(stages(&sim), 1);
    assert!(d.onserve.remove_service("tool"));
    upload_and_publish(&mut sim, &d, "tool.exe", 96 * 1024, profile, &[]);
    let before = shipped(&sim);
    invoke(&mut sim, &d);
    assert_eq!(stages(&sim), 2, "the new binary was never staged");
    assert!(
        shipped(&sim) - before >= 96.0 * KB,
        "shipped {} bytes, not the 96 KB binary",
        shipped(&sim) - before
    );
}

#[test]
fn multiple_services_coexist_and_route_to_their_executables() {
    let mut sim = Sim::new(5);
    let d = Deployment::build(&mut sim, &DeploymentSpec::default());
    upload_and_publish(
        &mut sim,
        &d,
        "alpha.exe",
        4096,
        ExecutionProfile::quick().producing(111.0),
        &[],
    );
    upload_and_publish(
        &mut sim,
        &d,
        "beta.exe",
        4096,
        ExecutionProfile::quick().producing(222.0),
        &[],
    );
    assert_eq!(d.onserve.registry().borrow_mut().find("%").len(), 2);
    let sizes: Rc<RefCell<Vec<f64>>> = Rc::new(RefCell::new(Vec::new()));
    for name in ["alpha", "beta"] {
        let s = sizes.clone();
        d.invoke(&mut sim, name, &[], move |_, r| {
            if let Ok(SoapValue::Binary { bytes, .. }) = r {
                s.borrow_mut().push(bytes);
            }
        });
    }
    sim.run();
    let mut got = sizes.borrow().clone();
    got.sort_by(|a, b| a.partial_cmp(b).unwrap());
    assert_eq!(got, vec![111.0, 222.0]);
}

#[test]
fn invoking_with_wrong_arguments_faults_without_grid_traffic() {
    let mut sim = Sim::new(6);
    let d = Deployment::build(&mut sim, &DeploymentSpec::default());
    upload_and_publish(
        &mut sim,
        &d,
        "typed.exe",
        4096,
        ExecutionProfile::quick(),
        &[("count", "int")],
    );
    let wan_before: f64 = d
        .grid
        .sites()
        .iter()
        .map(|s| {
            sim.recorder_ref()
                .total(&format!("{}.net.in.bytes", s.name()))
        })
        .sum();
    let fault = Rc::new(RefCell::new(None));
    let f2 = fault.clone();
    d.invoke(
        &mut sim,
        "typed",
        &[("count", SoapValue::Str("three".into()))],
        move |_, r| {
            *f2.borrow_mut() = Some(r.unwrap_err());
        },
    );
    sim.run();
    let fault = fault.borrow_mut().take().expect("fault");
    assert_eq!(fault.code, "soap:Client");
    let wan_after: f64 = d
        .grid
        .sites()
        .iter()
        .map(|s| {
            sim.recorder_ref()
                .total(&format!("{}.net.in.bytes", s.name()))
        })
        .sum();
    assert_eq!(wan_before, wan_after, "no grid traffic for rejected args");
}

#[test]
fn duplicate_upload_name_is_rejected() {
    let mut sim = Sim::new(7);
    let d = Deployment::build(&mut sim, &DeploymentSpec::default());
    upload_and_publish(&mut sim, &d, "same.exe", 4096, ExecutionProfile::quick(), &[]);
    let err = Rc::new(RefCell::new(None));
    let e2 = err.clone();
    let req = d.upload_request("same.exe", 4096, ExecutionProfile::quick(), &[]);
    d.portal.upload(&mut sim, req, move |_, r| {
        *e2.borrow_mut() = Some(r.unwrap_err());
    });
    sim.run();
    assert!(matches!(
        err.borrow_mut().take(),
        Some(onserve::onserve::UploadError::Db(_))
    ));
}

#[test]
fn removed_service_disappears_everywhere() {
    let mut sim = Sim::new(8);
    let d = Deployment::build(&mut sim, &DeploymentSpec::default());
    upload_and_publish(&mut sim, &d, "gone.exe", 4096, ExecutionProfile::quick(), &[]);
    assert!(d.onserve.remove_service("gone"));
    assert!(!d.onserve.remove_service("gone"));
    assert_eq!(d.onserve.registry().borrow_mut().find("gone").len(), 0);
    assert!(d.onserve.client_for("gone").is_err());
    assert!(d.onserve.db().db().borrow().record("gone.exe").is_err());
    // invoking the removed service faults
    let fault = Rc::new(Cell::new(false));
    let f2 = fault.clone();
    d.invoke(&mut sim, "gone", &[], move |_, r| {
        f2.set(r.is_err());
    });
    sim.run();
    assert!(fault.get());
}

#[test]
fn invocation_timing_is_dominated_by_job_runtime_not_middleware() {
    // the §VIII-B claim: onServe overhead is small next to a typical
    // Grid job runtime
    let mut sim = Sim::new(9);
    let d = Deployment::build(&mut sim, &DeploymentSpec::default());
    let runtime = Duration::from_secs(600);
    upload_and_publish(
        &mut sim,
        &d,
        "long.exe",
        64 * 1024,
        ExecutionProfile::quick()
            .lasting(runtime)
            .producing(4.0 * KB),
        &[],
    );
    let t0 = sim.now();
    let done_at = Rc::new(Cell::new(SimTime::ZERO));
    let da = done_at.clone();
    d.invoke(&mut sim, "long", &[], move |sim, r| {
        r.expect("invoke");
        da.set(sim.now());
    });
    sim.run();
    let total = (done_at.get() - t0).as_secs_f64();
    let overhead = total - runtime.as_secs_f64();
    assert!(overhead > 0.0);
    assert!(
        overhead < 0.2 * runtime.as_secs_f64(),
        "overhead {overhead}s on a {}s job",
        runtime.as_secs_f64()
    );
}

#[test]
fn five_megabyte_executable_stages_in_about_a_minute_over_wan() {
    // Figure 7's headline: ~5 MB to the Grid node takes ~60 s at 80–90 KB/s
    let mut sim = Sim::new(10);
    let d = Deployment::build(&mut sim, &DeploymentSpec::default());
    upload_and_publish(
        &mut sim,
        &d,
        "big.exe",
        5 * 1024 * 1024,
        ExecutionProfile::quick()
            .lasting(Duration::from_secs(30))
            .producing(1.0 * KB),
        &[],
    );
    let t0 = sim.now();
    let done_at = Rc::new(Cell::new(SimTime::ZERO));
    let da = done_at.clone();
    d.invoke(&mut sim, "big", &[], move |sim, r| {
        r.expect("invoke");
        da.set(sim.now());
    });
    sim.run();
    let total = (done_at.get() - t0).as_secs_f64();
    // staging ≈ 60 s + job 30 s + polling/auth/middleware
    assert!(total > 90.0, "total {total}");
    assert!(total < 140.0, "total {total}");
}

#[test]
fn session_cache_ablation_skips_repeat_credential_exchange() {
    let mut sim = Sim::new(11);
    let spec = DeploymentSpec {
        config: OnServeConfig {
            cache_grid_sessions: true,
            ..OnServeConfig::default()
        },
        ..DeploymentSpec::default()
    };
    let d = Deployment::build(&mut sim, &spec);
    upload_and_publish(
        &mut sim,
        &d,
        "cached.exe",
        8192,
        ExecutionProfile::quick().producing(1.0 * KB),
        &[],
    );
    let run_once = |sim: &mut Sim, d: &Deployment| {
        let ok = Rc::new(Cell::new(false));
        let o = ok.clone();
        d.invoke(sim, "cached", &[], move |_, r| {
            r.expect("invoke");
            o.set(true);
        });
        sim.run();
        assert!(ok.get());
    };
    run_once(&mut sim, &d);
    let cred_after_first =
        sim.recorder_ref().total("mp.fwd.bytes") + sim.recorder_ref().total("mp.rev.bytes");
    run_once(&mut sim, &d);
    run_once(&mut sim, &d);
    let cred_after_third =
        sim.recorder_ref().total("mp.fwd.bytes") + sim.recorder_ref().total("mp.rev.bytes");
    // no further MyProxy traffic once the session is cached
    assert_eq!(cred_after_first, cred_after_third);

    // the paper's default re-authenticates every time
    let mut sim2 = Sim::new(12);
    let d2 = Deployment::build(&mut sim2, &DeploymentSpec::default());
    upload_and_publish(
        &mut sim2,
        &d2,
        "uncached.exe",
        8192,
        ExecutionProfile::quick().producing(1.0 * KB),
        &[],
    );
    let run2 = |sim: &mut Sim, d: &Deployment| {
        let ok = Rc::new(Cell::new(false));
        let o = ok.clone();
        d.invoke(sim, "uncached", &[], move |_, r| {
            r.expect("invoke");
            o.set(true);
        });
        sim.run();
        assert!(ok.get());
    };
    run2(&mut sim2, &d2);
    let c1 = sim2.recorder_ref().total("mp.fwd.bytes") + sim2.recorder_ref().total("mp.rev.bytes");
    run2(&mut sim2, &d2);
    let c2 = sim2.recorder_ref().total("mp.fwd.bytes") + sim2.recorder_ref().total("mp.rev.bytes");
    assert!(c2 > c1, "paper behaviour must re-exchange credentials");
}

#[test]
fn update_executable_replaces_in_place_and_invalidates_staging() {
    let mut sim = Sim::new(13);
    let spec = DeploymentSpec {
        config: OnServeConfig {
            reuse_staged_files: true,
            broker: gridsim::BrokerPolicy::Fixed("sdsc".into()),
            ..OnServeConfig::default()
        },
        ..DeploymentSpec::default()
    };
    let d = Deployment::build(&mut sim, &spec);
    let svc = upload_and_publish(
        &mut sim,
        &d,
        "tool.exe",
        512 * 1024,
        ExecutionProfile::quick().producing(100.0),
        &[("n", "int")],
    );
    // run once to warm the staged cache
    let ok = Rc::new(Cell::new(false));
    let o = ok.clone();
    d.invoke(&mut sim, "tool", &[("n", SoapValue::Int(1))], move |_, r| {
        r.expect("invoke");
        o.set(true);
    });
    sim.run();
    assert!(ok.get());
    let staged_before = sim.recorder_ref().total("sdsc.net.in.bytes");

    // update: bigger binary, new signature, new profile
    let new_len = 1024 * 1024;
    let updated = Rc::new(Cell::new(false));
    let u = updated.clone();
    d.onserve.clone().update_executable(
        &mut sim,
        "tool",
        onserve::deployment::synth_payload(new_len, 99),
        Some(vec![
            blobstore::ParamSpec::new("n", "int"),
            blobstore::ParamSpec::new("mode", "string"),
        ]),
        Some("version 2".into()),
        Some(ExecutionProfile::quick().producing(222.0)),
        move |_, r| {
            r.expect("update");
            u.set(true);
        },
    );
    sim.run();
    assert!(updated.get());
    // same UDDI key, new description; WSDL now has two parameters
    let key = svc.service_key.clone();
    {
        let mut reg = d.onserve.registry().borrow_mut();
        let rec = reg.get(&key).unwrap();
        assert_eq!(rec.description, "version 2");
    }
    let stub = d.onserve.client_for("tool").unwrap();
    let two_args = stub.build_request(
        "execute",
        &[("n", SoapValue::Int(1)), ("mode", SoapValue::Str("x".into()))],
    );
    assert!(two_args.is_ok());
    // invoking with the old single-arg shape now faults
    let fault = Rc::new(Cell::new(false));
    let f = fault.clone();
    d.invoke(&mut sim, "tool", &[("n", SoapValue::Int(1))], move |_, r| {
        f.set(r.is_err());
    });
    sim.run();
    assert!(fault.get());
    // a correct invocation re-stages the NEW binary despite the reuse cache
    let out = Rc::new(Cell::new(0.0));
    let o2 = out.clone();
    d.invoke(
        &mut sim,
        "tool",
        &[("n", SoapValue::Int(1)), ("mode", SoapValue::Str("x".into()))],
        move |_, r| {
            if let Ok(SoapValue::Binary { bytes, .. }) = r {
                o2.set(bytes);
            }
        },
    );
    sim.run();
    assert_eq!(out.get(), 222.0, "new profile's output");
    let staged_after = sim.recorder_ref().total("sdsc.net.in.bytes");
    assert!(
        staged_after - staged_before >= new_len as f64,
        "update must invalidate the staged copy (delta {})",
        staged_after - staged_before
    );
}

#[test]
fn update_unknown_service_errors() {
    let mut sim = Sim::new(14);
    let d = Deployment::build(&mut sim, &DeploymentSpec::default());
    let hit = Rc::new(Cell::new(false));
    let h = hit.clone();
    d.onserve.clone().update_executable(
        &mut sim,
        "ghost",
        onserve::deployment::synth_payload(10, 1),
        None,
        None,
        None,
        move |_, r| {
            assert!(matches!(r, Err(onserve::UploadError::NoSuchService(_))));
            h.set(true);
        },
    );
    sim.run();
    assert!(hit.get());
}

/// Output size of one plain invocation of `service` (drains the sim).
fn invoke_for_output(sim: &mut Sim, d: &Deployment, service: &str) -> Result<f64, String> {
    let out = Rc::new(RefCell::new(None));
    let o = out.clone();
    d.invoke(sim, service, &[], move |_, r| {
        *o.borrow_mut() = Some(match r {
            Ok(SoapValue::Binary { bytes, .. }) => Ok(bytes),
            other => Err(format!("{other:?}")),
        });
    });
    sim.run();
    let answer = out.borrow_mut().take().expect("responded");
    answer
}

#[test]
fn failed_update_leaves_the_old_binary_serving() {
    // Regression: the update used to delete the old row up front, so a
    // store that failed left the service published with no executable.
    let mut sim = Sim::new(17);
    let d = Deployment::build(&mut sim, &DeploymentSpec::default());
    let old = ExecutionProfile::quick().producing(100.0);
    upload_and_publish(&mut sim, &d, "tool.exe", 64 * 1024, old, &[]);
    let faults = simkit::FaultConfig {
        write_fail_p: 1.0,
        ..simkit::FaultConfig::default()
    };
    let db = d.onserve.db();
    db.inject_faults(Some(simkit::FaultInjector::new(5, faults)));
    let result = Rc::new(RefCell::new(None));
    let r2 = result.clone();
    d.onserve.clone().update_executable(
        &mut sim,
        "tool",
        onserve::deployment::synth_payload(128 * 1024, 99),
        None,
        Some("version 2".into()),
        Some(ExecutionProfile::quick().producing(222.0)),
        move |_, r| *r2.borrow_mut() = Some(r),
    );
    sim.run();
    assert_eq!(
        result.borrow_mut().take(),
        Some(Err(onserve::UploadError::Db(
            blobstore::DbError::WriteFailed("tool.exe".into())
        )))
    );
    db.inject_faults(None);
    assert_eq!(
        db.db().borrow().record("tool.exe").map(|r| r.original_len),
        Ok(64 * 1024),
        "the old row must survive a failed replacement"
    );
    assert_eq!(invoke_for_output(&mut sim, &d, "tool"), Ok(100.0));
}

#[test]
fn invocation_during_an_update_is_served_from_the_old_binary() {
    // Regression: between the up-front delete and the insert at the end of
    // the store's disk passes, invocations faulted with "no such
    // executable".
    let mut sim = Sim::new(18);
    let d = Deployment::build(&mut sim, &DeploymentSpec::default());
    let old = ExecutionProfile::quick().producing(100.0);
    upload_and_publish(&mut sim, &d, "tool.exe", 64 * 1024, old, &[]);
    let updated_at = Rc::new(Cell::new(None));
    let u = updated_at.clone();
    d.onserve.clone().update_executable(
        &mut sim,
        "tool",
        onserve::deployment::synth_payload(5 * 1024 * 1024, 99),
        None,
        None,
        Some(ExecutionProfile::quick().producing(222.0)),
        move |sim, r| {
            r.expect("update");
            u.set(Some(sim.now()));
        },
    );
    // the request reaches the middleware while the 5 MB temp write is
    // still on the disk
    let started = sim.now();
    assert_eq!(invoke_for_output(&mut sim, &d, "tool"), Ok(100.0));
    assert!(
        updated_at.get().expect("update finished") > started + Duration::from_millis(100),
        "the update must still have been in flight when the invocation arrived"
    );
    // and once the update is through, the new build answers
    assert_eq!(invoke_for_output(&mut sim, &d, "tool"), Ok(222.0));
}

#[test]
fn registry_browser_reflects_live_state() {
    let mut sim = Sim::new(15);
    let d = Deployment::build(&mut sim, &DeploymentSpec::default());
    upload_and_publish(
        &mut sim,
        &d,
        "viewer.exe",
        4096,
        ExecutionProfile::quick(),
        &[("depth", "int")],
    );
    let cat = onserve::browser::catalog(&d.onserve);
    assert!(cat.contains("viewer"), "{cat}");
    assert!(cat.contains("execute(depth: int) -> base64"), "{cat}");
    let det = onserve::browser::describe(&d.onserve, "view%");
    assert!(det.contains("wsdl:definitions"), "{det}");
}

#[test]
fn exhausted_allocation_surfaces_at_the_service_consumer() {
    let mut sim = Sim::new(16);
    let d = Deployment::build(&mut sim, &DeploymentSpec::default());
    // a tenant with a 1-SU budget at every site
    d.enroll_tenant(&sim, "smalllab", "pw", Some(1.0));
    let mut req = d.upload_request(
        "burn.exe",
        8192,
        // walltime limit = 4 × 600 s × 8 cores projects to 5.3 SU — over
        // budget on every site
        ExecutionProfile::quick()
            .lasting(Duration::from_secs(600))
            .on_cores(8)
            .producing(1.0 * KB),
        &[],
    );
    req.grid_user = "smalllab".into();
    req.grid_passphrase = "pw".into();
    d.portal.upload(&mut sim, req, |_, r| {
        r.expect("publish");
    });
    sim.run();
    let fault = Rc::new(RefCell::new(None));
    let f = fault.clone();
    d.invoke(&mut sim, "burn", &[], move |_, r| {
        *f.borrow_mut() = Some(r.expect_err("over-budget job must fault"));
    });
    sim.run();
    let fault = fault.borrow_mut().take().unwrap();
    assert!(fault.message.contains("allocation exhausted"), "{fault}");
    // usage stayed zero: nothing ran
    assert!(d
        .grid
        .usage_report()
        .iter()
        .all(|(_, _, a)| a.used_core_hours == 0.0));
}

#[test]
fn expired_cached_sessions_are_evicted_and_logged_out() {
    // Regression: the session cache used to drop expired SessionIds without
    // telling the agent, leaking one dead proxy entry in the agent's session
    // map per expiry. With a 60 s proxy lifetime every invoke finds the
    // previous session stale (the cache demands 600 s of remaining life), so
    // each round exercises the evict-and-logout path once.
    let mut sim = Sim::new(14);
    let spec = DeploymentSpec {
        config: OnServeConfig {
            cache_grid_sessions: true,
            ..OnServeConfig::default()
        },
        agent: cyberaide::agent::AgentConfig {
            proxy_lifetime: Duration::from_secs(60),
            ..cyberaide::agent::AgentConfig::default()
        },
        ..DeploymentSpec::default()
    };
    let d = Deployment::build(&mut sim, &spec);
    upload_and_publish(
        &mut sim,
        &d,
        "leaky.exe",
        8192,
        ExecutionProfile::quick().producing(1.0 * KB),
        &[],
    );
    const ROUNDS: u64 = 8;
    for _ in 0..ROUNDS {
        let ok = Rc::new(Cell::new(false));
        let o = ok.clone();
        d.invoke(&mut sim, "leaky", &[], move |_, r| {
            r.expect("invoke");
            o.set(true);
        });
        sim.run();
        assert!(ok.get());
        assert!(
            d.agent.session_count() <= 1,
            "agent session map must stay bounded, got {}",
            d.agent.session_count()
        );
    }
    let (auths, hits, evictions) = d.onserve.session_counters();
    // every round re-authenticated (the cached session is always stale) and
    // every stale entry after the first was evicted *and* logged out
    assert_eq!(auths, ROUNDS);
    assert_eq!(hits, 0);
    assert_eq!(evictions, ROUNDS - 1);
    assert!(d.agent.session_count() <= 1);
}
