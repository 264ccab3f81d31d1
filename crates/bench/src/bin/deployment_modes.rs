//! Deployment-mode study for the §V claim: "The access layer can be
//! deployed locally by a user, or deployed in a shared remote location and
//! used by multiple users."
//!
//! Part 1 prices the *on-demand* path (§V step 1): image copy + VM boot +
//! service start before the first request can even be accepted, and how
//! that cold start amortizes over successive invocations vs an always-on
//! appliance.
//!
//! Part 2 compares a **shared** appliance (three tenants on one access
//! layer) against **local** per-user appliances (three deployments in one
//! simulation, distinct hosts/paths), measuring what appliance-side
//! contention costs. (Each local deployment fronts its own Grid instance;
//! the comparison isolates the *access layer*, which is what §V varies.)
//!
//! Run with: `cargo run -p onserve-bench --bin deployment_modes`

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use onserve::deployment::{Deployment, DeploymentSpec};
use onserve::profile::ExecutionProfile;
use onserve_bench::KB;
use simkit::report::TextTable;
use simkit::{Duration, Link, Sim, GBIT_PER_S};
use vappliance::{build_image, ApplianceRecipe};
use wsstack::SoapValue;

fn publish(sim: &mut Sim, d: &Deployment, name: &str) {
    let req = d.upload_request(
        name,
        64 * 1024,
        ExecutionProfile::quick()
            .lasting(Duration::from_secs(30))
            .producing(8.0 * KB),
        &[],
    );
    d.portal.upload(sim, req, |_, r| {
        r.expect("publish");
    });
    sim.run();
}

fn invoke_blocking(sim: &mut Sim, d: &Deployment, name: &str) -> f64 {
    let t0 = sim.now();
    let at = Rc::new(Cell::new(-1.0));
    let a2 = at.clone();
    d.invoke(sim, name, &[], move |sim, r| {
        assert!(matches!(r, Ok(SoapValue::Binary { .. })));
        a2.set(sim.now().as_secs_f64());
    });
    sim.run();
    at.get() - t0.as_secs_f64()
}

fn main() {
    // ---- part 1: on-demand cold start --------------------------------
    println!("==== on-demand appliance vs always-on (§V step 1) ====\n");
    let mut sim = Sim::new(800);
    let builder = simkit::Host::new(&simkit::HostSpec::commodity("builder"));
    let repo = Link::new("repo", "mirror", "builder", GBIT_PER_S / 8.0, Duration::from_millis(10));
    let image: Rc<RefCell<Option<vappliance::ApplianceImage>>> = Rc::new(RefCell::new(None));
    let i2 = image.clone();
    build_image(
        &mut sim,
        &builder,
        &repo,
        &ApplianceRecipe::cyberaide_onserve(),
        move |_, img| {
            *i2.borrow_mut() = Some(img);
        },
    );
    sim.run();
    let image = image.borrow_mut().take().expect("image");
    let build_done = sim.now();

    let image_link = Link::new("imgstore", "store", "vmm", GBIT_PER_S, Duration::from_millis(2));
    let ready: Rc<RefCell<Option<Deployment>>> = Rc::new(RefCell::new(None));
    let r2 = ready.clone();
    Deployment::build_on_demand(
        &mut sim,
        DeploymentSpec::default(),
        &image,
        &image_link,
        move |_, d| {
            *r2.borrow_mut() = Some(d);
        },
    );
    sim.run();
    let cold_start = (sim.now() - build_done).as_secs_f64();
    let d = ready.borrow_mut().take().expect("deployment ready");
    publish(&mut sim, &d, "tool.exe");
    let mut first = None;
    let mut total = 0.0;
    for i in 0..10 {
        let l = invoke_blocking(&mut sim, &d, "tool");
        if i == 0 {
            first = Some(l);
        }
        total += l;
    }
    let mut t = TextTable::new(vec!["metric", "on-demand", "always-on"]);
    t.row(vec![
        "appliance ready after".to_string(),
        format!("{cold_start:.0} s (copy+boot+services)"),
        "0 s".to_string(),
    ]);
    t.row(vec![
        "first result".to_string(),
        format!("{:.0} s + cold start", first.unwrap()),
        format!("{:.0} s", first.unwrap()),
    ]);
    t.row(vec![
        "cold start amortized over 10 runs".to_string(),
        format!("{:.0}%", 100.0 * cold_start / (cold_start + total)),
        "0%".to_string(),
    ]);
    println!("{}", t.render());
    println!(
        "the appliance pays for itself quickly: one image boot (~1 min)\n\
         against every subsequent invocation being a single SOAP call.\n"
    );

    // ---- part 2: shared vs local appliances ---------------------------
    println!("==== shared appliance vs per-user appliances (§V) ====\n");
    let tenants = 3;
    let runs_per_tenant = 4;

    // shared: one deployment, one appliance host
    let mut sim = Sim::new(801);
    let shared = Deployment::build(&mut sim, &DeploymentSpec::default());
    for u in 0..tenants {
        publish(&mut sim, &shared, &format!("tool{u}.exe"));
    }
    let t0 = sim.now();
    let done = Rc::new(Cell::new(0u32));
    let lat_sum = Rc::new(Cell::new(0.0));
    for u in 0..tenants {
        for _ in 0..runs_per_tenant {
            let c = done.clone();
            let ls = lat_sum.clone();
            let started = sim.now();
            shared.invoke(&mut sim, &format!("tool{u}"), &[], move |sim, r| {
                r.expect("invoke");
                c.set(c.get() + 1);
                ls.set(ls.get() + (sim.now() - started).as_secs_f64());
            });
        }
    }
    sim.run();
    assert_eq!(done.get(), (tenants * runs_per_tenant) as u32);
    let shared_makespan = (sim.now() - t0).as_secs_f64();
    let shared_mean = lat_sum.get() / done.get() as f64;
    let shared_cpu = sim.recorder_ref().total("appliance.cpu.busy");

    // local: three deployments (distinct hosts/paths) in one simulation
    let mut sim = Sim::new(801);
    let mut locals = Vec::new();
    for u in 0..tenants {
        let spec = DeploymentSpec {
            appliance_name: format!("app-u{u}"),
            client_name: format!("client-u{u}"),
            lan_name: format!("lan-u{u}"),
            myproxy_name: format!("myproxy-u{u}"),
            myproxy_path_name: format!("mp-u{u}"),
            ..DeploymentSpec::default()
        };
        let d = Deployment::build(&mut sim, &spec);
        publish(&mut sim, &d, &format!("tool{u}.exe"));
        locals.push(d);
    }
    let t0 = sim.now();
    let done = Rc::new(Cell::new(0u32));
    let lat_sum = Rc::new(Cell::new(0.0));
    for (u, d) in locals.iter().enumerate() {
        for _ in 0..runs_per_tenant {
            let c = done.clone();
            let ls = lat_sum.clone();
            let started = sim.now();
            d.invoke(&mut sim, &format!("tool{u}"), &[], move |sim, r| {
                r.expect("invoke");
                c.set(c.get() + 1);
                ls.set(ls.get() + (sim.now() - started).as_secs_f64());
            });
        }
    }
    sim.run();
    assert_eq!(done.get(), (tenants * runs_per_tenant) as u32);
    let local_makespan = (sim.now() - t0).as_secs_f64();
    let local_mean = lat_sum.get() / done.get() as f64;
    let local_cpu: f64 = (0..tenants)
        .map(|u| sim.recorder_ref().total(&format!("app-u{u}.cpu.busy")))
        .sum();

    let mut t = TextTable::new(vec!["mode", "makespan", "mean latency", "appliance cpu-s"]);
    t.row(vec![
        format!("shared (1 appliance, {tenants} tenants)"),
        format!("{shared_makespan:.0} s"),
        format!("{shared_mean:.0} s"),
        format!("{shared_cpu:.1}"),
    ]);
    t.row(vec![
        format!("local ({tenants} appliances)"),
        format!("{local_makespan:.0} s"),
        format!("{local_mean:.0} s"),
        format!("{local_cpu:.1}"),
    ]);
    println!("{}", t.render());
    println!(
        "at this scale the shared access layer adds little: appliance-side\n\
         work is light (the paper's §VIII-D1 point), so sharing mostly costs\n\
         nothing until disk or LAN saturate — which the scalability bench\n\
         probes directly."
    );
}
