//! Test doubles and fixtures the fleet suites share.
#![allow(dead_code)] // each suite uses its own subset

use std::cell::Cell;
use std::rc::Rc;

use fleet::{Audit, Backend, Fleet, FleetSpec, Policy, Request, Responder, StorageTopology};
use onserve::profile::ExecutionProfile;
use simkit::{Duration, Sim, MB};
use vappliance::ApplianceImage;
use wsstack::{SoapFault, SoapValue};

/// The appliance image every fleet replica boots from.
pub fn image() -> ApplianceImage {
    ApplianceImage {
        name: "onserve".into(),
        bytes: 600.0 * MB,
        boot_services: vec!["mysqld".into(), "tomcat".into(), "juddi".into()],
        recipe_fingerprint: 1,
    }
}

/// `replicas` appliances, each with its own database, behind a
/// round-robin door admitting 256 requests; `spec` adjusts the rest.
pub fn fleet(sim: &mut Sim, replicas: usize, spec: impl FnOnce(&mut FleetSpec)) -> Rc<Fleet> {
    let mut s = FleetSpec::with_image(image());
    s.topology = StorageTopology::Replicated;
    s.initial_replicas = replicas;
    s.dispatcher.policy = Policy::RoundRobin;
    s.dispatcher.max_in_flight = 256;
    spec(&mut s);
    Fleet::new(sim, s)
}

/// Boot the fleet and publish `file` on every replica, both audited.
pub fn boot_and_publish(
    sim: &mut Sim,
    fleet: &Rc<Fleet>,
    audit: &Audit,
    (file, len): (&str, usize),
    profile: ExecutionProfile,
) {
    audit.run(sim);
    fleet.publish(sim, file, len, profile, |_| {});
    audit.run(sim);
}

/// Drain with `Sim::run` and check the end state only. A same-seed
/// replay drained this way must match an audited run: stepping and
/// checking moved nothing.
pub fn unaudited(audit: &Audit, sim: &mut Sim) {
    sim.run();
    audit.close(sim);
}

/// An invocation of `service`, carrying `principal` if given.
pub fn invoke(service: &str, principal: Option<&str>) -> Request {
    let (service, principal) = (service.into(), principal.map(str::to_owned));
    Request::Invoke { service, args: Vec::new(), principal }
}

/// Answers every request after a fixed delay — with a fault, if told to —
/// and counts what it served.
pub struct Echo {
    name: String,
    delay: Duration,
    fault: bool,
    pub served: Cell<u64>,
}

impl Echo {
    pub fn new(name: &str, delay_ms: u64, fault: bool) -> Rc<Echo> {
        let (name, delay) = (name.into(), Duration::from_millis(delay_ms));
        Rc::new(Echo { name, delay, fault, served: Cell::new(0) })
    }
}

impl Backend for Echo {
    fn name(&self) -> &str {
        &self.name
    }
    fn serve(&self, sim: &mut Sim, _req: Request, done: Responder) {
        self.served.set(self.served.get() + 1);
        let fault = self.fault.then(|| SoapFault::server("echo fault"));
        let answer = fault.map_or(Ok(SoapValue::Bool(true)), Err);
        sim.schedule(self.delay, move |sim| done(sim, answer));
    }
}

/// Takes every request and answers none: only an eject resolves its work.
pub struct BlackHole(pub &'static str);

impl Backend for BlackHole {
    fn name(&self) -> &str {
        self.0
    }
    fn serve(&self, _sim: &mut Sim, _req: Request, _done: Responder) {}
}
