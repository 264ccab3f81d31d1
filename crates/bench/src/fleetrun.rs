//! The fleet-run driver every fleet experiment is written on: one
//! simulator, one [`Fleet`], and the steps they all share — boot and
//! provision, offer load, drain and check conservation — stated once.
//!
//! Beside it, the pieces more than one experiment configures the same
//! way: the appliance image, the replicated round-robin spec, the
//! replacement-only autoscaler, the slow-replica health windowing, and
//! the fixed-gap [`pace`]r.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use fleet::{
    start_open_loop, ArrivalProcess, Autoscaler, AutoscalerConfig, DispatchCounters, Fleet,
    FleetSpec, HealthConfig, Mix, Policy, Request, SubmitFn, WorkloadStats,
};
use onserve::profile::ExecutionProfile;
use simkit::{Duration, Sim, SimTime, MB};
use vappliance::ApplianceImage;

/// The appliance image every replica boots from.
pub fn fleet_image() -> ApplianceImage {
    ApplianceImage {
        name: "onserve".into(),
        bytes: 600.0 * MB,
        boot_services: vec!["mysqld".into(), "tomcat".into(), "juddi".into()],
        recipe_fingerprint: 1,
    }
}

/// `replicas` appliances, each with its own database, behind a
/// round-robin door admitting `max_in_flight` requests.
pub fn replicated_spec(replicas: usize, max_in_flight: usize) -> FleetSpec {
    let mut spec = FleetSpec::with_image(fleet_image());
    spec.initial_replicas = replicas;
    spec.dispatcher.policy = Policy::RoundRobin;
    spec.dispatcher.max_in_flight = max_in_flight;
    spec
}

/// Windowing tuned to the appliance's ~15.5 s invoke latency: with a
/// replica at 10× (~155 s per answer) the lookback must still hold its
/// completions, or a judge would only ever see the healthy pack.
pub fn slow_replica_health() -> HealthConfig {
    HealthConfig {
        window: Duration::from_secs(30),
        ring: 16,
        lookback: Duration::from_secs(240),
        interval: Duration::from_secs(30),
        latency_factor: 3.0,
        min_samples: 2,
        probation_strikes: 2,
        eject_strikes: 6,
        ..HealthConfig::default()
    }
}

/// One fleet experiment in progress.
pub struct FleetRun {
    /// The virtual world.
    pub sim: Sim,
    /// The fleet under test.
    pub fleet: Rc<Fleet>,
}

impl FleetRun {
    /// Create the world and the fleet; nothing runs yet, so planes
    /// attached now are in place before the first replica boots.
    pub fn new(seed: u64, spec: FleetSpec, telemetry: bool) -> FleetRun {
        let mut sim = Sim::new(seed);
        if telemetry {
            sim.enable_telemetry();
        }
        let fleet = Fleet::new(&mut sim, spec);
        FleetRun { sim, fleet }
    }

    /// Cold-start every appliance, then publish the 64 KB `app.exe`
    /// (service `app`) on all of them — small, because the blob store is
    /// byte-accurate and big executables cost real wall-clock time.
    pub fn provision(&mut self, profile: ExecutionProfile) {
        self.sim.run();
        self.fleet
            .publish(&mut self.sim, "app.exe", 64 * 1024, profile, |_| {});
        self.sim.run();
    }

    /// The front door as a workload sink.
    pub fn sink(&self) -> Rc<SubmitFn> {
        let dispatcher = Rc::clone(self.fleet.dispatcher());
        Rc::new(move |sim, req, done| dispatcher.submit(sim, req, done))
    }

    /// Start an open-loop generator at the front door.
    pub fn offer(
        &mut self,
        arrivals: ArrivalProcess,
        mix: Mix,
        until: SimTime,
    ) -> Rc<WorkloadStats> {
        let sink = self.sink();
        start_open_loop(&mut self.sim, arrivals, mix, sink, until)
    }

    /// Install the replacement-only autoscaler: load thresholds parked so
    /// `Replace` is the only reachable decision — it boots a replica for
    /// each one lost below `floor`, never past `ceiling`.
    pub fn replace_losses(&mut self, floor: usize, ceiling: usize, until: SimTime) {
        Autoscaler::install(
            &mut self.sim,
            &self.fleet,
            AutoscalerConfig {
                interval: Duration::from_secs(15),
                cooldown: Duration::from_secs(60),
                scale_up_load: f64::INFINITY,
                scale_down_load: 0.0,
                min_replicas: floor,
                max_replicas: ceiling,
                ..AutoscalerConfig::default()
            },
            until,
        );
    }

    /// Run to quiescence and close the door's ledger: every admitted
    /// request was answered, and nothing is still in flight.
    pub fn drain(&mut self) -> DispatchCounters {
        self.sim.run();
        let c = self.fleet.dispatcher().counters();
        assert_eq!(
            c.accepted,
            c.completed + c.faulted,
            "request conservation violated"
        );
        assert_eq!(self.fleet.dispatcher().in_flight(), 0, "drained");
        c
    }
}

/// Names the `n`-th paced caller. Runs at the instant the request is
/// issued, so it may set ambient state (a request origin) first.
pub type Principal = dyn Fn(&mut Sim, u64) -> Option<String>;

/// Ledger of one [`pace`]d stream.
#[derive(Default)]
pub struct Paced {
    /// Requests issued.
    pub issued: Cell<u64>,
    /// Requests answered successfully.
    pub ok: Cell<u64>,
    /// Requests refused at the door or answered with a fault.
    pub bad: Cell<u64>,
    /// End-to-end latency of each success, seconds, in completion order.
    pub latencies: RefCell<Vec<f64>>,
}

/// Invoke `app` once now and then every `gap` until `until`, the `n`-th
/// request carrying `principal(sim, n)`. Deterministic by construction:
/// it draws no randomness and forks no rng stream, so starting one
/// leaves every other stream's schedule where it was.
pub fn pace(
    run: &mut FleetRun,
    gap: Duration,
    until: SimTime,
    principal: impl Fn(&mut Sim, u64) -> Option<String> + 'static,
) -> Rc<Paced> {
    let paced = Rc::new(Paced::default());
    let fleet = Rc::clone(&run.fleet);
    issue(
        &mut run.sim,
        fleet,
        gap,
        until,
        0,
        Rc::new(principal),
        Rc::clone(&paced),
    );
    paced
}

fn issue(
    sim: &mut Sim,
    fleet: Rc<Fleet>,
    gap: Duration,
    until: SimTime,
    n: u64,
    principal: Rc<Principal>,
    paced: Rc<Paced>,
) {
    if sim.now() > until {
        return;
    }
    let caller = principal(sim, n);
    paced.issued.set(paced.issued.get() + 1);
    let (p, sent) = (Rc::clone(&paced), sim.now());
    fleet.dispatcher().clone().submit(
        sim,
        Request::Invoke {
            service: "app".into(),
            args: Vec::new(),
            principal: caller,
        },
        Box::new(move |sim, res| {
            if res.is_ok() {
                p.ok.set(p.ok.get() + 1);
                p.latencies
                    .borrow_mut()
                    .push((sim.now() - sent).as_secs_f64());
            } else {
                p.bad.set(p.bad.get() + 1);
            }
        }),
    );
    sim.schedule(gap, move |sim| {
        issue(sim, fleet, gap, until, n + 1, principal, paced)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleet::{Backend, Responder};

    fn provisioned(seed: u64) -> FleetRun {
        let mut run = FleetRun::new(seed, replicated_spec(1, 64), false);
        run.provision(ExecutionProfile::quick());
        run
    }

    #[test]
    fn pace_issues_gap_apart_until_the_deadline_and_its_ledger_closes() {
        let mut run = provisioned(11);
        let (gap, t0) = (Duration::from_secs(10), run.sim.now());
        let seen = Rc::new(RefCell::new(Vec::new()));
        let s2 = Rc::clone(&seen);
        let paced = pace(
            &mut run,
            gap,
            t0 + Duration::from_secs(45),
            move |sim, n| {
                s2.borrow_mut().push((n, sim.now()));
                Some(format!("t{n}"))
            },
        );
        let c = run.drain();
        // requests 0..=4 at t0, t0+10, .. t0+40; the tick at t0+50 is past
        // the deadline and issues nothing
        let want: Vec<(u64, SimTime)> = (0..5).map(|n| (n, t0 + gap.saturating_mul(n))).collect();
        assert_eq!(*seen.borrow(), want);
        assert_eq!(paced.issued.get(), 5);
        assert_eq!(paced.ok.get() + paced.bad.get(), paced.issued.get());
        assert_eq!(paced.latencies.borrow().len() as u64, paced.ok.get());
        assert_eq!((c.accepted + c.shed, c.completed), (5, paced.ok.get()));
    }

    #[test]
    fn a_paced_stream_leaves_the_sim_rng_where_it_was() {
        // what every paced golden depends on: unlike `start_open_loop`,
        // which forks a stream off the sim rng, pacing draws nothing
        let mut quiet = provisioned(12);
        let mut paced = provisioned(12);
        let until = paced.sim.now() + Duration::from_secs(30);
        let ledger = pace(&mut paced, Duration::from_secs(6), until, |_, _| None);
        quiet.drain();
        paced.drain();
        assert_eq!(ledger.ok.get(), 6);
        assert_eq!(quiet.sim.rng().next_u64(), paced.sim.rng().next_u64());
    }

    /// A backend that takes every request and answers none.
    struct Mute;

    impl Backend for Mute {
        fn name(&self) -> &str {
            "mute"
        }
        fn serve(&self, _: &mut Sim, _: Request, _: Responder) {}
    }

    #[test]
    #[should_panic(expected = "request conservation violated")]
    fn drain_panics_while_a_request_is_still_parked() {
        let mut run = FleetRun::new(13, replicated_spec(0, 8), false);
        run.fleet.dispatcher().add_backend(Rc::new(Mute));
        let now = run.sim.now();
        pace(&mut run, Duration::from_secs(1), now, |_, _| None);
        run.drain();
    }
}
