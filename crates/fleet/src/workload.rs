//! Seeded workload generation: open-loop arrival processes and a
//! closed-loop user population.
//!
//! Schroeder et al. ("Open Versus Closed: A Cautionary Tale") is the
//! reason both modes exist: an open-loop generator keeps offering load no
//! matter how slow the system gets — which is what exposes the §VIII-D
//! storage bottleneck — while a closed loop self-throttles behind think
//! times, the way a fixed user population actually behaves. Everything is
//! driven off a forked [`simkit::Rng`] stream, so runs are byte-for-byte
//! reproducible per seed.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use onserve::deployment::synth_executable;
use onserve::profile::ExecutionProfile;
use simkit::{Duration, Rng, Sim, SimTime};
use wsstack::{SoapFault, SoapValue};

use crate::dispatcher::{Request, Responder};

/// Where generated requests go — typically the fleet dispatcher.
pub type SubmitFn = dyn Fn(&mut Sim, Request, Responder);

/// Arrival process shapes for the open-loop generator.
#[derive(Clone, Copy, Debug)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at a constant rate (requests/second).
    Poisson {
        /// Mean arrival rate, requests per second.
        rate: f64,
    },
    /// On/off bursts: exponentially distributed on and off phases, Poisson
    /// arrivals at `rate_on` during on phases, silence during off phases.
    Bursty {
        /// Arrival rate during an on phase, requests per second.
        rate_on: f64,
        /// Mean on-phase length.
        mean_on: Duration,
        /// Mean off-phase length.
        mean_off: Duration,
    },
    /// A diurnal rate curve: sinusoidal modulation between `base_rate`
    /// (trough) and `peak_rate` (crest) with the given period, sampled by
    /// thinning a Poisson process at the peak rate.
    Diurnal {
        /// Trough arrival rate, requests per second.
        base_rate: f64,
        /// Crest arrival rate, requests per second.
        peak_rate: f64,
        /// Full cycle length (a simulated "day").
        period: Duration,
    },
}

/// Stateful interarrival sampler for one [`ArrivalProcess`].
///
/// Separate from the simulator so the processes can be unit-tested as pure
/// functions of (time, rng).
pub struct Arrivals {
    process: ArrivalProcess,
    /// Bursty only: when the current phase ends (seconds).
    phase_end: f64,
    /// Bursty only: whether the current phase is an on phase.
    in_on: bool,
}

impl Arrivals {
    /// Fresh sampler; bursty processes start at an off→on boundary.
    pub fn new(process: ArrivalProcess) -> Arrivals {
        if let ArrivalProcess::Poisson { rate } = process {
            assert!(rate > 0.0, "Poisson rate must be positive");
        }
        if let ArrivalProcess::Bursty { rate_on, .. } = process {
            assert!(rate_on > 0.0, "burst rate must be positive");
        }
        if let ArrivalProcess::Diurnal {
            base_rate,
            peak_rate,
            ..
        } = process
        {
            assert!(
                peak_rate >= base_rate && peak_rate > 0.0 && base_rate >= 0.0,
                "diurnal rates must satisfy 0 <= base <= peak, peak > 0"
            );
        }
        Arrivals {
            process,
            phase_end: 0.0,
            in_on: false,
        }
    }

    /// Seconds from `now_secs` until the next arrival.
    pub fn next_gap(&mut self, now_secs: f64, rng: &mut Rng) -> f64 {
        match self.process {
            ArrivalProcess::Poisson { rate } => rng.exp(1.0 / rate),
            ArrivalProcess::Bursty {
                rate_on,
                mean_on,
                mean_off,
            } => {
                let mut t = now_secs;
                loop {
                    if self.phase_end <= t {
                        // phase expired: flip and draw the next phase length
                        self.in_on = !self.in_on;
                        let mean = if self.in_on { mean_on } else { mean_off };
                        self.phase_end = t + rng.exp(mean.as_secs_f64());
                    }
                    if !self.in_on {
                        t = self.phase_end;
                        continue;
                    }
                    let candidate = t + rng.exp(1.0 / rate_on);
                    if candidate <= self.phase_end {
                        return candidate - now_secs;
                    }
                    // burst ended before the candidate arrival: skip ahead
                    t = self.phase_end;
                }
            }
            ArrivalProcess::Diurnal {
                base_rate,
                peak_rate,
                period,
            } => {
                // Lewis–Shedler thinning against the peak rate.
                let p = period.as_secs_f64();
                let mut t = now_secs;
                loop {
                    t += rng.exp(1.0 / peak_rate);
                    let phase = std::f64::consts::TAU * t / p;
                    let rate = base_rate + (peak_rate - base_rate) * 0.5 * (1.0 - phase.cos());
                    if rng.chance(rate / peak_rate) {
                        return t - now_secs;
                    }
                }
            }
        }
    }
}

/// One invocation target: a service plus the identity its requests carry.
#[derive(Clone, Debug)]
pub struct ServiceTarget {
    /// Service name (the executable's base name).
    pub service: String,
    /// The authenticating principal the generated requests declare —
    /// normally the service owner's grid user, which is what the fleet
    /// dispatcher's session affinity keys on. `None` opts out.
    pub principal: Option<String>,
}

/// What the generated requests *are*: a probabilistic upload/invoke blend.
#[derive(Clone, Debug)]
pub struct Mix {
    /// Probability that an arrival is a portal upload rather than a
    /// service invocation.
    pub upload_fraction: f64,
    /// Size of workload-generated uploads, bytes.
    pub upload_len: usize,
    /// Execution profile attached to workload-generated uploads.
    pub upload_profile: ExecutionProfile,
    /// Invocation targets, picked uniformly per arrival.
    pub services: Vec<ServiceTarget>,
    /// When set, every drawn invocation carries a synthetic principal
    /// `u{k}` with `k` drawn uniformly from `0..population`, overriding
    /// the target's own principal. This is the million-user shape: the
    /// principal is purely the dispatcher's sticky-routing key (services
    /// authenticate as their owner, not the caller), so a population needs
    /// no per-user grid enrolment.
    pub principal_population: Option<u64>,
}

impl Mix {
    /// Pure invocation traffic against the given services, carrying no
    /// identity.
    pub fn invoke_only(services: &[&str]) -> Mix {
        Mix {
            upload_fraction: 0.0,
            upload_len: 0,
            upload_profile: ExecutionProfile::quick(),
            services: services
                .iter()
                .map(|s| ServiceTarget {
                    service: s.to_string(),
                    principal: None,
                })
                .collect(),
            principal_population: None,
        }
    }

    /// Pure invocation traffic where each `(service, owner)` request
    /// carries the owner as its principal — the multi-tenant shape the
    /// session-affinity bench drives.
    pub fn invoke_as(targets: &[(&str, &str)]) -> Mix {
        Mix {
            upload_fraction: 0.0,
            upload_len: 0,
            upload_profile: ExecutionProfile::quick(),
            services: targets
                .iter()
                .map(|&(s, p)| ServiceTarget {
                    service: s.to_string(),
                    principal: Some(p.to_string()),
                })
                .collect(),
            principal_population: None,
        }
    }

    /// Invocation traffic against `services` where each request carries a
    /// principal drawn uniformly from a synthetic population of
    /// `population` users (`u0` .. `u{population-1}`) — the
    /// million-principal bench shape.
    pub fn invoke_population(services: &[&str], population: u64) -> Mix {
        assert!(population > 0, "population must be positive");
        let mut mix = Mix::invoke_only(services);
        mix.principal_population = Some(population);
        mix
    }

    /// Draw one request. `seq` uniquifies upload file names — replica
    /// databases reject duplicate executables.
    fn draw(&self, seq: u64, rng: &mut Rng) -> Request {
        if self.services.is_empty() || rng.chance(self.upload_fraction) {
            Request::Upload {
                file_name: format!("wl{seq}.exe"),
                payload: synth_executable(self.upload_len),
                profile: self.upload_profile,
            }
        } else {
            let target = rng.choose(&self.services);
            let principal = match self.principal_population {
                Some(population) => Some(format!("u{}", rng.below(population))),
                None => target.principal.clone(),
            };
            Request::Invoke {
                service: target.service.clone(),
                args: Vec::new(),
                principal,
            }
        }
    }
}

/// The `p`th latency percentile (nearest-rank on the index scale) of an
/// ascending sample slice. Hardened: empty input and NaN `p` return 0;
/// `p` outside `[0, 100]` clamps to the nearest end (so `-5` reads the
/// minimum and `250` the maximum rather than indexing out of bounds).
fn percentile_of_sorted(lat: &[f64], p: f64) -> f64 {
    if lat.is_empty() || p.is_nan() {
        return 0.0;
    }
    let p = p.clamp(0.0, 100.0);
    let idx = ((p / 100.0) * (lat.len() - 1) as f64).round() as usize;
    lat[idx.min(lat.len() - 1)]
}

/// Per-tenant slice of a workload's accounting (opt-in via
/// [`WorkloadStats::track_tenants`]).
#[derive(Default)]
struct TenantStats {
    issued: u64,
    completed: u64,
    faulted: u64,
    latencies: Vec<f64>,
}

/// Latency/outcome accounting shared by both loop modes.
#[derive(Default)]
pub struct WorkloadStats {
    issued: Cell<u64>,
    completed: Cell<u64>,
    faulted: Cell<u64>,
    latencies: RefCell<Vec<f64>>,
    /// Prefix of `latencies` known to be sorted; percentile queries only
    /// re-sort when observations arrived since the last query.
    sorted_len: Cell<usize>,
    /// When set, requests carrying a principal also land in `by_tenant`.
    /// Off by default: the million-principal bench must not pay a
    /// `String` clone plus map entry per request.
    tenants_on: Cell<bool>,
    by_tenant: RefCell<std::collections::BTreeMap<String, TenantStats>>,
}

impl WorkloadStats {
    /// Requests submitted so far.
    pub fn issued(&self) -> u64 {
        self.issued.get()
    }

    /// Requests answered successfully.
    pub fn completed(&self) -> u64 {
        self.completed.get()
    }

    /// Requests answered with a SOAP fault (including shed requests).
    pub fn faulted(&self) -> u64 {
        self.faulted.get()
    }

    /// Completion throughput over `horizon`, requests/second.
    pub fn throughput(&self, horizon: Duration) -> f64 {
        self.completed.get() as f64 / horizon.as_secs_f64()
    }

    /// Latency percentile (successes only); `p` clamps to `[0, 100]` and
    /// an empty sample set reads 0. Amortized: the sample vector is
    /// sorted in place at most once per batch of new observations, so
    /// pollers (the autoscaler, sweep reporters) don't pay a full sort
    /// per query. The memo is sound because `record` only ever appends:
    /// a new observation makes `len` exceed `sorted_len`, which forces
    /// the re-sort on the next query — there is no interior mutation
    /// that could leave a stale full-length memo.
    pub fn latency_percentile(&self, p: f64) -> f64 {
        let mut lat = self.latencies.borrow_mut();
        if self.sorted_len.get() < lat.len() {
            lat.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
            self.sorted_len.set(lat.len());
        }
        debug_assert!(lat.windows(2).all(|w| w[0] <= w[1]), "memo served unsorted data");
        percentile_of_sorted(&lat, p)
    }

    /// Start keeping per-tenant issued/completed/faulted/latency slices
    /// for requests that carry a principal. Call before the run starts;
    /// off by default (per-request cost at million-principal scale).
    pub fn track_tenants(&self) {
        self.tenants_on.set(true);
    }

    /// Tenants seen since [`WorkloadStats::track_tenants`], sorted.
    pub fn tenants(&self) -> Vec<String> {
        self.by_tenant.borrow().keys().cloned().collect()
    }

    /// `(issued, completed, faulted)` for one tenant; zeros when unseen.
    pub fn tenant_counts(&self, tenant: &str) -> (u64, u64, u64) {
        self.by_tenant
            .borrow()
            .get(tenant)
            .map_or((0, 0, 0), |t| (t.issued, t.completed, t.faulted))
    }

    /// One tenant's latency percentile (successes only), hardened the
    /// same way as [`WorkloadStats::latency_percentile`].
    pub fn tenant_latency_percentile(&self, tenant: &str, p: f64) -> f64 {
        let mut map = self.by_tenant.borrow_mut();
        let Some(t) = map.get_mut(tenant) else {
            return 0.0;
        };
        t.latencies
            .sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        percentile_of_sorted(&t.latencies, p)
    }

    /// Mean latency of successful requests, seconds; 0 when nothing
    /// completed.
    pub fn latency_mean(&self) -> f64 {
        let lat = self.latencies.borrow();
        if lat.is_empty() {
            return 0.0;
        }
        lat.iter().sum::<f64>() / lat.len() as f64
    }

    /// The tenant key for `req`, but only when tenant tracking is on —
    /// the clone is the per-request cost the flag exists to gate.
    fn tenant_of(&self, req: &Request) -> Option<String> {
        if !self.tenants_on.get() {
            return None;
        }
        match req {
            Request::Invoke {
                principal: Some(p), ..
            } => Some(p.clone()),
            _ => None,
        }
    }

    /// One request drawn for `tenant` (tracking on only).
    fn note_issued(&self, tenant: &str) {
        let mut map = self.by_tenant.borrow_mut();
        map.entry(tenant.to_owned()).or_default().issued += 1;
    }

    fn record(
        &self,
        issued_at: SimTime,
        now: SimTime,
        res: &Result<SoapValue, SoapFault>,
        tenant: Option<&str>,
    ) {
        let tenant = tenant.filter(|_| self.tenants_on.get());
        match res {
            Ok(_) => {
                self.completed.set(self.completed.get() + 1);
                let secs = (now - issued_at).as_secs_f64();
                self.latencies.borrow_mut().push(secs);
                if let Some(t) = tenant {
                    let mut map = self.by_tenant.borrow_mut();
                    let ts = map.entry(t.to_owned()).or_default();
                    ts.completed += 1;
                    ts.latencies.push(secs);
                }
            }
            Err(_) => {
                self.faulted.set(self.faulted.get() + 1);
                if let Some(t) = tenant {
                    self.by_tenant.borrow_mut().entry(t.to_owned()).or_default().faulted += 1;
                }
            }
        }
    }
}

struct GenState {
    arrivals: Arrivals,
    mix: Mix,
    rng: Rng,
    seq: u64,
}

/// Start an open-loop generator: arrivals per `process` until `until`
/// (virtual time), each submitted through `sink` regardless of how many
/// are still outstanding. Returns the stats handle to read after the run.
pub fn start_open_loop(
    sim: &mut Sim,
    process: ArrivalProcess,
    mix: Mix,
    sink: Rc<SubmitFn>,
    until: SimTime,
) -> Rc<WorkloadStats> {
    let stats = Rc::new(WorkloadStats::default());
    let state = Rc::new(RefCell::new(GenState {
        arrivals: Arrivals::new(process),
        mix,
        rng: sim.rng().fork(),
        seq: 0,
    }));
    schedule_arrival(sim, state, sink, Rc::clone(&stats), until);
    stats
}

fn schedule_arrival(
    sim: &mut Sim,
    state: Rc<RefCell<GenState>>,
    sink: Rc<SubmitFn>,
    stats: Rc<WorkloadStats>,
    until: SimTime,
) {
    let gap = {
        let now = sim.now().as_secs_f64();
        let st = &mut *state.borrow_mut();
        Duration::from_secs_f64(st.arrivals.next_gap(now, &mut st.rng))
    };
    if sim.now() + gap > until {
        return;
    }
    sim.schedule(gap, move |sim| {
        let req = {
            let st = &mut *state.borrow_mut();
            st.seq += 1;
            st.mix.draw(st.seq, &mut st.rng)
        };
        stats.issued.set(stats.issued.get() + 1);
        let tenant = stats.tenant_of(&req);
        if let Some(t) = &tenant {
            stats.note_issued(t);
        }
        let issued_at = sim.now();
        let s2 = Rc::clone(&stats);
        sink(
            sim,
            req,
            Box::new(move |sim, res| s2.record(issued_at, sim.now(), &res, tenant.as_deref())),
        );
        schedule_arrival(sim, state, sink, stats, until);
    });
}

/// Start a closed-loop population: `users` independent users, each cycling
/// think (exponential, mean `think_mean`) → request → wait-for-response,
/// until `until`. The population self-throttles: a slow fleet is hit by at
/// most `users` concurrent requests.
pub fn start_closed_loop(
    sim: &mut Sim,
    users: usize,
    think_mean: Duration,
    mix: Mix,
    sink: Rc<SubmitFn>,
    until: SimTime,
) -> Rc<WorkloadStats> {
    let stats = Rc::new(WorkloadStats::default());
    let state = Rc::new(RefCell::new(GenState {
        // arrivals unused in closed loop; any process works as a placeholder
        arrivals: Arrivals::new(ArrivalProcess::Poisson { rate: 1.0 }),
        mix,
        rng: sim.rng().fork(),
        seq: 0,
    }));
    for _ in 0..users {
        user_cycle(
            sim,
            Rc::clone(&state),
            Rc::clone(&sink),
            Rc::clone(&stats),
            think_mean,
            until,
        );
    }
    stats
}

fn user_cycle(
    sim: &mut Sim,
    state: Rc<RefCell<GenState>>,
    sink: Rc<SubmitFn>,
    stats: Rc<WorkloadStats>,
    think_mean: Duration,
    until: SimTime,
) {
    let think = {
        let st = &mut *state.borrow_mut();
        Duration::from_secs_f64(st.rng.exp(think_mean.as_secs_f64()))
    };
    if sim.now() + think > until {
        return;
    }
    sim.schedule(think, move |sim| {
        let req = {
            let st = &mut *state.borrow_mut();
            st.seq += 1;
            st.mix.draw(st.seq, &mut st.rng)
        };
        stats.issued.set(stats.issued.get() + 1);
        let tenant = stats.tenant_of(&req);
        if let Some(t) = &tenant {
            stats.note_issued(t);
        }
        let issued_at = sim.now();
        let s2 = Rc::clone(&stats);
        let submit = Rc::clone(&sink);
        submit(
            sim,
            req,
            Box::new(move |sim, res| {
                s2.record(issued_at, sim.now(), &res, tenant.as_deref());
                user_cycle(sim, state, sink, Rc::clone(&s2), think_mean, until);
            }),
        );
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count_arrivals(process: ArrivalProcess, horizon_s: f64, seed: u64) -> Vec<f64> {
        let mut rng = Rng::new(seed);
        let mut a = Arrivals::new(process);
        let mut t = 0.0;
        let mut out = Vec::new();
        loop {
            t += a.next_gap(t, &mut rng);
            if t > horizon_s {
                return out;
            }
            out.push(t);
        }
    }

    #[test]
    fn poisson_rate_is_close() {
        let n = count_arrivals(ArrivalProcess::Poisson { rate: 5.0 }, 2000.0, 1).len();
        let rate = n as f64 / 2000.0;
        assert!((rate - 5.0).abs() < 0.3, "rate={rate}");
    }

    #[test]
    fn arrivals_are_deterministic_per_seed() {
        let p = ArrivalProcess::Bursty {
            rate_on: 10.0,
            mean_on: Duration::from_secs(5),
            mean_off: Duration::from_secs(15),
        };
        assert_eq!(count_arrivals(p, 500.0, 9), count_arrivals(p, 500.0, 9));
        assert_ne!(count_arrivals(p, 500.0, 9), count_arrivals(p, 500.0, 10));
    }

    #[test]
    fn bursty_mean_rate_reflects_duty_cycle() {
        // 5 s on at 10/s, 15 s off → long-run mean 2.5/s
        let n = count_arrivals(
            ArrivalProcess::Bursty {
                rate_on: 10.0,
                mean_on: Duration::from_secs(5),
                mean_off: Duration::from_secs(15),
            },
            4000.0,
            2,
        )
        .len();
        let rate = n as f64 / 4000.0;
        assert!((rate - 2.5).abs() < 0.4, "rate={rate}");
    }

    #[test]
    fn bursty_has_long_silences() {
        let times = count_arrivals(
            ArrivalProcess::Bursty {
                rate_on: 10.0,
                mean_on: Duration::from_secs(5),
                mean_off: Duration::from_secs(15),
            },
            1000.0,
            3,
        );
        let max_gap = times
            .windows(2)
            .map(|w| w[1] - w[0])
            .fold(0.0f64, f64::max);
        // a pure Poisson at the same mean rate would essentially never show
        // a 10 s gap; the off phases guarantee them
        assert!(max_gap > 8.0, "max_gap={max_gap}");
    }

    #[test]
    fn diurnal_peak_outweighs_trough() {
        let period = Duration::from_secs(1000);
        let times = count_arrivals(
            ArrivalProcess::Diurnal {
                base_rate: 0.5,
                peak_rate: 8.0,
                period,
            },
            10_000.0,
            4,
        );
        // crest is mid-period (t=500 mod 1000), trough at t=0 mod 1000
        let crest = times
            .iter()
            .filter(|t| (0.4..0.6).contains(&((*t % 1000.0) / 1000.0)))
            .count();
        let trough = times
            .iter()
            .filter(|t| {
                let frac = (*t % 1000.0) / 1000.0;
                !(0.1..0.9).contains(&frac)
            })
            .count();
        assert!(
            crest as f64 > 3.0 * trough as f64,
            "crest={crest} trough={trough}"
        );
    }

    #[test]
    fn open_loop_offers_load_regardless_of_completion() {
        // a sink that never answers: open loop must keep issuing anyway
        let mut sim = Sim::new(11);
        let sink: Rc<SubmitFn> = Rc::new(|_sim, _req, _done| {});
        let stats = start_open_loop(
            &mut sim,
            ArrivalProcess::Poisson { rate: 2.0 },
            Mix::invoke_only(&["svc"]),
            sink,
            SimTime::from_secs(100),
        );
        sim.run();
        assert!(stats.issued() > 150, "issued={}", stats.issued());
        assert_eq!(stats.completed(), 0);
    }

    #[test]
    fn closed_loop_self_throttles_to_population_size() {
        // a sink that answers after 10 s: N users → at most N outstanding,
        // so issues ≈ users × horizon / (think + service)
        let mut sim = Sim::new(12);
        let outstanding = Rc::new(Cell::new(0usize));
        let peak = Rc::new(Cell::new(0usize));
        let (o2, p2) = (outstanding.clone(), peak.clone());
        let sink: Rc<SubmitFn> = Rc::new(move |sim, _req, done| {
            o2.set(o2.get() + 1);
            p2.set(p2.get().max(o2.get()));
            let o3 = o2.clone();
            sim.schedule(Duration::from_secs(10), move |sim| {
                o3.set(o3.get() - 1);
                done(sim, Ok(SoapValue::Bool(true)));
            });
        });
        let stats = start_closed_loop(
            &mut sim,
            4,
            Duration::from_secs(5),
            Mix::invoke_only(&["svc"]),
            sink,
            SimTime::from_secs(300),
        );
        sim.run();
        assert!(peak.get() <= 4, "peak={}", peak.get());
        assert!(stats.completed() >= 40, "completed={}", stats.completed());
        // ≈ 4 users × 300 s / 15 s = 80 cycles
        assert!(stats.issued() <= 100, "issued={}", stats.issued());
    }

    #[test]
    fn mix_emits_unique_upload_names() {
        let mut rng = Rng::new(5);
        let mix = Mix {
            upload_fraction: 1.0,
            upload_len: 64,
            upload_profile: ExecutionProfile::quick(),
            services: vec![ServiceTarget {
                service: "svc".into(),
                principal: None,
            }],
            principal_population: None,
        };
        let mut names = std::collections::BTreeSet::new();
        for seq in 0..50 {
            match mix.draw(seq, &mut rng) {
                Request::Upload { file_name, .. } => assert!(names.insert(file_name)),
                Request::Invoke { .. } => panic!("upload_fraction=1 must upload"),
            }
        }
    }

    #[test]
    fn stats_percentiles_are_order_statistics() {
        let stats = WorkloadStats::default();
        for ms in [10u64, 20, 30, 40, 1000] {
            stats.record(
                SimTime::ZERO,
                SimTime::ZERO + Duration::from_millis(ms),
                &Ok(SoapValue::Bool(true)),
                None,
            );
        }
        stats.record(SimTime::ZERO, SimTime::ZERO, &Err(SoapFault::server("x")), None);
        assert_eq!(stats.completed(), 5);
        assert_eq!(stats.faulted(), 1);
        assert!((stats.latency_percentile(50.0) - 0.03).abs() < 1e-9);
        assert!((stats.latency_percentile(100.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn stats_percentiles_stay_correct_when_queries_interleave_records() {
        // the sort memo must invalidate on every new observation, even
        // when a poller queries between records (the autoscaler pattern)
        let stats = WorkloadStats::default();
        let mut max_s = 0.0f64;
        for ms in [500u64, 100, 900, 300, 700, 200, 800, 400, 600, 1000] {
            stats.record(
                SimTime::ZERO,
                SimTime::ZERO + Duration::from_millis(ms),
                &Ok(SoapValue::Bool(true)),
                None,
            );
            max_s = max_s.max(ms as f64 / 1e3);
            // query after every record: each answer must be the true max
            assert!((stats.latency_percentile(100.0) - max_s).abs() < 1e-9);
        }
        assert!((stats.latency_percentile(0.0) - 0.1).abs() < 1e-9);
        // 10 samples: index round(0.5 * 9) = 5 → the 0.6 s observation
        assert!((stats.latency_percentile(50.0) - 0.6).abs() < 1e-9);
        assert!((stats.latency_mean() - 0.55).abs() < 1e-9);
    }

    #[test]
    fn percentile_edge_cases_are_hardened() {
        let stats = WorkloadStats::default();
        // empty sample set: every p reads 0, including weird ones
        for p in [0.0, 50.0, 100.0, -3.0, 400.0, f64::NAN] {
            assert_eq!(stats.latency_percentile(p), 0.0);
        }
        for ms in [30u64, 10, 20] {
            stats.record(
                SimTime::ZERO,
                SimTime::ZERO + Duration::from_millis(ms),
                &Ok(SoapValue::Bool(true)),
                None,
            );
        }
        // p=0 is the min, p=100 the max
        assert!((stats.latency_percentile(0.0) - 0.01).abs() < 1e-9);
        assert!((stats.latency_percentile(100.0) - 0.03).abs() < 1e-9);
        // out-of-range p clamps to the ends instead of indexing wild
        assert!((stats.latency_percentile(-50.0) - 0.01).abs() < 1e-9);
        assert!((stats.latency_percentile(1e6) - 0.03).abs() < 1e-9);
        // NaN p can't pick an index: defined as 0
        assert_eq!(stats.latency_percentile(f64::NAN), 0.0);
    }

    #[test]
    fn tenant_tracking_is_opt_in_and_conserves() {
        let off = WorkloadStats::default();
        off.record(
            SimTime::ZERO,
            SimTime::ZERO + Duration::from_millis(5),
            &Ok(SoapValue::Bool(true)),
            Some("alice"),
        );
        assert!(off.tenants().is_empty(), "tracking off: no per-tenant state");

        let on = WorkloadStats::default();
        on.track_tenants();
        on.note_issued("alice");
        on.note_issued("alice");
        on.note_issued("bob");
        on.record(
            SimTime::ZERO,
            SimTime::ZERO + Duration::from_millis(10),
            &Ok(SoapValue::Bool(true)),
            Some("alice"),
        );
        on.record(
            SimTime::ZERO,
            SimTime::ZERO,
            &Err(SoapFault::server("x")),
            Some("alice"),
        );
        on.record(
            SimTime::ZERO,
            SimTime::ZERO + Duration::from_millis(30),
            &Ok(SoapValue::Bool(true)),
            Some("bob"),
        );
        assert_eq!(on.tenants(), vec!["alice".to_owned(), "bob".to_owned()]);
        assert_eq!(on.tenant_counts("alice"), (2, 1, 1));
        assert_eq!(on.tenant_counts("bob"), (1, 1, 0));
        assert_eq!(on.tenant_counts("unseen"), (0, 0, 0));
        assert!((on.tenant_latency_percentile("alice", 99.0) - 0.01).abs() < 1e-9);
        assert!((on.tenant_latency_percentile("bob", 50.0) - 0.03).abs() < 1e-9);
        assert_eq!(on.tenant_latency_percentile("unseen", 99.0), 0.0);
    }

    #[test]
    fn open_loop_tenant_slices_sum_to_the_totals() {
        let mut sim = Sim::new(13);
        let sink: Rc<SubmitFn> = Rc::new(|sim, _req, done| {
            sim.schedule(Duration::from_millis(20), move |sim| {
                done(sim, Ok(SoapValue::Bool(true)));
            });
        });
        let stats = Rc::new(WorkloadStats::default());
        stats.track_tenants();
        // start_open_loop builds its own stats handle, so drive the same
        // path by hand: draw → note_issued → record, as the generator does
        let mix = Mix::invoke_as(&[("app0", "user0"), ("app1", "user1")]);
        let mut rng = Rng::new(13);
        for seq in 0..40 {
            let req = mix.draw(seq, &mut rng);
            stats.issued.set(stats.issued.get() + 1);
            let tenant = stats.tenant_of(&req);
            if let Some(t) = &tenant {
                stats.note_issued(t);
            }
            let issued_at = sim.now();
            let s2 = Rc::clone(&stats);
            sink(
                &mut sim,
                req,
                Box::new(move |sim, res| s2.record(issued_at, sim.now(), &res, tenant.as_deref())),
            );
        }
        sim.run();
        let tenants = stats.tenants();
        assert_eq!(tenants, vec!["user0".to_owned(), "user1".to_owned()]);
        let (mut issued, mut completed) = (0, 0);
        for t in &tenants {
            let (i, c, f) = stats.tenant_counts(t);
            assert_eq!(f, 0);
            issued += i;
            completed += c;
        }
        assert_eq!(issued, stats.issued());
        assert_eq!(completed, stats.completed());
    }

    #[test]
    fn invoke_as_requests_carry_their_owner_as_principal() {
        let mut rng = Rng::new(7);
        let mix = Mix::invoke_as(&[("app0", "user0"), ("app1", "user1")]);
        for seq in 0..20 {
            match mix.draw(seq, &mut rng) {
                Request::Invoke {
                    service, principal, ..
                } => {
                    let expect = service.replace("app", "user");
                    assert_eq!(principal.as_deref(), Some(expect.as_str()));
                }
                Request::Upload { .. } => panic!("invoke_as never uploads"),
            }
        }
    }
}
