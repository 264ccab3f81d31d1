//! The gatekeeper: the rigid submission interface of a production Grid.
//!
//! This is the JSE model's front door (the paper's "K-GRAM"): a client
//! presents a proxy credential and an RSL job description; the gatekeeper
//! authenticates, authorizes against the grid-map, validates the request
//! against queue limits and staged files, and hands the job to the batch
//! scheduler. Job state can be polled and jobs cancelled — and nothing
//! else: no service deployment, no virtual machines, exactly the
//! restrictions (§II-C) that motivate onServe's access-layer translation.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use simkit::{Duration, Host, Sim, SimTime};

use crate::error::GridError;
use crate::rsl::JobDescription;
use crate::scheduler::{ClusterScheduler, SchedJobId, SchedRequest};
use crate::security::{CertAuthority, ProxyCert};
use crate::site::StorageService;

pub use crate::scheduler::JobOutcome;

/// Maximum proxy delegation depth a gatekeeper accepts.
pub const MAX_PROXY_DEPTH: usize = 8;

/// Reference to a submitted job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobHandle {
    /// Site that accepted the job.
    pub site: String,
    /// Gatekeeper-local job number.
    pub job: u64,
    /// Logical name under which the job's output will appear in site
    /// storage.
    pub output_file: String,
}

/// Observable job state (GRAM's PENDING/ACTIVE/DONE collapsed to what the
/// simulation distinguishes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the batch queue.
    Pending,
    /// Executing on allocated cores.
    Active,
    /// Left the system with the given outcome.
    Done(JobOutcome),
}

/// Simulation-side truth about the job's execution (what the real Grid
/// would discover by running the binary).
#[derive(Clone, Copy, Debug)]
pub struct ExecutionModel {
    /// True runtime on the allocated cores.
    pub actual_runtime: Duration,
    /// Bytes of output the job writes on completion.
    pub output_bytes: f64,
}

/// A grid-map entry: the local account plus an optional service-unit
/// allocation (TeraGrid-style: one SU ≈ one core-hour).
struct Account {
    local_user: String,
    /// `None` = unmetered access; `Some` = charged against a budget.
    allocation: Option<Allocation>,
}

/// A service-unit budget.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Allocation {
    /// Core-hours granted.
    pub granted_core_hours: f64,
    /// Core-hours consumed so far (completed + walltime-killed jobs).
    pub used_core_hours: f64,
}

impl Allocation {
    /// Remaining budget.
    pub fn remaining(&self) -> f64 {
        self.granted_core_hours - self.used_core_hours
    }
}

struct JobRecord {
    sched_id: SchedJobId,
    state: JobState,
    exec: ExecutionModel,
    owner_dn: String,
    cores: u32,
    walltime_limit: Duration,
    /// Telemetry span covering the job from acceptance to terminal state.
    span: simkit::SpanId,
}

/// The per-site gatekeeper.
pub struct Gatekeeper {
    site: String,
    trust: Rc<RefCell<CertAuthority>>,
    scheduler: Rc<RefCell<ClusterScheduler>>,
    storage: Rc<RefCell<StorageService>>,
    host: Rc<Host>,
    max_walltime: Duration,
    gridmap: HashMap<String, Account>,
    jobs: HashMap<u64, JobRecord>,
    next_job: u64,
    accepting: bool,
    /// Running totals for the site report.
    submitted: u64,
    rejected: u64,
}

impl Gatekeeper {
    /// Wire up a gatekeeper for one site.
    pub fn new(
        site: &str,
        trust: Rc<RefCell<CertAuthority>>,
        scheduler: Rc<RefCell<ClusterScheduler>>,
        storage: Rc<RefCell<StorageService>>,
        host: Rc<Host>,
        max_walltime: Duration,
    ) -> Rc<RefCell<Gatekeeper>> {
        Rc::new(RefCell::new(Gatekeeper {
            site: site.to_owned(),
            trust,
            scheduler,
            storage,
            host,
            max_walltime,
            gridmap: HashMap::new(),
            jobs: HashMap::new(),
            next_job: 1,
            accepting: true,
            submitted: 0,
            rejected: 0,
        }))
    }

    /// Authorize a distinguished name as `local_user` with unmetered use.
    pub fn grant(&mut self, dn: &str, local_user: &str) {
        self.gridmap.insert(
            dn.to_owned(),
            Account {
                local_user: local_user.to_owned(),
                allocation: None,
            },
        );
    }

    /// Authorize a DN with a TeraGrid-style service-unit allocation; jobs
    /// are charged `cores × hours` on completion, and submissions are
    /// rejected once the projected charge would exceed the remainder.
    pub fn grant_with_allocation(&mut self, dn: &str, local_user: &str, core_hours: f64) {
        self.gridmap.insert(
            dn.to_owned(),
            Account {
                local_user: local_user.to_owned(),
                allocation: Some(Allocation {
                    granted_core_hours: core_hours,
                    used_core_hours: 0.0,
                }),
            },
        );
    }

    /// Current allocation state for a DN (`None` when unmetered/unknown).
    pub fn allocation(&self, dn: &str) -> Option<Allocation> {
        self.gridmap.get(dn).and_then(|a| a.allocation)
    }

    /// Per-DN usage report (only metered accounts), sorted by DN.
    pub fn usage_report(&self) -> Vec<(String, Allocation)> {
        let mut v: Vec<(String, Allocation)> = self
            .gridmap
            .iter()
            .filter_map(|(dn, a)| a.allocation.map(|al| (dn.clone(), al)))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Drain/outage switch: a non-accepting gatekeeper rejects submissions
    /// with [`GridError::Unavailable`].
    pub fn set_accepting(&mut self, accepting: bool) {
        self.accepting = accepting;
    }

    /// `(submitted, rejected)` request counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.submitted, self.rejected)
    }

    /// Validate and enqueue a job. Synchronous decision (the WAN cost of
    /// carrying the request belongs to the caller); asynchronous execution.
    pub fn submit(
        this: &Rc<RefCell<Self>>,
        sim: &mut Sim,
        proxy: &ProxyCert,
        rsl_text: &str,
        exec: ExecutionModel,
    ) -> Result<JobHandle, GridError> {
        let now = sim.now();
        let span = sim.span_begin("gram.job");
        let (jd, job_no, output_file) = {
            let mut gk = this.borrow_mut();
            match gk.validate(proxy, rsl_text, now) {
                Ok(jd) => {
                    gk.submitted += 1;
                    let job_no = gk.next_job;
                    gk.next_job += 1;
                    let output_file = jd
                        .stdout
                        .clone()
                        .unwrap_or_else(|| format!("job{job_no}.out"));
                    (jd, job_no, output_file)
                }
                Err(e) => {
                    gk.rejected += 1;
                    drop(gk);
                    sim.counter_add("gram.rejected", 1);
                    sim.span_fail(span, &e.to_string());
                    return Err(e);
                }
            }
        };
        sim.counter_add("gram.submitted", 1);
        sim.span_attr(span, "site", this.borrow().site.as_str());
        sim.span_attr(span, "job", job_no);
        sim.span_attr(span, "cores", jd.count);
        let req = SchedRequest {
            cores: jd.count,
            walltime_limit: jd.max_wall_time,
            actual_runtime: exec.actual_runtime,
        };
        let this2 = Rc::clone(this);
        let out_name = output_file.clone();
        let sched = Rc::clone(&this.borrow().scheduler);
        let sched_id = ClusterScheduler::submit(&sched, sim, req, move |sim, outcome| {
            Self::on_job_finished(&this2, sim, job_no, outcome, &out_name, exec.output_bytes);
        });
        this.borrow_mut().jobs.insert(
            job_no,
            JobRecord {
                sched_id,
                state: JobState::Pending,
                exec,
                owner_dn: proxy.identity().to_owned(),
                cores: jd.count,
                walltime_limit: jd.max_wall_time,
                span,
            },
        );
        Ok(JobHandle {
            site: this.borrow().site.clone(),
            job: job_no,
            output_file,
        })
    }

    fn validate(
        &self,
        proxy: &ProxyCert,
        rsl_text: &str,
        now: SimTime,
    ) -> Result<JobDescription, GridError> {
        if !self.accepting {
            return Err(GridError::Unavailable(self.site.clone()));
        }
        proxy.validate(&self.trust.borrow(), now, MAX_PROXY_DEPTH)?;
        let account = self.gridmap.get(proxy.identity()).ok_or_else(|| {
            GridError::Rejected(format!("{} not in grid-map", proxy.identity()))
        })?;
        let _ = &account.local_user;
        let jd = JobDescription::parse(rsl_text).map_err(GridError::BadRsl)?;
        if let Some(alloc) = account.allocation {
            // admission control on the *requested* budget: the walltime
            // limit bounds the worst-case charge
            let projected =
                jd.count as f64 * jd.max_wall_time.as_secs_f64() / 3600.0;
            if projected > alloc.remaining() {
                return Err(GridError::Rejected(format!(
                    "allocation exhausted: {:.1} SU left, job could use {:.1}",
                    alloc.remaining(),
                    projected
                )));
            }
        }
        if let Some(q) = &jd.queue {
            if q != "normal" {
                return Err(GridError::Rejected(format!("unknown queue {q}")));
            }
        }
        if jd.count > self.scheduler.borrow().total_cores() {
            return Err(GridError::Rejected(format!(
                "{} cores exceed machine size",
                jd.count
            )));
        }
        if jd.max_wall_time > self.max_walltime {
            return Err(GridError::Rejected("walltime over queue limit".into()));
        }
        let storage = self.storage.borrow();
        if !storage.has(&jd.executable) {
            return Err(GridError::MissingFile(jd.executable.clone()));
        }
        for f in &jd.stage_in {
            if !storage.has(f) {
                return Err(GridError::MissingFile(f.clone()));
            }
        }
        Ok(jd)
    }

    fn on_job_finished(
        this: &Rc<RefCell<Self>>,
        sim: &mut Sim,
        job_no: u64,
        outcome: JobOutcome,
        output_file: &str,
        output_bytes: f64,
    ) {
        if outcome == JobOutcome::Completed && output_bytes > 0.0 {
            // Model the output landing on the site filesystem before the
            // state flips to Done — a poller can only fetch what exists.
            let this2 = Rc::clone(this);
            let host = Rc::clone(&this.borrow().host);
            let name = output_file.to_owned();
            host.write_disk(sim, output_bytes, move |sim| {
                let storage = Rc::clone(&this2.borrow().storage);
                let _ = storage.borrow_mut().put(&name, output_bytes);
                Self::set_state(&this2, sim, job_no, JobState::Done(outcome));
            });
        } else {
            Self::set_state(this, sim, job_no, JobState::Done(outcome));
        }
    }

    fn set_state(this: &Rc<RefCell<Self>>, sim: &mut Sim, job_no: u64, state: JobState) {
        let mut span_to_close = None;
        {
            let mut gk = this.borrow_mut();
            let billing = match gk.jobs.get_mut(&job_no) {
                None => return,
                Some(rec) => {
                    let first_final = !matches!(rec.state, JobState::Done(_));
                    rec.state = state;
                    if first_final {
                        span_to_close = Some(rec.span);
                    }
                    // charge once, on the job's first terminal state;
                    // failures and cancellations are refunded (TeraGrid
                    // policy)
                    let billed_secs = match state {
                        JobState::Done(JobOutcome::Completed) => {
                            rec.exec.actual_runtime.as_secs_f64()
                        }
                        JobState::Done(JobOutcome::WalltimeExceeded) => {
                            rec.walltime_limit.as_secs_f64()
                        }
                        _ => 0.0,
                    };
                    if first_final && billed_secs > 0.0 {
                        Some((
                            rec.owner_dn.clone(),
                            rec.cores as f64 * billed_secs / 3600.0,
                        ))
                    } else {
                        None
                    }
                }
            };
            if let Some((dn, charge)) = billing {
                if let Some(Account {
                    allocation: Some(alloc),
                    ..
                }) = gk.gridmap.get_mut(&dn)
                {
                    alloc.used_core_hours += charge;
                }
            }
        }
        if let (Some(span), JobState::Done(outcome)) = (span_to_close, state) {
            sim.span_attr(span, "outcome", outcome.name());
            match outcome {
                JobOutcome::Completed => sim.span_end(span),
                other => sim.span_fail(span, other.name()),
            }
        }
    }

    /// Poll a job's state.
    pub fn poll(&self, job_no: u64) -> Result<JobState, GridError> {
        let rec = self.jobs.get(&job_no).ok_or(GridError::NoSuchJob(job_no))?;
        match rec.state {
            JobState::Done(_) => Ok(rec.state),
            _ => {
                if self.scheduler.borrow().is_running(rec.sched_id) {
                    Ok(JobState::Active)
                } else {
                    Ok(JobState::Pending)
                }
            }
        }
    }

    /// Bytes of stdout the job has produced by `now`: jobs spool output at
    /// a constant rate over their runtime, so a *tentative* output request
    /// (the paper's workaround for the missing status interface) sees a
    /// growing partial file while the job runs and the full file once the
    /// output lands in storage. `None` while the job is still queued.
    pub fn stdout_snapshot(&self, job_no: u64, now: SimTime) -> Result<Option<f64>, GridError> {
        let rec = self.jobs.get(&job_no).ok_or(GridError::NoSuchJob(job_no))?;
        match rec.state {
            JobState::Done(JobOutcome::Completed) => Ok(Some(rec.exec.output_bytes)),
            JobState::Done(_) => Ok(None),
            _ => match self.scheduler.borrow().running_since(rec.sched_id) {
                None => Ok(None),
                Some(start) => {
                    let run = rec.exec.actual_runtime.as_secs_f64();
                    let progress = if run <= 0.0 {
                        1.0
                    } else {
                        ((now - start).as_secs_f64() / run).clamp(0.0, 1.0)
                    };
                    Ok(Some(rec.exec.output_bytes * progress))
                }
            },
        }
    }

    /// Cancel a job; the state becomes `Done(Cancelled)` once the scheduler
    /// confirms.
    pub fn cancel(this: &Rc<RefCell<Self>>, sim: &mut Sim, job_no: u64) -> Result<(), GridError> {
        Self::end_job(this, sim, job_no, ClusterScheduler::cancel)
    }

    /// Crash-kill a job (a VM hosting it died): the state becomes
    /// `Done(NodeFailure)` once the scheduler confirms, and the charge is
    /// refunded like any other failure.
    pub fn kill(this: &Rc<RefCell<Self>>, sim: &mut Sim, job_no: u64) -> Result<(), GridError> {
        Self::end_job(this, sim, job_no, ClusterScheduler::kill)
    }

    /// Hand job `job_no` to one of the scheduler's two early exits.
    fn end_job(
        this: &Rc<RefCell<Self>>,
        sim: &mut Sim,
        job_no: u64,
        exit: fn(&Rc<RefCell<ClusterScheduler>>, &mut Sim, SchedJobId) -> bool,
    ) -> Result<(), GridError> {
        let (sched, sched_id) = {
            let gk = this.borrow();
            let job = gk.jobs.get(&job_no).ok_or(GridError::NoSuchJob(job_no))?;
            (Rc::clone(&gk.scheduler), job.sched_id)
        };
        exit(&sched, sim, sched_id);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::security::Credential;
    use crate::site::{GridSite, SiteSpec};
    use simkit::MB;

    fn setup(sim: &mut Sim) -> (Rc<GridSite>, Credential, Rc<RefCell<CertAuthority>>) {
        let ca = Rc::new(RefCell::new(CertAuthority::new("/CN=GridCA", 5)));
        let cred = ca
            .borrow_mut()
            .issue("/CN=alice", SimTime::ZERO, Duration::from_secs(86400));
        let site = GridSite::new(
            SiteSpec::teragrid_like("tg1", 4, 8),
            "appliance",
            Rc::clone(&ca),
        );
        site.gatekeeper().borrow_mut().grant("/CN=alice", "alice");
        site.storage().borrow_mut().put("app.exe", MB).unwrap();
        let _ = sim;
        (site, cred, ca)
    }

    fn exec(runtime_s: u64, out_bytes: f64) -> ExecutionModel {
        ExecutionModel {
            actual_runtime: Duration::from_secs(runtime_s),
            output_bytes: out_bytes,
        }
    }

    fn rsl(extra: &str) -> String {
        format!("&(executable=app.exe)(maxWallTime=60){extra}")
    }

    #[test]
    fn accepted_job_runs_to_done_with_output() {
        let mut sim = Sim::new(0);
        let (site, cred, _ca) = setup(&mut sim);
        let gk = site.gatekeeper();
        let h = Gatekeeper::submit(
            gk,
            &mut sim,
            &cred.proxy(),
            &rsl(""),
            exec(30, 2048.0),
        )
        .unwrap();
        assert_eq!(h.site, "tg1");
        assert_eq!(gk.borrow().poll(h.job).unwrap(), JobState::Active);
        sim.run();
        assert_eq!(
            gk.borrow().poll(h.job).unwrap(),
            JobState::Done(JobOutcome::Completed)
        );
        assert!(site.storage().borrow().has(&h.output_file));
    }

    #[test]
    fn missing_executable_rejected() {
        let mut sim = Sim::new(0);
        let (site, cred, _ca) = setup(&mut sim);
        let err = Gatekeeper::submit(
            site.gatekeeper(),
            &mut sim,
            &cred.proxy(),
            "&(executable=ghost.exe)(maxWallTime=10)",
            exec(1, 0.0),
        )
        .unwrap_err();
        assert_eq!(err, GridError::MissingFile("ghost.exe".into()));
        assert_eq!(site.gatekeeper().borrow().counters(), (0, 1));
    }

    #[test]
    fn unauthorized_dn_rejected() {
        let mut sim = Sim::new(0);
        let (site, _cred, ca) = setup(&mut sim);
        let mallory =
            ca.borrow_mut()
                .issue("/CN=mallory", SimTime::ZERO, Duration::from_secs(3600));
        let err = Gatekeeper::submit(
            site.gatekeeper(),
            &mut sim,
            &mallory.proxy(),
            &rsl(""),
            exec(1, 0.0),
        )
        .unwrap_err();
        assert!(matches!(err, GridError::Rejected(_)), "{err}");
    }

    #[test]
    fn expired_proxy_rejected() {
        let mut sim = Sim::new(0);
        let (site, cred, _ca) = setup(&mut sim);
        let short = cred.delegate(SimTime::ZERO, Duration::from_secs(10));
        sim.run_until(SimTime::from_secs(60));
        let err = Gatekeeper::submit(
            site.gatekeeper(),
            &mut sim,
            &short.proxy(),
            &rsl(""),
            exec(1, 0.0),
        )
        .unwrap_err();
        assert_eq!(
            err,
            GridError::Security(crate::security::SecurityError::Expired)
        );
    }

    #[test]
    fn queue_limits_enforced() {
        let mut sim = Sim::new(0);
        let (site, cred, _ca) = setup(&mut sim);
        // too many cores (site has 32)
        let err = Gatekeeper::submit(
            site.gatekeeper(),
            &mut sim,
            &cred.proxy(),
            &rsl("(count=64)"),
            exec(1, 0.0),
        )
        .unwrap_err();
        assert!(matches!(err, GridError::Rejected(_)));
        // unknown queue
        let err = Gatekeeper::submit(
            site.gatekeeper(),
            &mut sim,
            &cred.proxy(),
            &rsl("(queue=debug)"),
            exec(1, 0.0),
        )
        .unwrap_err();
        assert!(matches!(err, GridError::Rejected(_)));
        // walltime over limit (49h > 48h)
        let err = Gatekeeper::submit(
            site.gatekeeper(),
            &mut sim,
            &cred.proxy(),
            &rsl("(maxWallTime=2940)").replace("(maxWallTime=60)", ""),
            exec(1, 0.0),
        )
        .unwrap_err();
        assert!(matches!(err, GridError::Rejected(_)));
    }

    #[test]
    fn bad_rsl_surfaces_parse_error() {
        let mut sim = Sim::new(0);
        let (site, cred, _ca) = setup(&mut sim);
        let err = Gatekeeper::submit(
            site.gatekeeper(),
            &mut sim,
            &cred.proxy(),
            "(not rsl",
            exec(1, 0.0),
        )
        .unwrap_err();
        assert!(matches!(err, GridError::BadRsl(_)));
    }

    #[test]
    fn non_accepting_gatekeeper_unavailable() {
        let mut sim = Sim::new(0);
        let (site, cred, _ca) = setup(&mut sim);
        site.gatekeeper().borrow_mut().set_accepting(false);
        let err = Gatekeeper::submit(
            site.gatekeeper(),
            &mut sim,
            &cred.proxy(),
            &rsl(""),
            exec(1, 0.0),
        )
        .unwrap_err();
        assert_eq!(err, GridError::Unavailable("tg1".into()));
    }

    #[test]
    fn poll_unknown_job() {
        let mut sim = Sim::new(0);
        let (site, _cred, _ca) = setup(&mut sim);
        assert_eq!(
            site.gatekeeper().borrow().poll(99),
            Err(GridError::NoSuchJob(99))
        );
    }

    #[test]
    fn walltime_exceeded_reported() {
        let mut sim = Sim::new(0);
        let (site, cred, _ca) = setup(&mut sim);
        let h = Gatekeeper::submit(
            site.gatekeeper(),
            &mut sim,
            &cred.proxy(),
            "&(executable=app.exe)(maxWallTime=1)",
            exec(600, 1024.0),
        )
        .unwrap();
        sim.run();
        assert_eq!(
            site.gatekeeper().borrow().poll(h.job).unwrap(),
            JobState::Done(JobOutcome::WalltimeExceeded)
        );
        // killed jobs produce no output
        assert!(!site.storage().borrow().has(&h.output_file));
    }

    #[test]
    fn cancel_pending_job_reports_cancelled() {
        let mut sim = Sim::new(0);
        let (site, cred, _ca) = setup(&mut sim);
        // fill the machine
        let _h1 = Gatekeeper::submit(
            site.gatekeeper(),
            &mut sim,
            &cred.proxy(),
            &rsl("(count=32)"),
            exec(1000, 0.0),
        )
        .unwrap();
        let h2 = Gatekeeper::submit(
            site.gatekeeper(),
            &mut sim,
            &cred.proxy(),
            &rsl("(count=32)"),
            exec(1000, 0.0),
        )
        .unwrap();
        assert_eq!(site.gatekeeper().borrow().poll(h2.job).unwrap(), JobState::Pending);
        Gatekeeper::cancel(site.gatekeeper(), &mut sim, h2.job).unwrap();
        assert_eq!(
            site.gatekeeper().borrow().poll(h2.job).unwrap(),
            JobState::Done(JobOutcome::Cancelled)
        );
    }

    #[test]
    fn allocation_charges_completed_and_killed_jobs() {
        let mut sim = Sim::new(0);
        let (site, _cred, ca) = setup(&mut sim);
        let bob = ca
            .borrow_mut()
            .issue("/CN=bob", SimTime::ZERO, Duration::from_secs(86400));
        site.gatekeeper()
            .borrow_mut()
            .grant_with_allocation("/CN=bob", "bob", 10.0);
        // completed job: 2 cores x 0.5 h = 1 SU
        Gatekeeper::submit(
            site.gatekeeper(),
            &mut sim,
            &bob.proxy(),
            "&(executable=app.exe)(count=2)(maxWallTime=60)",
            exec(1800, 0.0),
        )
        .unwrap();
        sim.run();
        let alloc = site.gatekeeper().borrow().allocation("/CN=bob").unwrap();
        assert!((alloc.used_core_hours - 1.0).abs() < 1e-9, "{alloc:?}");
        // walltime-killed job billed at the limit: 1 core x 1 h
        Gatekeeper::submit(
            site.gatekeeper(),
            &mut sim,
            &bob.proxy(),
            "&(executable=app.exe)(maxWallTime=60)",
            exec(10_000, 0.0),
        )
        .unwrap();
        sim.run();
        let alloc = site.gatekeeper().borrow().allocation("/CN=bob").unwrap();
        assert!((alloc.used_core_hours - 2.0).abs() < 1e-9, "{alloc:?}");
        let report = site.gatekeeper().borrow().usage_report();
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].0, "/CN=bob");
    }

    #[test]
    fn exhausted_allocation_rejects_submission() {
        let mut sim = Sim::new(0);
        let (site, _cred, ca) = setup(&mut sim);
        let eve = ca
            .borrow_mut()
            .issue("/CN=eve", SimTime::ZERO, Duration::from_secs(86400));
        // grant 1 SU; a 4-core 1-hour job could use 4 SU → rejected upfront
        site.gatekeeper()
            .borrow_mut()
            .grant_with_allocation("/CN=eve", "eve", 1.0);
        let err = Gatekeeper::submit(
            site.gatekeeper(),
            &mut sim,
            &eve.proxy(),
            "&(executable=app.exe)(count=4)(maxWallTime=60)",
            exec(60, 0.0),
        )
        .unwrap_err();
        assert!(
            matches!(&err, GridError::Rejected(m) if m.contains("allocation exhausted")),
            "{err}"
        );
        // a job fitting the budget is accepted
        Gatekeeper::submit(
            site.gatekeeper(),
            &mut sim,
            &eve.proxy(),
            "&(executable=app.exe)(maxWallTime=30)",
            exec(600, 0.0),
        )
        .unwrap();
        sim.run();
    }

    #[test]
    fn cancelled_jobs_are_refunded() {
        let mut sim = Sim::new(0);
        let (site, _cred, ca) = setup(&mut sim);
        let kim = ca
            .borrow_mut()
            .issue("/CN=kim", SimTime::ZERO, Duration::from_secs(86400));
        site.gatekeeper()
            .borrow_mut()
            .grant_with_allocation("/CN=kim", "kim", 5.0);
        let h = Gatekeeper::submit(
            site.gatekeeper(),
            &mut sim,
            &kim.proxy(),
            "&(executable=app.exe)(maxWallTime=60)",
            exec(3000, 0.0),
        )
        .unwrap();
        sim.run_until(SimTime::from_secs(60));
        Gatekeeper::cancel(site.gatekeeper(), &mut sim, h.job).unwrap();
        sim.run();
        let alloc = site.gatekeeper().borrow().allocation("/CN=kim").unwrap();
        assert_eq!(alloc.used_core_hours, 0.0);
    }

    #[test]
    fn crash_killed_job_reports_node_failure_and_is_refunded() {
        let mut sim = Sim::new(0);
        let (site, _cred, ca) = setup(&mut sim);
        let pat = ca
            .borrow_mut()
            .issue("/CN=pat", SimTime::ZERO, Duration::from_secs(86400));
        site.gatekeeper()
            .borrow_mut()
            .grant_with_allocation("/CN=pat", "pat", 5.0);
        let h = Gatekeeper::submit(
            site.gatekeeper(),
            &mut sim,
            &pat.proxy(),
            "&(executable=app.exe)(maxWallTime=60)",
            exec(3000, 4096.0),
        )
        .unwrap();
        sim.run_until(SimTime::from_secs(60));
        assert_eq!(site.gatekeeper().borrow().poll(h.job).unwrap(), JobState::Active);
        Gatekeeper::kill(site.gatekeeper(), &mut sim, h.job).unwrap();
        assert_eq!(
            site.gatekeeper().borrow().poll(h.job).unwrap(),
            JobState::Done(JobOutcome::NodeFailure)
        );
        sim.run();
        // a crash is not the user's fault: charge refunded, no output lands
        let alloc = site.gatekeeper().borrow().allocation("/CN=pat").unwrap();
        assert_eq!(alloc.used_core_hours, 0.0);
        assert!(!site.storage().borrow().has(&h.output_file));
        assert!(matches!(
            Gatekeeper::kill(site.gatekeeper(), &mut sim, 999),
            Err(GridError::NoSuchJob(999))
        ));
    }

    #[test]
    fn pending_active_done_progression() {
        let mut sim = Sim::new(0);
        let (site, cred, _ca) = setup(&mut sim);
        let blocker = Gatekeeper::submit(
            site.gatekeeper(),
            &mut sim,
            &cred.proxy(),
            &rsl("(count=32)"),
            exec(100, 0.0),
        )
        .unwrap();
        let h = Gatekeeper::submit(
            site.gatekeeper(),
            &mut sim,
            &cred.proxy(),
            &rsl("(count=32)"),
            exec(50, 0.0),
        )
        .unwrap();
        assert_eq!(site.gatekeeper().borrow().poll(h.job).unwrap(), JobState::Pending);
        sim.run_until(SimTime::from_secs(110));
        assert_eq!(site.gatekeeper().borrow().poll(h.job).unwrap(), JobState::Active);
        sim.run();
        assert_eq!(
            site.gatekeeper().borrow().poll(h.job).unwrap(),
            JobState::Done(JobOutcome::Completed)
        );
        let _ = blocker;
    }
}
