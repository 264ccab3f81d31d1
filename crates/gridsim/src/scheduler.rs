//! Space-shared batch scheduling of a cluster's cores.
//!
//! A production-Grid site runs a batch system (PBS/LSF in the TeraGrid era).
//! Jobs request `cores` and a walltime limit, wait in a queue, run to
//! completion (or are killed at the limit), and free their cores. Two
//! policies are provided — plain FCFS and EASY backfill — because queue
//! wait is the dominant term in the paper's "overhead small compared to the
//! runtime of a typical executable" claim, and the backfill-vs-FCFS choice
//! is one of the ablations DESIGN.md calls out.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use simkit::engine::EventId;
use simkit::{Duration, MetricId, Sim, SimTime};

/// Scheduling policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Strict first-come-first-served: the queue head blocks everyone.
    Fcfs,
    /// EASY backfill: later jobs may jump ahead if they cannot delay the
    /// head's reservation.
    Backfill,
}

/// How a job left the system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobOutcome {
    /// Ran to completion within its walltime limit.
    Completed,
    /// Killed at the walltime limit.
    WalltimeExceeded,
    /// Cancelled by the submitter while pending or running.
    Cancelled,
    /// Lost to a node failure.
    NodeFailure,
}

impl JobOutcome {
    /// The variant's name — the text `Debug` prints — without building a
    /// `String`, for span attributes that are dropped when telemetry is off.
    pub(crate) fn name(self) -> &'static str {
        match self {
            JobOutcome::Completed => "Completed",
            JobOutcome::WalltimeExceeded => "WalltimeExceeded",
            JobOutcome::Cancelled => "Cancelled",
            JobOutcome::NodeFailure => "NodeFailure",
        }
    }
}

/// Scheduler-level job identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SchedJobId(pub u64);

/// What the scheduler needs to know about a job.
#[derive(Clone, Debug)]
pub struct SchedRequest {
    /// Cores requested (may span nodes).
    pub cores: u32,
    /// Walltime limit (the *estimate* given to the scheduler; jobs are
    /// killed when they reach it).
    pub walltime_limit: Duration,
    /// True runtime, known only to the simulation.
    pub actual_runtime: Duration,
}

type DoneFn = Box<dyn FnOnce(&mut Sim, JobOutcome)>;

struct PendingJob {
    id: SchedJobId,
    req: SchedRequest,
    done: DoneFn,
}

struct RunningJob {
    alloc: Vec<(usize, u32)>, // (node index, cores taken)
    req: SchedRequest,
    start: SimTime,
    /// The event that ends the job at its runtime or walltime limit; a job
    /// that leaves `running` any other way takes it along.
    finish: EventId,
    done: DoneFn,
}

struct Node {
    free: u32,
    up: bool,
}

/// The batch scheduler of one cluster.
pub struct ClusterScheduler {
    name: String,
    policy: SchedPolicy,
    cores_per_node: u32,
    nodes: Vec<Node>,
    pending: VecDeque<PendingJob>,
    running: BTreeMap<SchedJobId, RunningJob>,
    next_id: u64,
    used_cores: u32,
    last_metric_update: SimTime,
    /// `<name>.core_seconds`, interned the first time it is recorded.
    core_seconds: Option<MetricId>,
}

impl ClusterScheduler {
    /// Cluster of `node_count` nodes × `cores_per_node` cores under
    /// `policy`. `name` prefixes the `<name>.core_seconds` metric.
    pub fn new(
        name: &str,
        node_count: usize,
        cores_per_node: u32,
        policy: SchedPolicy,
    ) -> Rc<RefCell<ClusterScheduler>> {
        assert!(node_count > 0 && cores_per_node > 0);
        Rc::new(RefCell::new(ClusterScheduler {
            name: name.to_owned(),
            policy,
            cores_per_node,
            nodes: (0..node_count)
                .map(|_| Node {
                    free: cores_per_node,
                    up: true,
                })
                .collect(),
            pending: VecDeque::new(),
            running: BTreeMap::new(),
            next_id: 1,
            used_cores: 0,
            last_metric_update: SimTime::ZERO,
            core_seconds: None,
        }))
    }

    /// Total cores on nodes that are currently up.
    pub fn total_cores(&self) -> u32 {
        self.nodes
            .iter()
            .filter(|n| n.up)
            .count() as u32
            * self.cores_per_node
    }

    /// Currently free cores (on up nodes).
    pub fn free_cores(&self) -> u32 {
        self.nodes.iter().filter(|n| n.up).map(|n| n.free).sum()
    }

    /// Jobs waiting in the queue.
    pub fn queue_len(&self) -> usize {
        self.pending.len()
    }

    /// Jobs currently executing.
    pub fn running_count(&self) -> usize {
        self.running.len()
    }

    /// Whether a specific job is currently executing.
    pub fn is_running(&self, id: SchedJobId) -> bool {
        self.running.contains_key(&id)
    }

    /// Start instant of a running job.
    pub fn running_since(&self, id: SchedJobId) -> Option<SimTime> {
        self.running.get(&id).map(|r| r.start)
    }

    /// The scheduling policy.
    pub fn policy(&self) -> SchedPolicy {
        self.policy
    }

    /// Submit a job; `done` fires exactly once with the outcome.
    pub fn submit<F>(
        this: &Rc<RefCell<Self>>,
        sim: &mut Sim,
        req: SchedRequest,
        done: F,
    ) -> SchedJobId
    where
        F: FnOnce(&mut Sim, JobOutcome) + 'static,
    {
        let id;
        {
            let mut s = this.borrow_mut();
            assert!(req.cores > 0, "job must request at least one core");
            id = SchedJobId(s.next_id);
            s.next_id += 1;
            s.pending.push_back(PendingJob {
                id,
                req,
                done: Box::new(done),
            });
        }
        Self::try_schedule(this, sim);
        id
    }

    /// Cancel a pending or running job; its callback fires with
    /// [`JobOutcome::Cancelled`]. Returns `false` for unknown/finished ids.
    pub fn cancel(this: &Rc<RefCell<Self>>, sim: &mut Sim, id: SchedJobId) -> bool {
        Self::remove(this, sim, id, JobOutcome::Cancelled)
    }

    /// Kill a pending or running job as a crash: its callback fires with
    /// [`JobOutcome::NodeFailure`] (not `Cancelled` — nobody asked for
    /// this). Unlike [`ClusterScheduler::fail_node`], only the one job
    /// dies; the cores it held are released to the queue. Returns `false`
    /// for unknown/finished ids.
    pub fn kill(this: &Rc<RefCell<Self>>, sim: &mut Sim, id: SchedJobId) -> bool {
        Self::remove(this, sim, id, JobOutcome::NodeFailure)
    }

    /// Take a pending or running job out of the system ahead of its
    /// finish event and fire its callback with `outcome`.
    fn remove(
        this: &Rc<RefCell<Self>>,
        sim: &mut Sim,
        id: SchedJobId,
        outcome: JobOutcome,
    ) -> bool {
        let cb = {
            let mut s = this.borrow_mut();
            if let Some(pos) = s.pending.iter().position(|p| p.id == id) {
                s.pending.remove(pos).map(|p| p.done)
            } else {
                s.running.remove(&id).map(|r| {
                    sim.cancel_event(r.finish);
                    s.release(sim, &r.alloc);
                    r.done
                })
            }
        };
        let found = cb.is_some();
        if let Some(cb) = cb {
            cb(sim, outcome);
        }
        Self::try_schedule(this, sim);
        found
    }

    /// Take a node down: running jobs touching it fail, capacity shrinks.
    pub fn fail_node(this: &Rc<RefCell<Self>>, sim: &mut Sim, node: usize) {
        let mut victims: Vec<DoneFn> = Vec::new();
        {
            let mut s = this.borrow_mut();
            if !s.nodes[node].up {
                return;
            }
            s.update_metric(sim);
            let ids: Vec<SchedJobId> = s
                .running
                .iter()
                .filter(|(_, r)| r.alloc.iter().any(|&(n, _)| n == node))
                .map(|(&id, _)| id)
                .collect();
            for id in ids {
                let r = s.running.remove(&id).expect("present");
                sim.cancel_event(r.finish);
                // free cores on surviving nodes; the failed node's cores
                // vanish with it
                for &(n, c) in &r.alloc {
                    if n != node {
                        s.nodes[n].free += c;
                    }
                    s.used_cores -= c;
                }
                victims.push(r.done);
            }
            s.nodes[node].up = false;
            s.nodes[node].free = 0;
        }
        for cb in victims {
            cb(sim, JobOutcome::NodeFailure);
        }
        Self::try_schedule(this, sim);
    }

    /// Bring a failed node back with all cores free.
    pub fn restore_node(this: &Rc<RefCell<Self>>, sim: &mut Sim, node: usize) {
        {
            let mut s = this.borrow_mut();
            if s.nodes[node].up {
                return;
            }
            s.update_metric(sim);
            s.nodes[node].up = true;
            s.nodes[node].free = s.cores_per_node;
        }
        Self::try_schedule(this, sim);
    }

    /// Estimated queue wait for a hypothetical `cores` request submitted
    /// now — the information-service figure a resource broker consults.
    pub fn estimate_wait(&self, now: SimTime, cores: u32) -> Duration {
        if cores <= self.free_cores() && self.pending.is_empty() {
            return Duration::ZERO;
        }
        // Pessimistic estimate: walk running jobs by their walltime-limit
        // end, accumulating freed cores until the request (behind the whole
        // current queue, FCFS-style) would fit.
        let mut events: Vec<(SimTime, u32)> = self
            .running
            .values()
            .map(|r| (r.start + r.req.walltime_limit, r.req.cores))
            .collect();
        events.sort();
        let mut free = self.free_cores();
        let needed: u32 = self.pending.iter().map(|p| p.req.cores).sum::<u32>() + cores;
        for (t, c) in events {
            free += c;
            if free >= needed.min(self.total_cores()) {
                return t.since(now);
            }
        }
        // Even draining everything wouldn't fit (request larger than the
        // machine): report an effectively infinite wait.
        Duration::MAX
    }

    fn update_metric(&mut self, sim: &mut Sim) {
        let now = sim.now();
        if now > self.last_metric_update && self.used_cores > 0 {
            let dt = (now - self.last_metric_update).as_secs_f64();
            let name = &self.name;
            let id = *self
                .core_seconds
                .get_or_insert_with(|| sim.recorder().intern(&format!("{name}.core_seconds")));
            sim.recorder()
                .add_span_id(id, self.last_metric_update, now, self.used_cores as f64 * dt);
        }
        self.last_metric_update = now;
    }

    fn release(&mut self, sim: &mut Sim, alloc: &[(usize, u32)]) {
        self.update_metric(sim);
        for &(n, c) in alloc {
            if self.nodes[n].up {
                self.nodes[n].free += c;
            }
            self.used_cores -= c;
        }
    }

    /// Greedy first-fit allocation across up nodes.
    fn allocate(&mut self, sim: &mut Sim, cores: u32) -> Option<Vec<(usize, u32)>> {
        if cores > self.free_cores() {
            return None;
        }
        self.update_metric(sim);
        let mut left = cores;
        let mut alloc = Vec::new();
        for (i, node) in self.nodes.iter_mut().enumerate() {
            if !node.up || node.free == 0 {
                continue;
            }
            let take = node.free.min(left);
            node.free -= take;
            alloc.push((i, take));
            left -= take;
            if left == 0 {
                break;
            }
        }
        debug_assert_eq!(left, 0);
        self.used_cores += cores;
        Some(alloc)
    }

    fn start_job(this: &Rc<RefCell<Self>>, sim: &mut Sim, job: PendingJob) {
        let id = job.id;
        let (run_for, outcome) = if job.req.actual_runtime <= job.req.walltime_limit {
            (job.req.actual_runtime, JobOutcome::Completed)
        } else {
            (job.req.walltime_limit, JobOutcome::WalltimeExceeded)
        };
        let mut s = this.borrow_mut();
        let alloc = s
            .allocate(sim, job.req.cores)
            .expect("start_job called without capacity");
        let this2 = Rc::clone(this);
        let finish = sim.schedule(run_for, move |sim| {
            Self::finish_job(&this2, sim, id, outcome);
        });
        s.running.insert(
            id,
            RunningJob {
                alloc,
                req: job.req,
                start: sim.now(),
                finish,
                done: job.done,
            },
        );
    }

    fn finish_job(this: &Rc<RefCell<Self>>, sim: &mut Sim, id: SchedJobId, outcome: JobOutcome) {
        let done = {
            let mut s = this.borrow_mut();
            let r = s
                .running
                .remove(&id)
                .expect("a job that leaves `running` early cancels its finish event");
            s.release(sim, &r.alloc);
            r.done
        };
        done(sim, outcome);
        Self::try_schedule(this, sim);
    }

    fn try_schedule(this: &Rc<RefCell<Self>>, sim: &mut Sim) {
        // bring the core-seconds series up to now before the queue moves
        this.borrow_mut().update_metric(sim);
        loop {
            let next: Option<PendingJob> = {
                let mut s = this.borrow_mut();
                match s.pick_next(sim.now()) {
                    Some(idx) => s.pending.remove(idx),
                    None => None,
                }
            };
            match next {
                Some(job) => Self::start_job(this, sim, job),
                None => break,
            }
        }
    }

    /// Index into `pending` of the next job to start at `now`, or `None`.
    fn pick_next(&self, now: SimTime) -> Option<usize> {
        let head = self.pending.front()?;
        let free = self.free_cores();
        if head.req.cores <= free {
            return Some(0);
        }
        if self.policy == SchedPolicy::Fcfs {
            return None;
        }
        // EASY backfill: reserve for the head, then find the first later
        // job that fits now without pushing the head's start back.
        let (shadow_time, extra) = self.head_reservation()?;
        for (idx, job) in self.pending.iter().enumerate().skip(1) {
            if job.req.cores > free {
                continue;
            }
            let ends_before_shadow = shadow_time
                .map(|st| now + job.req.walltime_limit <= st)
                .unwrap_or(true);
            if ends_before_shadow || job.req.cores <= extra {
                return Some(idx);
            }
        }
        None
    }

    /// EASY reservation for the queue head: `(shadow_time, extra_cores)`.
    /// `shadow_time` is when the head can start (based on walltime limits);
    /// `extra` is how many cores remain free at that instant beyond the
    /// head's need. `None` when the head can never fit (machine too small).
    fn head_reservation(&self) -> Option<(Option<SimTime>, u32)> {
        let head = self.pending.front()?;
        if head.req.cores > self.total_cores() {
            // Will be rejected upstream; treat as "no reservation", allowing
            // everything to backfill.
            return Some((None, self.free_cores()));
        }
        let mut events: Vec<(SimTime, u32)> = self
            .running
            .values()
            .map(|r| (r.start + r.req.walltime_limit, r.req.cores))
            .collect();
        events.sort();
        let mut free = self.free_cores();
        for (t, c) in events {
            free += c;
            if free >= head.req.cores {
                return Some((Some(t), free - head.req.cores));
            }
        }
        Some((None, self.free_cores()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn req(cores: u32, limit_s: u64, actual_s: u64) -> SchedRequest {
        SchedRequest {
            cores,
            walltime_limit: Duration::from_secs(limit_s),
            actual_runtime: Duration::from_secs(actual_s),
        }
    }

    type FinishLog = Rc<RefCell<Vec<(f64, JobOutcome)>>>;

    #[test]
    fn outcome_name_is_its_debug_text() {
        for o in [
            JobOutcome::Completed,
            JobOutcome::WalltimeExceeded,
            JobOutcome::Cancelled,
            JobOutcome::NodeFailure,
        ] {
            assert_eq!(o.name(), format!("{o:?}"));
        }
    }

    fn finish_recorder() -> (FinishLog, impl Fn(&FinishLog) -> DoneFn) {
        let log: FinishLog = Rc::new(RefCell::new(Vec::new()));
        let mk = |log: &FinishLog| -> DoneFn {
            let log = log.clone();
            Box::new(move |sim: &mut Sim, oc| {
                log.borrow_mut().push((sim.now().as_secs_f64(), oc));
            })
        };
        (log, mk)
    }

    #[test]
    fn job_runs_and_completes() {
        let mut sim = Sim::new(0);
        let sched = ClusterScheduler::new("c", 2, 4, SchedPolicy::Fcfs);
        let done_at = Rc::new(Cell::new(0.0));
        let d = done_at.clone();
        ClusterScheduler::submit(&sched, &mut sim, req(4, 100, 30), move |sim, oc| {
            assert_eq!(oc, JobOutcome::Completed);
            d.set(sim.now().as_secs_f64());
        });
        sim.run();
        assert_eq!(done_at.get(), 30.0);
        assert_eq!(sched.borrow().free_cores(), 8);
    }

    #[test]
    fn queue_waits_for_capacity() {
        let mut sim = Sim::new(0);
        let sched = ClusterScheduler::new("c", 1, 4, SchedPolicy::Fcfs);
        let (log, mk) = finish_recorder();
        ClusterScheduler::submit(&sched, &mut sim, req(4, 100, 10), mk(&log));
        ClusterScheduler::submit(&sched, &mut sim, req(4, 100, 5), mk(&log));
        sim.run();
        let l = log.borrow();
        assert_eq!(l[0], (10.0, JobOutcome::Completed));
        assert_eq!(l[1], (15.0, JobOutcome::Completed));
    }

    #[test]
    fn walltime_kill() {
        let mut sim = Sim::new(0);
        let sched = ClusterScheduler::new("c", 1, 1, SchedPolicy::Fcfs);
        let (log, mk) = finish_recorder();
        ClusterScheduler::submit(&sched, &mut sim, req(1, 10, 50), mk(&log));
        sim.run();
        assert_eq!(log.borrow()[0], (10.0, JobOutcome::WalltimeExceeded));
    }

    #[test]
    fn fcfs_head_blocks_small_jobs() {
        let mut sim = Sim::new(0);
        let sched = ClusterScheduler::new("c", 1, 4, SchedPolicy::Fcfs);
        let (log, mk) = finish_recorder();
        // J1 takes all cores for 10s; J2 (big) must wait; J3 (small) must
        // NOT overtake J2 under FCFS.
        ClusterScheduler::submit(&sched, &mut sim, req(4, 100, 10), mk(&log));
        ClusterScheduler::submit(&sched, &mut sim, req(4, 100, 10), mk(&log));
        ClusterScheduler::submit(&sched, &mut sim, req(1, 2, 2), mk(&log));
        sim.run();
        let l = log.borrow();
        // small job finished last-started: starts at t=20 after J2
        assert_eq!(l[2], (22.0, JobOutcome::Completed));
    }

    #[test]
    fn backfill_lets_short_small_job_jump() {
        let mut sim = Sim::new(0);
        let sched = ClusterScheduler::new("c", 1, 4, SchedPolicy::Backfill);
        let (log, mk) = finish_recorder();
        // J1: 3 cores for 10s. J2: 4 cores (waits until t=10). J3: 1 core,
        // 2s — fits in the free core and ends before J2's shadow time.
        ClusterScheduler::submit(&sched, &mut sim, req(3, 10, 10), mk(&log));
        ClusterScheduler::submit(&sched, &mut sim, req(4, 100, 10), mk(&log));
        ClusterScheduler::submit(&sched, &mut sim, req(1, 2, 2), mk(&log));
        sim.run();
        let l = log.borrow();
        let backfilled = l.iter().find(|(_, _)| true).unwrap();
        // J3 completes at t=2 (backfilled immediately)
        assert_eq!(*backfilled, (2.0, JobOutcome::Completed));
        // J2 still starts at t=10, not delayed by J3
        assert!(l.iter().any(|&(t, _)| t == 20.0));
    }

    #[test]
    fn backfill_does_not_delay_head() {
        let mut sim = Sim::new(0);
        let sched = ClusterScheduler::new("c", 1, 4, SchedPolicy::Backfill);
        let (log, mk) = finish_recorder();
        // J1: 3 cores, 10s. J2: 4 cores. J3: 1 core but LONG (30s limit) —
        // would delay J2's start at t=10, so must not backfill.
        ClusterScheduler::submit(&sched, &mut sim, req(3, 10, 10), mk(&log));
        ClusterScheduler::submit(&sched, &mut sim, req(4, 100, 5), mk(&log));
        ClusterScheduler::submit(&sched, &mut sim, req(1, 30, 1), mk(&log));
        sim.run();
        let l = log.borrow();
        // J2 completes at 15 (started exactly at 10, undelayed by J3)
        assert!(l.contains(&(15.0, JobOutcome::Completed)), "{l:?}");
        // J3 had to wait for J2 (which takes the whole machine): done at 16
        assert!(l.contains(&(16.0, JobOutcome::Completed)), "{l:?}");
    }

    #[test]
    fn cancel_pending_job() {
        let mut sim = Sim::new(0);
        let sched = ClusterScheduler::new("c", 1, 1, SchedPolicy::Fcfs);
        let (log, mk) = finish_recorder();
        ClusterScheduler::submit(&sched, &mut sim, req(1, 100, 50), mk(&log));
        let id2 = ClusterScheduler::submit(&sched, &mut sim, req(1, 100, 50), mk(&log));
        let s2 = sched.clone();
        sim.schedule(Duration::from_secs(5), move |sim| {
            assert!(ClusterScheduler::cancel(&s2, sim, id2));
        });
        sim.run();
        let l = log.borrow();
        assert_eq!(l[0], (5.0, JobOutcome::Cancelled));
        assert_eq!(l[1], (50.0, JobOutcome::Completed));
    }

    #[test]
    fn cancel_running_job_frees_cores() {
        let mut sim = Sim::new(0);
        let sched = ClusterScheduler::new("c", 1, 2, SchedPolicy::Fcfs);
        let (log, mk) = finish_recorder();
        let id = ClusterScheduler::submit(&sched, &mut sim, req(2, 100, 50), mk(&log));
        ClusterScheduler::submit(&sched, &mut sim, req(2, 100, 10), mk(&log));
        let s2 = sched.clone();
        sim.schedule(Duration::from_secs(5), move |sim| {
            ClusterScheduler::cancel(&s2, sim, id);
        });
        sim.run();
        let l = log.borrow();
        assert_eq!(l[0], (5.0, JobOutcome::Cancelled));
        // successor starts at 5, done at 15
        assert_eq!(l[1], (15.0, JobOutcome::Completed));
    }

    #[test]
    fn cancel_unknown_is_false() {
        let mut sim = Sim::new(0);
        let sched = ClusterScheduler::new("c", 1, 1, SchedPolicy::Fcfs);
        assert!(!ClusterScheduler::cancel(
            &sched,
            &mut sim,
            SchedJobId(999)
        ));
    }

    #[test]
    fn kill_running_job_fails_it_and_frees_cores() {
        let mut sim = Sim::new(0);
        let sched = ClusterScheduler::new("c", 1, 2, SchedPolicy::Fcfs);
        let (log, mk) = finish_recorder();
        let id = ClusterScheduler::submit(&sched, &mut sim, req(2, 100, 50), mk(&log));
        ClusterScheduler::submit(&sched, &mut sim, req(2, 100, 10), mk(&log));
        let s2 = sched.clone();
        sim.schedule(Duration::from_secs(5), move |sim| {
            assert!(ClusterScheduler::kill(&s2, sim, id));
            // already gone: a second kill is a no-op
            assert!(!ClusterScheduler::kill(&s2, sim, id));
        });
        sim.run();
        let l = log.borrow();
        // the crash reads as NodeFailure, unlike an operator cancel,
        // and the freed cores let the successor run immediately
        assert_eq!(l[0], (5.0, JobOutcome::NodeFailure));
        assert_eq!(l[1], (15.0, JobOutcome::Completed));
        assert_eq!(sched.borrow().total_cores(), 2, "no capacity was lost");
    }

    #[test]
    fn a_job_that_leaves_running_early_takes_its_finish_event_along() {
        // regression: the finish event of a job cancelled, killed or lost
        // with its node used to stay queued, fire at t = 3600 and return,
        // so a drained simulation ended an hour after its last job
        type Exit = fn(&Rc<RefCell<ClusterScheduler>>, &mut Sim, SchedJobId);
        let exits: [(Exit, JobOutcome); 3] = [
            (
                |s, sim, id| assert!(ClusterScheduler::cancel(s, sim, id)),
                JobOutcome::Cancelled,
            ),
            (
                |s, sim, id| assert!(ClusterScheduler::kill(s, sim, id)),
                JobOutcome::NodeFailure,
            ),
            (
                |s, sim, _| ClusterScheduler::fail_node(s, sim, 0),
                JobOutcome::NodeFailure,
            ),
        ];
        for (exit, outcome) in exits {
            let mut sim = Sim::new(0);
            let sched = ClusterScheduler::new("c", 1, 2, SchedPolicy::Fcfs);
            let (log, mk) = finish_recorder();
            let id = ClusterScheduler::submit(&sched, &mut sim, req(2, 7200, 3600), mk(&log));
            assert_eq!(sim.pending(), 1, "the running job's finish event");
            let s2 = sched.clone();
            sim.schedule(Duration::from_secs(10), move |sim| exit(&s2, sim, id));
            assert_eq!(sim.run(), 1, "{outcome:?}: only the exit itself runs");
            assert_eq!(*log.borrow(), vec![(10.0, outcome)]);
            assert_eq!(sim.now(), SimTime::from_secs(10), "{outcome:?}");
            assert_eq!(sim.pending(), 0, "{outcome:?}");
            assert_eq!(sched.borrow().running_count(), 0);
        }
    }

    #[test]
    fn node_failure_kills_and_shrinks() {
        let mut sim = Sim::new(0);
        let sched = ClusterScheduler::new("c", 2, 2, SchedPolicy::Fcfs);
        let (log, mk) = finish_recorder();
        // spans both nodes
        ClusterScheduler::submit(&sched, &mut sim, req(4, 100, 50), mk(&log));
        let s2 = sched.clone();
        sim.schedule(Duration::from_secs(10), move |sim| {
            ClusterScheduler::fail_node(&s2, sim, 0);
        });
        sim.run();
        assert_eq!(log.borrow()[0], (10.0, JobOutcome::NodeFailure));
        assert_eq!(sched.borrow().total_cores(), 2);
        assert_eq!(sched.borrow().free_cores(), 2);
    }

    #[test]
    fn restore_node_resumes_scheduling() {
        let mut sim = Sim::new(0);
        let sched = ClusterScheduler::new("c", 1, 2, SchedPolicy::Fcfs);
        let (log, mk) = finish_recorder();
        let s2 = sched.clone();
        sim.schedule(Duration::ZERO, move |sim| {
            ClusterScheduler::fail_node(&s2, sim, 0);
        });
        let s3 = sched.clone();
        let mk_cb = mk(&log);
        sim.schedule(Duration::from_secs(1), move |sim| {
            ClusterScheduler::submit(&s3, sim, req(2, 100, 5), move |sim, oc| {
                mk_cb(sim, oc)
            });
        });
        let s4 = sched.clone();
        sim.schedule(Duration::from_secs(10), move |sim| {
            ClusterScheduler::restore_node(&s4, sim, 0);
        });
        sim.run();
        assert_eq!(log.borrow()[0], (15.0, JobOutcome::Completed));
    }

    #[test]
    fn never_oversubscribes() {
        let mut sim = Sim::new(7);
        let sched = ClusterScheduler::new("c", 4, 8, SchedPolicy::Backfill);
        for i in 0..50u64 {
            let cores = 1 + (i % 8) as u32;
            let sc = sched.clone();
            sim.schedule(Duration::from_secs(i), move |sim| {
                ClusterScheduler::submit(
                    &sc,
                    sim,
                    req(cores, 20 + cores as u64, 5 + (cores as u64) * 2),
                    |_, _| {},
                );
            });
        }
        // Invariant checked continuously by sampling
        for t in 0..200u64 {
            let sc = sched.clone();
            sim.schedule(Duration::from_secs(t), move |_| {
                let s = sc.borrow();
                assert!(s.free_cores() <= s.total_cores());
                let used: u32 = s.total_cores() - s.free_cores();
                assert_eq!(used, s.used_cores);
            });
        }
        sim.run();
        assert_eq!(sched.borrow().running_count(), 0);
        assert_eq!(sched.borrow().queue_len(), 0);
    }

    #[test]
    fn estimate_wait_zero_when_free() {
        let sched = ClusterScheduler::new("c", 1, 4, SchedPolicy::Fcfs);
        assert_eq!(
            sched.borrow().estimate_wait(SimTime::ZERO, 2),
            Duration::ZERO
        );
    }

    #[test]
    fn estimate_wait_tracks_running_limits() {
        let mut sim = Sim::new(0);
        let sched = ClusterScheduler::new("c", 1, 4, SchedPolicy::Fcfs);
        ClusterScheduler::submit(&sched, &mut sim, req(4, 100, 100), |_, _| {});
        sim.run_until(SimTime::from_secs(1));
        let w = sched.borrow().estimate_wait(sim.now(), 2);
        assert_eq!(w, Duration::from_secs(99));
    }

    #[test]
    fn estimate_wait_infinite_for_oversized() {
        let sched = ClusterScheduler::new("c", 1, 4, SchedPolicy::Fcfs);
        assert_eq!(
            sched.borrow().estimate_wait(SimTime::ZERO, 100),
            Duration::MAX
        );
    }

    #[test]
    fn core_seconds_metric_accumulates() {
        let mut sim = Sim::new(0);
        let sched = ClusterScheduler::new("site0", 1, 4, SchedPolicy::Fcfs);
        ClusterScheduler::submit(&sched, &mut sim, req(2, 100, 10), |_, _| {});
        sim.run();
        let total = sim.recorder_ref().total("site0.core_seconds");
        assert!((total - 20.0).abs() < 1e-6, "core-seconds {total}");
    }
}
