//! The tentative output-polling loop.
//!
//! "One result of these workarounds is, that the actual status of the job
//! can't be retrieved and that the local client has to request the output
//! tentatively. Finally this may result in a service customer that
//! requests the application's output more often than necessary which may
//! reduce the network performance even more" (§VIII-B). This module is
//! that client loop: poll at a fixed interval until the job completes,
//! fails, or a deadline passes. Every poll re-fetches the entire current
//! output and spools it to the appliance disk — the periodic write peaks
//! in Figures 6 and 7.

use std::cell::RefCell;
use std::rc::Rc;

use gridsim::gram::{JobHandle, JobOutcome};
use gridsim::{GridError, GridSite};
use simkit::{Duration, Sim, SimTime};

use crate::agent::{CyberaideAgent, PollResult, SessionId};

/// Why the polling loop gave up.
#[derive(Clone, Debug, PartialEq)]
pub enum PollError {
    /// The job left the system without producing output.
    JobFailed(JobOutcome),
    /// The deadline passed with the job still incomplete.
    TimedOut {
        /// Polls issued before giving up.
        polls: u64,
    },
    /// The Grid rejected a poll outright.
    Grid(GridError),
}

impl std::fmt::Display for PollError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PollError::JobFailed(o) => write!(f, "job failed: {o:?}"),
            PollError::TimedOut { polls } => write!(f, "timed out after {polls} polls"),
            PollError::Grid(e) => write!(f, "grid error: {e}"),
        }
    }
}

impl std::error::Error for PollError {}

/// What the loop measured (the paper's inefficiency, quantified).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PollStats {
    /// Polls issued.
    pub polls: u64,
    /// Total bytes fetched across all polls (with full re-fetches, this
    /// can far exceed the final output size).
    pub bytes_fetched: f64,
    /// Final output size.
    pub final_bytes: f64,
}

/// Configuration + entry point for the loop.
pub struct OutputPoller {
    /// Time between polls.
    pub interval: Duration,
    /// Give up after this much total waiting.
    pub timeout: Duration,
}

impl Default for OutputPoller {
    fn default() -> Self {
        OutputPoller {
            // the paper's graphs show "a relative constant interval"
            // between output writes; ~9 s matches the Figure 6 peak spacing
            interval: Duration::from_secs(9),
            timeout: Duration::from_secs(24 * 3600),
        }
    }
}

impl OutputPoller {
    /// Poll until the job completes (→ `Ok(stats)`) or fails/times out
    /// (→ `Err((error, stats))`).
    pub fn start<F>(
        &self,
        sim: &mut Sim,
        agent: Rc<CyberaideAgent>,
        session: SessionId,
        site: Rc<GridSite>,
        handle: JobHandle,
        done: F,
    ) where
        F: FnOnce(&mut Sim, Result<PollStats, (PollError, PollStats)>) + 'static,
    {
        let deadline = sim.now() + self.timeout;
        let span = sim.span_begin("poller.poll_loop");
        sim.span_attr(span, "site", site.name());
        sim.span_attr(span, "interval_secs", self.interval.as_secs_f64());
        let state = Rc::new(RefCell::new(LoopState {
            stats: PollStats::default(),
            done: Some(Box::new(done)),
            span,
        }));
        Self::tick(
            sim,
            agent,
            session,
            site,
            handle,
            self.interval,
            deadline,
            state,
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn tick(
        sim: &mut Sim,
        agent: Rc<CyberaideAgent>,
        session: SessionId,
        site: Rc<GridSite>,
        handle: JobHandle,
        interval: Duration,
        deadline: SimTime,
        state: Rc<RefCell<LoopState>>,
    ) {
        let agent2 = Rc::clone(&agent);
        let site2 = Rc::clone(&site);
        let handle2 = handle.clone();
        // each poll nests under the loop span
        let loop_span = state.borrow().span;
        let prev = sim.set_span_parent(loop_span);
        agent.poll_output(sim, session, &site, &handle, move |sim, result| {
            let finish = |sim: &mut Sim,
                          state: &Rc<RefCell<LoopState>>,
                          outcome: Result<PollStats, (PollError, PollStats)>| {
                let taken = state.borrow_mut().done.take();
                if let Some(done) = taken {
                    let (span, stats) = {
                        let st = state.borrow();
                        (st.span, st.stats)
                    };
                    sim.span_attr(span, "polls", stats.polls);
                    sim.span_attr(span, "bytes_fetched", stats.bytes_fetched);
                    match &outcome {
                        Ok(_) => sim.span_end(span),
                        Err((e, _)) => sim.span_fail(span, &e.to_string()),
                    }
                    done(sim, outcome);
                }
            };
            {
                let mut st = state.borrow_mut();
                st.stats.polls += 1;
                match &result {
                    Ok(PollResult::Partial(b)) | Ok(PollResult::Complete(b)) => {
                        st.stats.bytes_fetched += b;
                    }
                    _ => {}
                }
            }
            match result {
                Err(e) => {
                    let stats = state.borrow().stats;
                    finish(sim, &state, Err((PollError::Grid(e), stats)));
                }
                Ok(PollResult::Complete(bytes)) => {
                    let mut stats = state.borrow().stats;
                    stats.final_bytes = bytes;
                    state.borrow_mut().stats = stats;
                    finish(sim, &state, Ok(stats));
                }
                Ok(PollResult::Failed(outcome)) => {
                    let stats = state.borrow().stats;
                    finish(sim, &state, Err((PollError::JobFailed(outcome), stats)));
                }
                Ok(PollResult::NotReady) | Ok(PollResult::Partial(_)) => {
                    if sim.now() + interval > deadline {
                        let stats = state.borrow().stats;
                        finish(
                            sim,
                            &state,
                            Err((PollError::TimedOut { polls: stats.polls }, stats)),
                        );
                        return;
                    }
                    sim.schedule(interval, move |sim| {
                        Self::tick(
                            sim, agent2, session, site2, handle2, interval, deadline, state,
                        );
                    });
                }
            }
        });
        sim.set_span_parent(prev);
    }
}

type DoneFn = Box<dyn FnOnce(&mut Sim, Result<PollStats, (PollError, PollStats)>)>;

struct LoopState {
    stats: PollStats,
    done: Option<DoneFn>,
    /// The `poller.poll_loop` span every poll nests under.
    span: simkit::SpanId,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::tests::fixture;
    use crate::agent::AgentConfig;
    use gridsim::gram::ExecutionModel;
    use simkit::KB;
    use std::cell::Cell;

    type OutcomeSlot = Rc<RefCell<Option<Result<PollStats, (PollError, PollStats)>>>>;

    struct Ready {
        sim: Sim,
        agent: Rc<CyberaideAgent>,
        site: Rc<GridSite>,
        session: SessionId,
        handle: JobHandle,
    }

    fn submit_job(runtime_s: u64, output_bytes: f64, limit_min: u64) -> Ready {
        let mut sim = Sim::new(0);
        let f = fixture(&mut sim, AgentConfig::default());
        let sid = Rc::new(Cell::new(None));
        let s2 = sid.clone();
        f.agent.authenticate(&mut sim, "alice", "pw", move |_, r| {
            s2.set(Some(r.unwrap()));
        });
        sim.run();
        let session = sid.get().unwrap();
        f.agent
            .stage_file(&mut sim, session, &f.site, "app.exe", 4096.0, |_, r| {
                r.unwrap()
            });
        sim.run();
        let jd = f
            .agent
            .generate_job_description("app.exe", &[], "app.out")
            .walltime(Duration::from_secs(limit_min * 60));
        let handle: Rc<RefCell<Option<JobHandle>>> = Rc::new(RefCell::new(None));
        let h2 = handle.clone();
        f.agent.submit_job(
            &mut sim,
            session,
            &f.site,
            &jd,
            ExecutionModel {
                actual_runtime: Duration::from_secs(runtime_s),
                output_bytes,
            },
            move |_, r| {
                *h2.borrow_mut() = Some(r.expect("submit"));
            },
        );
        // drain only the submission (job may still be running)
        let deadline = sim.now() + Duration::from_secs(10);
        sim.run_until(deadline);
        let handle = handle.borrow().clone().expect("handle");
        Ready {
            sim,
            agent: f.agent,
            site: f.site,
            session,
            handle,
        }
    }

    #[test]
    fn polls_until_completion_with_refetch_overhead() {
        let mut r = submit_job(60, 100.0 * KB, 60);
        let got: OutcomeSlot = Rc::new(RefCell::new(None));
        let g = got.clone();
        OutputPoller::default().start(
            &mut r.sim,
            Rc::clone(&r.agent),
            r.session,
            Rc::clone(&r.site),
            r.handle.clone(),
            move |_, res| *g.borrow_mut() = Some(res),
        );
        r.sim.run();
        let stats = got.borrow().clone().unwrap().expect("completed");
        assert_eq!(stats.final_bytes, 100.0 * KB);
        // 60 s runtime at ~9 s interval → several polls, each re-fetching
        assert!(stats.polls >= 4, "polls {}", stats.polls);
        // the re-fetch inefficiency: total fetched > final output
        assert!(
            stats.bytes_fetched > stats.final_bytes,
            "{stats:?}"
        );
        // periodic local spooling happened
        let disk = r.sim.recorder_ref().total("appliance.disk.write.bytes");
        assert!(disk > 100.0 * KB, "{disk}");
    }

    #[test]
    fn walltime_killed_job_reports_failure() {
        // runtime 10 min but limit 1 min → killed
        let mut r = submit_job(600, 50.0 * KB, 1);
        let got: OutcomeSlot = Rc::new(RefCell::new(None));
        let g = got.clone();
        OutputPoller::default().start(
            &mut r.sim,
            Rc::clone(&r.agent),
            r.session,
            Rc::clone(&r.site),
            r.handle.clone(),
            move |_, res| *g.borrow_mut() = Some(res),
        );
        r.sim.run();
        let outcome = got.borrow().clone().unwrap();
        match outcome {
            Err((PollError::JobFailed(JobOutcome::WalltimeExceeded), stats)) => {
                assert!(stats.polls >= 1);
            }
            other => panic!("expected walltime failure, got {other:?}"),
        }
    }

    #[test]
    fn crash_killed_job_surfaces_as_node_failure() {
        // a long job whose replica VM "dies" two minutes in
        let mut r = submit_job(600, 50.0 * KB, 60);
        let got: OutcomeSlot = Rc::new(RefCell::new(None));
        let g = got.clone();
        OutputPoller::default().start(
            &mut r.sim,
            Rc::clone(&r.agent),
            r.session,
            Rc::clone(&r.site),
            r.handle.clone(),
            move |_, res| *g.borrow_mut() = Some(res),
        );
        let site = Rc::clone(&r.site);
        let job = r.handle.job;
        r.sim.schedule(Duration::from_secs(120), move |sim| {
            gridsim::gram::Gatekeeper::kill(site.gatekeeper(), sim, job).unwrap();
        });
        r.sim.run();
        let outcome = got.borrow().clone().unwrap();
        match outcome {
            Err((PollError::JobFailed(JobOutcome::NodeFailure), stats)) => {
                assert!(stats.polls >= 2, "{stats:?}");
            }
            other => panic!("expected node failure, got {other:?}"),
        }
    }

    #[test]
    fn timeout_gives_up() {
        let mut r = submit_job(10_000, 10.0, 600);
        let got: OutcomeSlot = Rc::new(RefCell::new(None));
        let g = got.clone();
        OutputPoller {
            interval: Duration::from_secs(9),
            timeout: Duration::from_secs(60),
        }
        .start(
            &mut r.sim,
            Rc::clone(&r.agent),
            r.session,
            Rc::clone(&r.site),
            r.handle.clone(),
            move |_, res| *g.borrow_mut() = Some(res),
        );
        // run past the timeout but not to job completion
        let deadline = r.sim.now() + Duration::from_secs(300);
        r.sim.run_until(deadline);
        let outcome = got.borrow().clone().unwrap();
        match outcome {
            Err((PollError::TimedOut { polls }, _)) => assert!(polls >= 5, "{polls}"),
            other => panic!("expected timeout, got {other:?}"),
        }
        r.sim.run();
    }

    #[test]
    fn unknown_job_surfaces_grid_error() {
        let mut r = submit_job(5, 10.0, 60);
        let bogus = JobHandle {
            site: "tg1".into(),
            job: 999,
            output_file: "x".into(),
        };
        let got: OutcomeSlot = Rc::new(RefCell::new(None));
        let g = got.clone();
        OutputPoller::default().start(
            &mut r.sim,
            Rc::clone(&r.agent),
            r.session,
            Rc::clone(&r.site),
            bogus,
            move |_, res| *g.borrow_mut() = Some(res),
        );
        r.sim.run();
        let outcome = got.borrow().clone().unwrap();
        match outcome {
            Err((PollError::Grid(GridError::NoSuchJob(999)), _)) => {}
            other => panic!("expected NoSuchJob, got {other:?}"),
        }
    }

    #[test]
    fn poll_interval_spacing_matches_configuration() {
        let mut r = submit_job(45, 20.0 * KB, 60);
        OutputPoller {
            interval: Duration::from_secs(9),
            timeout: Duration::from_secs(3600),
        }
        .start(
            &mut r.sim,
            Rc::clone(&r.agent),
            r.session,
            Rc::clone(&r.site),
            r.handle.clone(),
            |_, res| {
                res.expect("completes");
            },
        );
        r.sim.run();
        // disk write peaks should appear in several distinct 3 s buckets
        let series = r
            .sim
            .recorder_ref()
            .series("appliance.disk.write.bytes")
            .expect("spooled");
        let peaks = series.peaks(1.0);
        assert!(peaks.len() >= 3, "expected periodic peaks, got {peaks:?}");
    }
}
