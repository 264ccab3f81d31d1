//! Zero-downtime version rollouts over a [`Fleet`].
//!
//! The paper's pipeline stops at "boot it once"; a production fleet
//! upgrades **under load**. [`RolloutController::start`] drives a fleet
//! from its current artifact version to [`RolloutConfig::to_version`]
//! by *replacement* — replicas are never mutated in place — under one
//! of three strategies:
//!
//! * [`RolloutStrategy::Rolling`] — boot one vN+1 replica, wait for it
//!   to join the rotation, drain-and-retire one vN replica, repeat.
//!   The fleet never drops below [`RolloutConfig::min_healthy`] active
//!   replicas and no accepted request is dropped (retirement drains).
//! * [`RolloutStrategy::Canary`] — boot a single vN+1 replica, shift a
//!   configurable fraction of affinity pins onto it (ranked by the
//!   same rendezvous hash that reassigns pins after a loss, so each
//!   shifted principal re-authenticates exactly once) plus a share of
//!   first-sight traffic, judge its windowed p99 against the peer
//!   fleet over a judgment window, then **promote** (continue as
//!   Rolling) or **auto-rollback** — drain the canary and restore the
//!   shifted pins deterministically. A canary that dies mid-judgment
//!   (chaos) rolls back immediately.
//! * [`RolloutStrategy::Restart`] — the naive stop-the-world baseline:
//!   crash every replica, boot replacements. Drops in-flight work and
//!   sheds arrivals for the whole boot window; exists so the benches
//!   can price what the other two strategies buy.
//!
//! The controller is a poll loop on the virtual clock (no RNG — every
//! decision is a pure function of fleet state), so same-seed runs
//! replay byte-identically.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use simkit::{Duration, Sim};

use crate::fleet::Fleet;
use crate::health::{lower_median, HealthPlane};

/// Canary judgment knobs.
#[derive(Clone, Debug)]
pub struct CanaryConfig {
    /// Fraction of live affinity pins shifted onto the canary.
    pub pin_fraction: f64,
    /// Percent of first-sight routes diverted to the canary.
    pub first_sight_pct: u32,
    /// Judgment window: the canary must serve this long before the
    /// promote/rollback decision.
    pub judgment: Duration,
    /// Rollback when the canary's windowed p99 exceeds this factor times
    /// the peer fleet's (lower-)median windowed p99.
    pub p99_factor: f64,
    /// Judge only once the canary has at least this many latency
    /// samples; the window extends (up to 3× `judgment`) until it does.
    pub min_samples: u64,
}

impl Default for CanaryConfig {
    fn default() -> Self {
        CanaryConfig {
            pin_fraction: 0.2,
            first_sight_pct: 20,
            judgment: Duration::from_secs(120),
            p99_factor: 3.0,
            min_samples: 5,
        }
    }
}

/// How the fleet gets from vN to vN+1.
#[derive(Clone, Debug)]
pub enum RolloutStrategy {
    /// Boot-then-retire, one replica at a time. Zero dropped requests.
    Rolling,
    /// One canary first, judged on windowed p99; promote to a rolling
    /// replacement or auto-rollback.
    Canary(CanaryConfig),
    /// Stop-the-world: crash everything, boot replacements. The
    /// baseline that drops requests.
    Restart,
}

/// One rollout order.
#[derive(Clone, Debug)]
pub struct RolloutConfig {
    /// Version the fleet should end up serving.
    pub to_version: u32,
    /// Strategy to get there.
    pub strategy: RolloutStrategy,
    /// Never let a retirement take the active count to (or below) this
    /// floor; the controller boots more capacity first.
    pub min_healthy: usize,
    /// Poll interval of the controller's lifecycle loop.
    pub poll: Duration,
}

impl RolloutConfig {
    /// Rolling upgrade to `to_version` with a floor of one active
    /// replica and a 5-second poll.
    pub fn rolling(to_version: u32) -> RolloutConfig {
        RolloutConfig {
            to_version,
            strategy: RolloutStrategy::Rolling,
            min_healthy: 1,
            poll: Duration::from_secs(5),
        }
    }

    /// Canary upgrade to `to_version` with default judgment knobs.
    pub fn canary(to_version: u32) -> RolloutConfig {
        RolloutConfig {
            strategy: RolloutStrategy::Canary(CanaryConfig::default()),
            ..RolloutConfig::rolling(to_version)
        }
    }

    /// The naive restart baseline.
    pub fn restart(to_version: u32) -> RolloutConfig {
        RolloutConfig {
            strategy: RolloutStrategy::Restart,
            ..RolloutConfig::rolling(to_version)
        }
    }
}

/// How a finished rollout ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RolloutOutcome {
    /// Rolling/Restart ran to completion (every active replica serves
    /// the target version).
    Completed,
    /// The canary passed judgment and the roll completed behind it.
    Promoted,
    /// The canary failed judgment (or died); the fleet is back on the
    /// old version and the shifted pins were restored.
    RolledBack,
}

impl RolloutOutcome {
    /// The variant's name — the text `Debug` prints — without building a
    /// `String`, for the span attribute dropped when telemetry is off.
    fn name(self) -> &'static str {
        match self {
            RolloutOutcome::Completed => "Completed",
            RolloutOutcome::Promoted => "Promoted",
            RolloutOutcome::RolledBack => "RolledBack",
        }
    }
}

/// One retirement the controller performed, for invariant checks:
/// the active count *before* the drain began always exceeds
/// `min_healthy`.
#[derive(Clone, Debug)]
pub struct RetireEvent {
    /// Replica taken out of rotation.
    pub replica: String,
    /// Active replicas at the moment retirement was ordered.
    pub active_before: usize,
}

enum Phase {
    /// Waiting for `String` (a replacement) to join the rotation.
    Booting(String),
    /// Rolling loop: decide the next boot/retire step.
    Step,
    /// Canary `String` is serving its judgment window since `start`.
    Judging {
        canary: String,
        started: simkit::SimTime,
    },
    /// Restart baseline: waiting for every replacement to activate.
    Restarting(Vec<String>),
    Done,
}

/// Drives one [`RolloutConfig`] against a fleet; create with
/// [`RolloutController::start`].
pub struct RolloutController {
    fleet: Rc<Fleet>,
    health: Option<Rc<HealthPlane>>,
    cfg: RolloutConfig,
    from_version: u32,
    phase: RefCell<Phase>,
    /// Undo log of the canary pin shift.
    shifted: RefCell<Vec<(String, String)>>,
    canary_name: RefCell<Option<String>>,
    retire_log: RefCell<Vec<RetireEvent>>,
    replaced: Cell<u64>,
    rollbacks: Cell<u64>,
    outcome: RefCell<Option<RolloutOutcome>>,
}

impl RolloutController {
    /// Start a rollout. The fleet's health plane (if attached to its
    /// dispatcher) supplies the canary judgment signal; a canary roll
    /// without one promotes by default once the window passes.
    pub fn start(sim: &mut Sim, fleet: &Rc<Fleet>, cfg: RolloutConfig) -> Rc<RolloutController> {
        assert!(cfg.min_healthy >= 1, "min_healthy floor must be at least 1");
        assert!(!cfg.poll.is_zero(), "poll interval must be positive");
        let from_version = fleet.target_version();
        let ctl = Rc::new(RolloutController {
            fleet: Rc::clone(fleet),
            health: fleet.dispatcher().health_plane(),
            from_version,
            phase: RefCell::new(Phase::Step),
            shifted: RefCell::new(Vec::new()),
            canary_name: RefCell::new(None),
            retire_log: RefCell::new(Vec::new()),
            replaced: Cell::new(0),
            rollbacks: Cell::new(0),
            outcome: RefCell::new(None),
            cfg,
        });
        let span = sim.span_begin("rollout.start");
        sim.span_attr(span, "to_version", u64::from(ctl.cfg.to_version));
        sim.span_attr(span, "strategy", ctl.strategy_label());
        sim.span_end(span);
        ctl.fleet.set_target_version(ctl.cfg.to_version);
        match &ctl.cfg.strategy {
            RolloutStrategy::Rolling => ctl.clone().step(sim),
            RolloutStrategy::Canary(_) => ctl.clone().launch_canary(sim),
            RolloutStrategy::Restart => ctl.clone().restart_all(sim),
        }
        ctl
    }

    /// Short strategy name for spans and CSV rows.
    pub fn strategy_label(&self) -> &'static str {
        match self.cfg.strategy {
            RolloutStrategy::Rolling => "rolling",
            RolloutStrategy::Canary(_) => "canary",
            RolloutStrategy::Restart => "restart",
        }
    }

    /// `Some` once the rollout finished (promote, completion, or
    /// rollback).
    pub fn outcome(&self) -> Option<RolloutOutcome> {
        *self.outcome.borrow()
    }

    /// Old-version replicas replaced so far.
    pub fn replaced(&self) -> u64 {
        self.replaced.get()
    }

    /// Auto-rollbacks performed (0 or 1 per controller).
    pub fn rollbacks(&self) -> u64 {
        self.rollbacks.get()
    }

    /// The canary replica's name, once one was booted.
    pub fn canary_name(&self) -> Option<String> {
        self.canary_name.borrow().clone()
    }

    /// Pins shifted onto the canary (the undo log's size).
    pub fn shifted_pins(&self) -> usize {
        self.shifted.borrow().len()
    }

    /// Every retirement this controller ordered, in order.
    pub fn retire_log(&self) -> Vec<RetireEvent> {
        self.retire_log.borrow().clone()
    }

    /// The floor no retirement may reach ([`RolloutConfig::min_healthy`]).
    pub fn min_healthy(&self) -> usize {
        self.cfg.min_healthy
    }

    // -- rolling ------------------------------------------------------------

    /// One rolling step: done when no old-version replica remains;
    /// otherwise boot a replacement (retirement happens when the boot
    /// lands, so capacity never dips).
    fn step(self: Rc<Self>, sim: &mut Sim) {
        let old_actives = self.old_version_actives();
        if old_actives.is_empty() {
            // stragglers may still be draining; the rotation is clean
            let outcome = match self.cfg.strategy {
                RolloutStrategy::Canary(_) => RolloutOutcome::Promoted,
                _ => RolloutOutcome::Completed,
            };
            self.finish(sim, outcome);
            return;
        }
        let name = self.fleet.scale_up(sim);
        sim.counter_add("rollout.boot", 1);
        *self.phase.borrow_mut() = Phase::Booting(name);
        self.poll_later(sim);
    }

    /// Drain-and-retire the oldest old-version replica and log it — but
    /// never through the floor: a crash may have shrunk the fleet under us,
    /// and then the capacity just added only restored it.
    fn retire_oldest(&self, sim: &mut Sim) {
        let active = self.fleet.active_replicas();
        if active <= self.cfg.min_healthy {
            return;
        }
        let Some(victim) = self.old_version_actives().first().cloned() else {
            return;
        };
        if self.fleet.retire_replica(sim, &victim) {
            sim.counter_add("rollout.retire", 1);
            self.replaced.set(self.replaced.get() + 1);
            self.retire_log.borrow_mut().push(RetireEvent {
                replica: victim,
                active_before: active,
            });
        }
    }

    /// The boot we are waiting on landed (or died): retire one
    /// old-version replica if the floor allows, then take the next step.
    fn on_boot_poll(self: Rc<Self>, sim: &mut Sim, name: String) {
        if self.fleet.replica_booting(&name) {
            *self.phase.borrow_mut() = Phase::Booting(name);
            self.poll_later(sim);
            return;
        }
        if self.fleet.replica_version(&name).is_some() {
            // in rotation: this boot pays for one retirement
            self.retire_oldest(sim);
        }
        // a boot that died (crashed before activating) just loops:
        // the next step orders another replacement
        self.step(sim);
    }

    // -- canary -------------------------------------------------------------

    fn canary_cfg(&self) -> &CanaryConfig {
        match &self.cfg.strategy {
            RolloutStrategy::Canary(c) => c,
            _ => unreachable!("canary phase outside canary strategy"),
        }
    }

    fn launch_canary(self: Rc<Self>, sim: &mut Sim) {
        let name = self.fleet.scale_up(sim);
        sim.counter_add("rollout.boot", 1);
        *self.canary_name.borrow_mut() = Some(name.clone());
        *self.phase.borrow_mut() = Phase::Booting(name);
        self.poll_later(sim);
    }

    /// The canary joined the rotation: divert its traffic share and
    /// open the judgment window.
    fn on_canary_active(self: Rc<Self>, sim: &mut Sim, canary: String) {
        let c = self.canary_cfg();
        let shifted = self
            .fleet
            .dispatcher()
            .shift_pins(&canary, c.pin_fraction);
        self.fleet
            .dispatcher()
            .set_canary(&canary, c.first_sight_pct);
        let span = sim.span_begin("rollout.canary_open");
        sim.span_attr(span, "canary", canary.clone());
        sim.span_attr(span, "shifted_pins", shifted.len() as u64);
        sim.span_end(span);
        *self.shifted.borrow_mut() = shifted;
        *self.phase.borrow_mut() = Phase::Judging {
            canary,
            started: sim.now(),
        };
        self.poll_later(sim);
    }

    /// One judgment poll: a dead canary rolls back immediately; at the
    /// window end the p99 comparison decides.
    fn on_judgment_poll(self: Rc<Self>, sim: &mut Sim, canary: String, started: simkit::SimTime) {
        if self.fleet.replica_version(&canary).is_none() {
            // chaos got it mid-judgment: its pins are already orphaned
            // (crash path), restore_pins skips those, and there is
            // nothing left to drain
            self.rollback(sim, &canary, "canary died");
            return;
        }
        let c = self.canary_cfg();
        let elapsed = sim.now() - started;
        if elapsed < c.judgment {
            *self.phase.borrow_mut() = Phase::Judging { canary, started };
            self.poll_later(sim);
            return;
        }
        let verdict = self.judge(sim, &canary);
        match verdict {
            Verdict::Extend if elapsed < c.judgment.saturating_mul(3) => {
                *self.phase.borrow_mut() = Phase::Judging { canary, started };
                self.poll_later(sim);
            }
            Verdict::Fail => self.rollback(sim, &canary, "p99 regression"),
            // Pass — or starved of samples through 3 windows (nothing
            // routed its way: treat like a pass, rolling will judge it
            // again simply by serving)
            _ => self.promote(sim, &canary),
        }
    }

    /// Compare the canary's windowed p99 against the lower-median of
    /// its peers'. No health plane, or peers too quiet to score — no
    /// verdict, extend the window.
    fn judge(&self, sim: &Sim, canary: &str) -> Verdict {
        let Some(health) = &self.health else {
            return Verdict::Pass;
        };
        let c = self.canary_cfg();
        let now = sim.now();
        let Some(mine) = health.replica_health(now, canary) else {
            return Verdict::Extend;
        };
        if mine.samples < c.min_samples {
            return Verdict::Extend;
        }
        let peers: Vec<f64> = self
            .fleet
            .active_replica_names()
            .into_iter()
            .filter(|n| n != canary)
            .filter_map(|n| health.replica_health(now, &n))
            .filter(|h| h.samples >= c.min_samples)
            .map(|h| h.p99_s)
            .collect();
        if peers.is_empty() {
            return Verdict::Extend;
        }
        let median = lower_median(peers.into_iter());
        if mine.p99_s > c.p99_factor * median.max(f64::EPSILON) {
            Verdict::Fail
        } else {
            Verdict::Pass
        }
    }

    /// Canary passed: stop the traffic diversion (it serves as a
    /// normal replica now; the shifted pins stay) and continue as a
    /// rolling replacement for the rest of the old fleet.
    fn promote(self: Rc<Self>, sim: &mut Sim, canary: &str) {
        self.fleet.dispatcher().clear_canary();
        let span = sim.span_begin("rollout.promote");
        sim.span_attr(span, "canary", canary.to_owned());
        sim.span_end(span);
        sim.counter_add("rollout.promoted", 1);
        // the canary already replaced one old replica's worth of
        // capacity: retire the first victim right away if possible
        self.retire_oldest(sim);
        self.step(sim);
    }

    /// Canary failed (or died): restore the shifted pins, put the
    /// target version back, drain the canary out of rotation.
    fn rollback(self: Rc<Self>, sim: &mut Sim, canary: &str, why: &str) {
        self.fleet.dispatcher().clear_canary();
        let restored = self
            .fleet
            .dispatcher()
            .restore_pins(canary, &self.shifted.borrow());
        self.fleet.set_target_version(self.from_version);
        let drained = self.fleet.retire_replica(sim, canary);
        let span = sim.span_begin("rollout.rollback");
        sim.span_attr(span, "canary", canary.to_owned());
        sim.span_attr(span, "why", why.to_owned());
        sim.span_attr(span, "restored_pins", restored as u64);
        sim.span_attr(span, "drained", drained);
        sim.span_end(span);
        sim.counter_add("rollout.rollback", 1);
        self.rollbacks.set(self.rollbacks.get() + 1);
        self.finish(sim, RolloutOutcome::RolledBack);
    }

    // -- restart baseline ---------------------------------------------------

    /// Stop the world: crash every active replica, then boot the same
    /// count of replacements at the target version.
    fn restart_all(self: Rc<Self>, sim: &mut Sim) {
        let names = self.fleet.active_replica_names();
        let count = names.len().max(self.cfg.min_healthy);
        for name in &names {
            self.fleet.crash_replica(sim, name);
        }
        sim.counter_add("rollout.restart_kills", names.len() as u64);
        let mut booted = Vec::with_capacity(count);
        for _ in 0..count {
            booted.push(self.fleet.scale_up(sim));
            sim.counter_add("rollout.boot", 1);
        }
        self.replaced.set(names.len() as u64);
        *self.phase.borrow_mut() = Phase::Restarting(booted);
        self.poll_later(sim);
    }

    fn on_restart_poll(self: Rc<Self>, sim: &mut Sim, names: Vec<String>) {
        let pending: Vec<String> = names
            .into_iter()
            .filter(|n| self.fleet.replica_booting(n))
            .collect();
        if pending.is_empty() {
            self.finish(sim, RolloutOutcome::Completed);
        } else {
            *self.phase.borrow_mut() = Phase::Restarting(pending);
            self.poll_later(sim);
        }
    }

    // -- shared machinery ---------------------------------------------------

    fn old_version_actives(&self) -> Vec<String> {
        self.fleet
            .active_replica_names()
            .into_iter()
            .filter(|n| {
                self.fleet
                    .replica_version(n)
                    .is_some_and(|v| v != self.cfg.to_version)
            })
            .collect()
    }

    fn poll_later(self: Rc<Self>, sim: &mut Sim) {
        let poll = self.cfg.poll;
        sim.schedule(poll, move |sim| self.tick(sim));
    }

    fn tick(self: Rc<Self>, sim: &mut Sim) {
        let phase = std::mem::replace(&mut *self.phase.borrow_mut(), Phase::Done);
        match phase {
            Phase::Booting(name) => match &self.cfg.strategy {
                RolloutStrategy::Canary(_) if self.canary_pending(&name) => {
                    if self.fleet.replica_booting(&name) {
                        *self.phase.borrow_mut() = Phase::Booting(name);
                        self.poll_later(sim);
                    } else if self.fleet.replica_version(&name).is_some() {
                        self.on_canary_active(sim, name);
                    } else {
                        // the canary died before ever serving
                        self.rollback(sim, &name, "canary died booting");
                    }
                }
                _ => self.on_boot_poll(sim, name),
            },
            Phase::Step => self.step(sim),
            Phase::Judging { canary, started } => self.on_judgment_poll(sim, canary, started),
            Phase::Restarting(names) => self.on_restart_poll(sim, names),
            Phase::Done => {}
        }
    }

    /// Is `name` the canary we are still waiting to open (as opposed
    /// to a post-promotion rolling boot)? Replica names are unique, so
    /// name identity is the whole test.
    fn canary_pending(&self, name: &str) -> bool {
        self.canary_name.borrow().as_deref() == Some(name)
    }

    fn finish(&self, sim: &mut Sim, outcome: RolloutOutcome) {
        *self.phase.borrow_mut() = Phase::Done;
        if self.outcome.borrow().is_some() {
            return;
        }
        *self.outcome.borrow_mut() = Some(outcome);
        let span = sim.span_begin("rollout.done");
        sim.span_attr(span, "outcome", outcome.name());
        sim.span_attr(span, "replaced", self.replaced.get());
        sim.span_end(span);
        sim.counter_add("rollout.done", 1);
    }
}

enum Verdict {
    Pass,
    Fail,
    /// Not enough signal yet; extend the judgment window.
    Extend,
}

#[cfg(test)]
mod tests {
    use super::RolloutOutcome;

    #[test]
    fn outcome_name_is_its_debug_text() {
        for o in [
            RolloutOutcome::Completed,
            RolloutOutcome::Promoted,
            RolloutOutcome::RolledBack,
        ] {
            assert_eq!(o.name(), format!("{o:?}"));
        }
    }
}
