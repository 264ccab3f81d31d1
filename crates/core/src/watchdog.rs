//! The watchdog from the paper's `tools` package.
//!
//! "The 'tools' package contains tools like a watchdog class, that is used
//! to react correctly in some situations where a problem may occur. (For
//! example when a process takes too long to complete.)" (§VI). A
//! [`Watchdog`] guards an asynchronous operation: whichever of
//! *completion* or *timeout* happens first wins, the other becomes a
//! no-op.

use std::cell::Cell;
use std::rc::Rc;

use simkit::engine::EventId;
use simkit::{Duration, Sim};

/// Guard handle for one watched operation. The pending timeout event is
/// the armed state: it leaves the queue by firing or by `disarm`, never
/// both.
pub struct Watchdog {
    timed_out: Rc<Cell<bool>>,
    timeout_event: EventId,
}

impl Watchdog {
    /// Arm a watchdog: if [`Watchdog::disarm`] is not called within
    /// `timeout`, `on_timeout` fires (exactly once).
    pub fn arm<F>(sim: &mut Sim, timeout: Duration, on_timeout: F) -> Watchdog
    where
        F: FnOnce(&mut Sim) + 'static,
    {
        let timed_out = Rc::new(Cell::new(false));
        let fired = Rc::clone(&timed_out);
        let timeout_event = sim.schedule(timeout, move |sim| {
            fired.set(true);
            on_timeout(sim);
        });
        Watchdog {
            timed_out,
            timeout_event,
        }
    }

    /// Signal successful completion; the pending timeout event is removed
    /// from the queue so a drained simulation ends at the real completion
    /// instant. Returns `true` if the watchdog was still armed (the caller
    /// won the race and should proceed); `false` if the timeout already
    /// fired, or somebody disarmed first, and the completion must be
    /// dropped.
    pub fn disarm(&self, sim: &mut Sim) -> bool {
        sim.cancel_event(self.timeout_event)
    }

    /// Whether the timeout has fired.
    pub fn timed_out(&self) -> bool {
        self.timed_out.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_before_timeout_suppresses_it() {
        let mut sim = Sim::new(0);
        let timed_out = Rc::new(Cell::new(false));
        let t2 = timed_out.clone();
        let dog = Watchdog::arm(&mut sim, Duration::from_secs(10), move |_| t2.set(true));
        sim.schedule(Duration::from_secs(5), move |sim| {
            assert!(dog.disarm(sim));
        });
        sim.run();
        assert!(!timed_out.get());
        // the cancelled timeout no longer holds the clock hostage
        assert_eq!(sim.now(), simkit::SimTime::from_secs(5));
    }

    #[test]
    fn timeout_fires_when_never_disarmed() {
        let mut sim = Sim::new(0);
        let at = Rc::new(Cell::new(-1.0));
        let a2 = at.clone();
        let _dog = Watchdog::arm(&mut sim, Duration::from_secs(10), move |sim| {
            a2.set(sim.now().as_secs_f64());
        });
        sim.run();
        assert_eq!(at.get(), 10.0);
    }

    #[test]
    fn late_disarm_returns_false() {
        let mut sim = Sim::new(0);
        let dog = Rc::new(Watchdog::arm(&mut sim, Duration::from_secs(1), |_| {}));
        let d2 = Rc::clone(&dog);
        sim.schedule(Duration::from_secs(5), move |sim| {
            assert!(!d2.disarm(sim));
            assert!(d2.timed_out());
        });
        sim.run();
    }

    #[test]
    fn timeout_fires_only_once() {
        let mut sim = Sim::new(0);
        let count = Rc::new(Cell::new(0));
        let c2 = count.clone();
        let _dog = Watchdog::arm(&mut sim, Duration::from_secs(1), move |_| {
            c2.set(c2.get() + 1);
        });
        sim.run();
        assert_eq!(count.get(), 1);
    }
}
