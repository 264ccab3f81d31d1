//! Stage three of the front door: the op table.
//!
//! Every dispatched attempt — an invocation's try, or one branch of an
//! upload broadcast — is one *op*: an id, the replica it is outstanding
//! on, the work it is for (`W`, opaque here), and optionally a watchdog
//! event. The table answers exactly one question per op, exactly once:
//! [`OpTable::take`] for an answer, [`OpTable::lose_replica`] for a
//! replica that left without draining. Whichever comes first removes the
//! op, so the other finds nothing — a dead replica's late answer is a
//! no-op, not a double-settle.
//!
//! Replicas are keyed by [`ReplicaId`], handed out once per
//! `add_backend` and never reused, so nothing here compares names.

use std::collections::HashMap;

use simkit::engine::EventId;
use simkit::{Sim, SimTime};

/// Stable identity of one replica slot for the dispatcher's lifetime.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) struct ReplicaId(usize);

/// One outstanding attempt.
pub(super) struct PendingOp<W> {
    pub replica: ReplicaId,
    /// What the attempt is for; handed back when its fate is known.
    pub work: W,
    /// When the attempt was dispatched — the health plane's latency sample
    /// is `answer time − started`.
    pub started: SimTime,
    watchdog: Option<EventId>,
}

/// The central registry of outstanding attempts.
pub(super) struct OpTable<W> {
    next_op: u64,
    pending: HashMap<u64, PendingOp<W>>,
    /// Op ids outstanding per replica, oldest first, indexed by
    /// [`ReplicaId`]. A lost replica's entry stays behind, empty.
    by_replica: Vec<Vec<u64>>,
}

impl<W> OpTable<W> {
    pub fn new() -> OpTable<W> {
        OpTable {
            next_op: 0,
            pending: HashMap::new(),
            by_replica: Vec::new(),
        }
    }

    /// Make room for a new replica and name it.
    pub fn add_replica(&mut self) -> ReplicaId {
        self.by_replica.push(Vec::new());
        ReplicaId(self.by_replica.len() - 1)
    }

    /// Attempts outstanding on `replica`.
    pub fn outstanding(&self, replica: ReplicaId) -> usize {
        self.by_replica[replica.0].len()
    }

    /// Attempts outstanding across all replicas.
    pub fn total_outstanding(&self) -> usize {
        self.pending.len()
    }

    /// The replica a still-pending op is outstanding on.
    pub fn replica_of(&self, op_id: u64) -> Option<ReplicaId> {
        self.pending.get(&op_id).map(|op| op.replica)
    }

    /// Register one attempt on `replica`. `watchdog` is handed the new op
    /// id and may arm a timeout event for it. Returns the op id and how
    /// many attempts are now outstanding on the replica, this one included.
    pub fn register(
        &mut self,
        sim: &mut Sim,
        replica: ReplicaId,
        work: W,
        watchdog: impl FnOnce(&mut Sim, u64) -> Option<EventId>,
    ) -> (u64, usize) {
        let op_id = self.next_op;
        self.next_op += 1;
        let ops = &mut self.by_replica[replica.0];
        ops.push(op_id);
        let depth = ops.len();
        let op = PendingOp {
            replica,
            work,
            started: sim.now(),
            watchdog: watchdog(sim, op_id),
        };
        self.pending.insert(op_id, op);
        (op_id, depth)
    }

    /// Resolve an op as answered: remove it, disarm its watchdog. Also
    /// reports whether its replica has nothing left outstanding. `None`
    /// if the op was already resolved (a zombie answer).
    pub fn take(&mut self, sim: &mut Sim, op_id: u64) -> Option<(PendingOp<W>, bool)> {
        let op = self.pending.remove(&op_id)?;
        if let Some(ev) = op.watchdog {
            sim.cancel_event(ev);
        }
        let ops = &mut self.by_replica[op.replica.0];
        ops.retain(|&o| o != op_id);
        let idle = ops.is_empty();
        Some((op, idle))
    }

    /// `replica` is gone: remove every op outstanding on it, oldest first,
    /// watchdogs disarmed. The caller settles the work.
    pub fn lose_replica(&mut self, sim: &mut Sim, replica: ReplicaId) -> Vec<PendingOp<W>> {
        let lost = std::mem::take(&mut self.by_replica[replica.0]);
        let taken = lost.into_iter().map(|id| self.take(sim, id));
        taken
            .map(|op| op.expect("listed op is pending").0)
            .collect()
    }

    /// Replace the watchdog of every op outstanding on `replicas` with the
    /// event `rearm` schedules for it. Returns how many ops were re-armed.
    pub fn park(
        &mut self,
        sim: &mut Sim,
        replicas: &[ReplicaId],
        mut rearm: impl FnMut(&mut Sim, u64) -> EventId,
    ) -> usize {
        let mut parked = 0;
        for replica in replicas {
            for &id in &self.by_replica[replica.0] {
                let op = self.pending.get_mut(&id).expect("listed op is pending");
                if let Some(ev) = op.watchdog.take() {
                    sim.cancel_event(ev);
                }
                op.watchdog = Some(rearm(sim, id));
                parked += 1;
            }
        }
        parked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::Duration;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn no_watchdog(_: &mut Sim, _: u64) -> Option<EventId> {
        None
    }

    #[test]
    fn take_resolves_an_op_exactly_once_and_reports_idleness() {
        let mut sim = Sim::new(1);
        let mut table = OpTable::new();
        let r = table.add_replica();
        let (first, depth) = table.register(&mut sim, r, "first", no_watchdog);
        assert_eq!(depth, 1);
        let (second, depth) = table.register(&mut sim, r, "second", no_watchdog);
        assert_eq!(
            (depth, table.outstanding(r), table.total_outstanding()),
            (2, 2, 2)
        );
        assert_eq!(table.replica_of(second), Some(r));

        let (op, idle) = table.take(&mut sim, first).expect("pending");
        assert_eq!((op.work, op.replica, idle), ("first", r, false));
        assert!(
            table.take(&mut sim, first).is_none(),
            "second answer is a zombie"
        );
        let (op, idle) = table.take(&mut sim, second).expect("pending");
        assert_eq!((op.work, idle), ("second", true));
        assert_eq!(table.total_outstanding(), 0);
    }

    #[test]
    fn losing_a_replica_resolves_its_ops_oldest_first_and_leaves_the_rest() {
        let mut sim = Sim::new(2);
        let mut table = OpTable::new();
        let (dead, alive) = (table.add_replica(), table.add_replica());
        let a = table.register(&mut sim, dead, "a", no_watchdog).0;
        let kept = table.register(&mut sim, alive, "kept", no_watchdog).0;
        table.register(&mut sim, dead, "b", no_watchdog);

        let lost: Vec<&str> = table
            .lose_replica(&mut sim, dead)
            .into_iter()
            .map(|op| op.work)
            .collect();
        assert_eq!(lost, ["a", "b"]);
        assert!(
            table.take(&mut sim, a).is_none(),
            "late answer finds nothing"
        );
        assert_eq!((table.outstanding(dead), table.outstanding(alive)), (0, 1));
        assert!(table.take(&mut sim, kept).is_some());
    }

    #[test]
    fn watchdogs_fire_unless_answered_and_park_defers_them() {
        let mut sim = Sim::new(3);
        let fired: Rc<RefCell<Vec<u64>>> = Rc::default();
        let arm = |after: Duration| {
            let fired = Rc::clone(&fired);
            move |sim: &mut Sim, id: u64| {
                let fired = Rc::clone(&fired);
                sim.schedule(after, move |_| fired.borrow_mut().push(id))
            }
        };
        let mut table = OpTable::new();
        let (near, far) = (table.add_replica(), table.add_replica());
        let second = Duration::from_secs(1);
        let mut register = |replica| {
            let watchdog = |s: &mut Sim, id| Some(arm(second)(s, id));
            table.register(&mut sim, replica, (), watchdog).0
        };
        let (answered, silent, parked) = (register(near), register(near), register(far));
        assert!(table.take(&mut sim, answered).is_some());
        assert_eq!(
            table.park(&mut sim, &[far], arm(Duration::from_secs(30))),
            1
        );

        sim.run_until(SimTime::from_secs(2));
        assert_eq!(
            *fired.borrow(),
            [silent],
            "answered: disarmed; parked: deferred"
        );
        sim.run();
        assert_eq!(*fired.borrow(), [silent, parked]);
        assert_eq!(sim.now(), SimTime::from_secs(30));
    }
}
