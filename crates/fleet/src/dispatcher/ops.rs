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
//! `add_backend` and never reused, so nothing here compares names. Ops
//! live in a slab: an [`OpId`] is a slot index plus the slot's
//! generation, so registering and resolving an op hash nothing, and an
//! answer for an op whose slot has since been reused finds a newer
//! generation there and is a zombie all the same.

use simkit::engine::EventId;
use simkit::{Sim, SimTime};

/// Stable identity of one replica slot for the dispatcher's lifetime.
/// Handed out densely, in `add_backend` order, starting at zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) struct ReplicaId(usize);

impl ReplicaId {
    /// The id's position in add order: 0 for the first replica.
    pub fn index(self) -> usize {
        self.0
    }

    /// The id the `n`th added replica gets.
    #[cfg(test)]
    pub fn nth(n: usize) -> ReplicaId {
        ReplicaId(n)
    }
}

/// One op's handle: its slab slot and the generation it was registered
/// under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) struct OpId {
    slot: u32,
    generation: u32,
}

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

/// One slab slot: the op it holds, if any, and the generation an
/// [`OpId`] must carry to reach it. The generation moves when the op
/// leaves, so every id handed out for this slot is used once.
struct Entry<W> {
    generation: u32,
    op: Option<PendingOp<W>>,
}

/// The central registry of outstanding attempts.
pub(super) struct OpTable<W> {
    slab: Vec<Entry<W>>,
    /// Empty slab slots, reused last-freed first.
    free: Vec<u32>,
    /// Ops pending across all replicas.
    pending: usize,
    /// Op ids outstanding per replica, oldest first, indexed by
    /// [`ReplicaId`]. A lost replica's entry stays behind, empty.
    by_replica: Vec<Vec<OpId>>,
}

impl<W> OpTable<W> {
    pub fn new() -> OpTable<W> {
        OpTable {
            slab: Vec::new(),
            free: Vec::new(),
            pending: 0,
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
        self.pending
    }

    /// The replica a still-pending op is outstanding on.
    pub fn replica_of(&self, id: OpId) -> Option<ReplicaId> {
        let entry = self.slab.get(id.slot as usize)?;
        let op = entry
            .op
            .as_ref()
            .filter(|_| entry.generation == id.generation)?;
        Some(op.replica)
    }

    /// Register one attempt on `replica`. `watchdog` is handed the new op
    /// id and may arm a timeout event for it. Returns the op id and how
    /// many attempts are now outstanding on the replica, this one included.
    pub fn register(
        &mut self,
        sim: &mut Sim,
        replica: ReplicaId,
        work: W,
        watchdog: impl FnOnce(&mut Sim, OpId) -> Option<EventId>,
    ) -> (OpId, usize) {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slab.push(Entry {
                generation: 0,
                op: None,
            });
            (self.slab.len() - 1) as u32
        });
        let id = OpId {
            slot,
            generation: self.slab[slot as usize].generation,
        };
        let ops = &mut self.by_replica[replica.0];
        ops.push(id);
        let depth = ops.len();
        let op = PendingOp {
            replica,
            work,
            started: sim.now(),
            watchdog: watchdog(sim, id),
        };
        self.slab[slot as usize].op = Some(op);
        self.pending += 1;
        (id, depth)
    }

    /// Resolve an op as answered: remove it, disarm its watchdog. Also
    /// reports whether its replica has nothing left outstanding. `None`
    /// if the op was already resolved (a zombie answer).
    pub fn take(&mut self, sim: &mut Sim, id: OpId) -> Option<(PendingOp<W>, bool)> {
        let entry = self.slab.get_mut(id.slot as usize)?;
        if entry.generation != id.generation {
            return None;
        }
        let op = entry.op.take()?;
        entry.generation = entry.generation.wrapping_add(1);
        self.free.push(id.slot);
        self.pending -= 1;
        if let Some(ev) = op.watchdog {
            sim.cancel_event(ev);
        }
        let ops = &mut self.by_replica[op.replica.0];
        ops.retain(|&o| o != id);
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
        mut rearm: impl FnMut(&mut Sim, OpId) -> EventId,
    ) -> usize {
        let mut parked = 0;
        for replica in replicas {
            for &id in &self.by_replica[replica.0] {
                let entry = &mut self.slab[id.slot as usize];
                let op = entry.op.as_mut().expect("listed op is pending");
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

/// The op table as it was before the slab: pending ops in a
/// `HashMap<u64, _>` under a counter id — kept as the executable
/// reference the slab is held to, step for step.
#[cfg(test)]
mod map_model {
    use std::collections::HashMap;

    use simkit::engine::EventId;
    use simkit::Sim;

    use super::{PendingOp, ReplicaId};

    pub struct OpTable<W> {
        next_op: u64,
        pending: HashMap<u64, PendingOp<W>>,
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

        pub fn add_replica(&mut self) -> ReplicaId {
            self.by_replica.push(Vec::new());
            ReplicaId(self.by_replica.len() - 1)
        }

        pub fn outstanding(&self, replica: ReplicaId) -> usize {
            self.by_replica[replica.0].len()
        }

        pub fn total_outstanding(&self) -> usize {
            self.pending.len()
        }

        pub fn replica_of(&self, op_id: u64) -> Option<ReplicaId> {
            self.pending.get(&op_id).map(|op| op.replica)
        }

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

        pub fn lose_replica(&mut self, sim: &mut Sim, replica: ReplicaId) -> Vec<PendingOp<W>> {
            let lost = std::mem::take(&mut self.by_replica[replica.0]);
            let taken = lost.into_iter().map(|id| self.take(sim, id));
            taken
                .map(|op| op.expect("listed op is pending").0)
                .collect()
        }

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
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::{ProptestConfig, Strategy};
    use simkit::Duration;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn no_watchdog(_: &mut Sim, _: OpId) -> Option<EventId> {
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
        let fired: Rc<RefCell<Vec<OpId>>> = Rc::default();
        let arm = |after: Duration| {
            let fired = Rc::clone(&fired);
            move |sim: &mut Sim, id: OpId| {
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

    /// One step of an op-table program. Indices wrap onto whatever exists
    /// when the step runs; a step with nothing to act on is skipped.
    #[derive(Clone, Debug)]
    enum Step {
        AddReplica,
        /// An attempt on replica `r`, its watchdog armed `watchdog_ms` out.
        Register {
            r: usize,
            watchdog_ms: Option<u64>,
        },
        /// Answer the `n`th op ever registered — a zombie if it is gone.
        Take(usize),
        ReplicaOf(usize),
        Lose(usize),
        Park {
            rs: Vec<usize>,
            after_ms: u64,
        },
        Run(u64),
    }

    /// Registers and answers weigh most; the weights are `kind`'s buckets.
    fn arb_step() -> impl Strategy<Value = Step> {
        let draws = (
            0u32..12,
            0usize..64,
            proptest::option::of(1u64..50),
            proptest::collection::vec(0usize..8, 0..3),
            0u64..80,
        );
        draws.prop_map(|(kind, n, watchdog_ms, rs, ms)| match kind {
            0 => Step::AddReplica,
            1..=4 => Step::Register { r: n, watchdog_ms },
            5..=7 => Step::Take(n),
            8 => Step::ReplicaOf(n),
            9 => Step::Lose(n),
            10 => Step::Park {
                rs,
                after_ms: ms + 1,
            },
            _ => Step::Run(ms / 2),
        })
    }

    /// What a program observes of a table, ops named by registration
    /// order so the two tables' ids never need to agree.
    #[derive(Debug, PartialEq)]
    enum Seen {
        Registered { depth: usize, total: usize },
        Taken(Option<(usize, usize, u64, bool)>),
        ReplicaOf(Option<usize>),
        Lost(Vec<usize>),
        Parked(usize),
        Rearmed(usize),
        Fired(usize, u64),
        Outstanding(Vec<usize>, usize),
    }

    /// The interface both tables share, so one program drives either.
    trait Table {
        type Id: Copy + PartialEq + std::fmt::Debug;
        fn new() -> Self;
        fn add_replica(&mut self) -> ReplicaId;
        fn outstanding(&self, r: ReplicaId) -> usize;
        fn total_outstanding(&self) -> usize;
        fn replica_of(&self, id: Self::Id) -> Option<ReplicaId>;
        fn register(
            &mut self,
            sim: &mut Sim,
            r: ReplicaId,
            work: usize,
            watchdog: impl FnOnce(&mut Sim, Self::Id) -> Option<EventId>,
        ) -> (Self::Id, usize);
        fn take(&mut self, sim: &mut Sim, id: Self::Id) -> Option<(PendingOp<usize>, bool)>;
        fn lose_replica(&mut self, sim: &mut Sim, r: ReplicaId) -> Vec<PendingOp<usize>>;
        fn park(
            &mut self,
            sim: &mut Sim,
            rs: &[ReplicaId],
            rearm: impl FnMut(&mut Sim, Self::Id) -> EventId,
        ) -> usize;
    }

    macro_rules! impl_table {
        ($table:ty, $id:ty) => {
            impl Table for $table {
                type Id = $id;
                fn new() -> Self {
                    <$table>::new()
                }
                fn add_replica(&mut self) -> ReplicaId {
                    <$table>::add_replica(self)
                }
                fn outstanding(&self, r: ReplicaId) -> usize {
                    <$table>::outstanding(self, r)
                }
                fn total_outstanding(&self) -> usize {
                    <$table>::total_outstanding(self)
                }
                fn replica_of(&self, id: $id) -> Option<ReplicaId> {
                    <$table>::replica_of(self, id)
                }
                fn register(
                    &mut self,
                    sim: &mut Sim,
                    r: ReplicaId,
                    work: usize,
                    watchdog: impl FnOnce(&mut Sim, $id) -> Option<EventId>,
                ) -> ($id, usize) {
                    <$table>::register(self, sim, r, work, watchdog)
                }
                fn take(&mut self, sim: &mut Sim, id: $id) -> Option<(PendingOp<usize>, bool)> {
                    <$table>::take(self, sim, id)
                }
                fn lose_replica(&mut self, sim: &mut Sim, r: ReplicaId) -> Vec<PendingOp<usize>> {
                    <$table>::lose_replica(self, sim, r)
                }
                fn park(
                    &mut self,
                    sim: &mut Sim,
                    rs: &[ReplicaId],
                    rearm: impl FnMut(&mut Sim, $id) -> EventId,
                ) -> usize {
                    <$table>::park(self, sim, rs, rearm)
                }
            }
        };
    }

    impl_table!(OpTable<usize>, OpId);
    impl_table!(map_model::OpTable<usize>, u64);

    /// Run `steps` against a fresh `T` in its own `Sim`, then drain the
    /// kernel so every watchdog still armed fires.
    fn run_program<T: Table>(steps: &[Step]) -> Vec<Seen> {
        let mut sim = Sim::new(1);
        let seen: Rc<RefCell<Vec<Seen>>> = Rc::default();
        let fire_at = |sim: &mut Sim, after_ms: u64, n: usize| {
            let seen = Rc::clone(&seen);
            sim.schedule(Duration::from_millis(after_ms), move |sim| {
                seen.borrow_mut().push(Seen::Fired(n, sim.now().ticks()));
            })
        };
        let mut table = T::new();
        let mut replicas: Vec<ReplicaId> = Vec::new();
        let mut ops: Vec<T::Id> = Vec::new();
        let log = |s: Seen| seen.borrow_mut().push(s);
        for step in steps {
            match step {
                Step::AddReplica => replicas.push(table.add_replica()),
                Step::Register { r, watchdog_ms } if !replicas.is_empty() => {
                    let (n, r) = (ops.len(), replicas[r % replicas.len()]);
                    let mut armed_for = None;
                    let (id, depth) = table.register(&mut sim, r, n, |sim, id| {
                        armed_for = Some(id);
                        watchdog_ms.map(|ms| fire_at(sim, ms, n))
                    });
                    assert_eq!(
                        armed_for,
                        Some(id),
                        "the watchdog is armed for the op it guards"
                    );
                    ops.push(id);
                    log(Seen::Registered {
                        depth,
                        total: table.total_outstanding(),
                    });
                }
                Step::Take(n) if !ops.is_empty() => {
                    let taken = table.take(&mut sim, ops[n % ops.len()]);
                    let taken = taken
                        .map(|(op, idle)| (op.work, op.replica.index(), op.started.ticks(), idle));
                    log(Seen::Taken(taken));
                }
                Step::ReplicaOf(n) if !ops.is_empty() => {
                    let r = table.replica_of(ops[n % ops.len()]);
                    log(Seen::ReplicaOf(r.map(ReplicaId::index)));
                }
                Step::Lose(r) if !replicas.is_empty() => {
                    let lost = table.lose_replica(&mut sim, replicas[r % replicas.len()]);
                    log(Seen::Lost(lost.into_iter().map(|op| op.work).collect()));
                }
                Step::Park { rs, after_ms } if !replicas.is_empty() => {
                    let rs: Vec<ReplicaId> =
                        rs.iter().map(|r| replicas[r % replicas.len()]).collect();
                    let parked = table.park(&mut sim, &rs, |sim, id| {
                        let n = ops.iter().position(|&o| o == id).expect("a registered op");
                        log(Seen::Rearmed(n));
                        fire_at(sim, *after_ms, n)
                    });
                    log(Seen::Parked(parked));
                }
                Step::Run(ms) => {
                    let until = sim.now() + Duration::from_millis(*ms);
                    sim.run_until(until);
                }
                _ => {}
            }
        }
        let depths = replicas.iter().map(|&r| table.outstanding(r)).collect();
        log(Seen::Outstanding(depths, table.total_outstanding()));
        sim.run();
        assert_eq!(sim.pending(), 0);
        Rc::try_unwrap(seen)
            .expect("the program is over")
            .into_inner()
    }

    proptest::proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The slab and the retired `HashMap` table agree on everything
        /// a caller sees — depths, taken ops and idleness (zombie answers
        /// included, even on a reused slot), lost ops in order, re-armed
        /// ops in order and every watchdog firing — over random programs.
        #[test]
        fn the_slab_op_table_matches_the_map_model(
            steps in proptest::collection::vec(arb_step(), 1..80),
        ) {
            let slab = run_program::<OpTable<usize>>(&steps);
            let map = run_program::<map_model::OpTable<usize>>(&steps);
            proptest::prop_assert_eq!(slab, map);
        }
    }

    #[test]
    fn a_reused_slot_does_not_answer_for_its_last_op() {
        let mut sim = Sim::new(4);
        let mut table = OpTable::new();
        let r = table.add_replica();
        let (old, _) = table.register(&mut sim, r, "old", no_watchdog);
        assert!(table.take(&mut sim, old).is_some());
        let (new, _) = table.register(&mut sim, r, "new", no_watchdog);
        assert_eq!(new.slot, old.slot, "the freed slot is reused");
        assert!(
            table.take(&mut sim, old).is_none(),
            "a zombie on a reused slot"
        );
        assert_eq!(table.replica_of(old), None);
        assert_eq!(table.outstanding(r), 1);
        assert_eq!(
            table.take(&mut sim, new).map(|(op, _)| op.work),
            Some("new")
        );
    }
}
