//! The event loop: virtual clock + stable-ordered pending-event queue.
//!
//! Events are boxed `FnOnce(&mut Sim)` closures. Components live outside the
//! simulator (typically behind `Rc<RefCell<..>>`) and capture themselves in
//! the closures they schedule; the simulator owns only time, the queue, the
//! metric [`Recorder`] and the seeded [`Rng`]. Two events scheduled for the
//! same instant fire in scheduling order (FIFO tie-break), which makes runs
//! reproducible.
//!
//! The queue is a hierarchical timer wheel ([`crate::wheel`]): push and pop
//! are O(1) amortized instead of the binary heap's O(log n), and a whole
//! tick's worth of simultaneous events drains in one slot scan, which
//! [`Sim::run`] exploits to execute same-tick batches under a single clock
//! update. Pop order is exactly the old heap's `(time, seq)` total order —
//! the golden CSVs of every bench tier are byte-identical either way.
//!
//! The closures wait beside the wheel, in a slab; a wheel entry names its
//! closure's slot. Taking an event back ([`Sim::cancel_event`]) empties
//! the slot at once, and an entry whose slot no longer holds its closure
//! is skipped — see [`EventId`].

use std::collections::HashMap;
use std::time::Instant;

use crate::metrics::Recorder;
use crate::rng::Rng;
use crate::telemetry::{AttrValue, ClosureCost, KernelProfile, ServerBusy, SpanId, Telemetry};
use crate::time::{Duration, SimTime};
use crate::wheel::{Entry, TimerWheel};

/// A pending event: a one-shot closure over the simulator.
pub type Event = Box<dyn FnOnce(&mut Sim)>;

/// Handle to a scheduled event, usable with [`Sim::cancel_event`].
///
/// ## Slot + sequence semantics
///
/// A scheduled closure waits in a slot of the simulator's slab; an
/// `EventId` names that slot and the event's scheduling sequence number.
/// The slot is the single source of truth for liveness: an event is live
/// iff its slot still holds the closure scheduled under its `seq`.
///
/// * `cancel_event` takes the closure out of the slot and drops it there
///   and then — whatever it captured is released at cancel time, not at
///   the event's instant — and returns whether there was one to take. So
///   cancelling an id whose event already **fired** returns `false`
///   (firing emptied the slot), as does cancelling twice.
/// * What still waits in the timer wheel is the event's `(at, seq, slot)`
///   entry, three words and no closure: when its instant comes up it is
///   skipped without advancing the clock, so a retracted event never
///   fires and never moves the clock.
/// * Slots are reused, sequence numbers never are, so a stale `EventId` —
///   or a stale wheel entry — can never alias the later event that now
///   sits in its slot.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventId {
    slot: usize,
    seq: u64,
}

/// One cell of the closure slab. A vacated slot keeps its last `seq`
/// until the free list hands it to a later event.
struct Slot {
    seq: u64,
    event: Option<Event>,
}

/// The wheel's liveness predicate: does the entry's slot still hold the
/// closure scheduled under the entry's `seq`?
fn is_live(slots: &[Slot], e: &Entry<usize>) -> bool {
    let slot = &slots[e.item];
    slot.seq == e.seq && slot.event.is_some()
}

/// The discrete-event simulator.
pub struct Sim {
    now: SimTime,
    seq: u64,
    executed: u64,
    /// `(at, seq, slot)` per scheduled event, cancelled ones included
    /// until the wheel sweeps them.
    queue: TimerWheel<usize>,
    /// The closures of the events that have neither fired nor been
    /// cancelled, each in the slot its `EventId` names.
    slots: Vec<Slot>,
    /// Vacant slots, reused last-vacated first.
    free: Vec<usize>,
    recorder: Recorder,
    rng: Rng,
    /// Structured telemetry store; `None` until `enable_telemetry`. Kept
    /// boxed so the disabled case costs one pointer on `Sim` and one null
    /// check per span/counter call.
    telemetry: Option<Box<Telemetry>>,
    /// Ambient causal parent for `span_begin` (see `set_span_parent`).
    span_parent: SpanId,
    /// Deepest the queue ever got (kernel self-profiling; a compare+store
    /// per push, cheap enough to keep always-on).
    queue_high_water: usize,
    /// Host time per scheduled closure type, `(executions, wall ns)`;
    /// `None` until `enable_host_profile`.
    host_profile: Option<HashMap<&'static str, (u64, u64)>>,
}

impl Sim {
    /// New simulator at `t = 0` with the default 3-second metric buckets
    /// (the paper's sampling interval).
    pub fn new(seed: u64) -> Self {
        Sim {
            now: SimTime::ZERO,
            seq: 0,
            executed: 0,
            queue: TimerWheel::new(),
            slots: Vec::new(),
            free: Vec::new(),
            recorder: Recorder::new(Duration::from_secs(3)),
            rng: Rng::new(seed),
            telemetry: None,
            span_parent: SpanId::NONE,
            queue_high_water: 0,
            host_profile: None,
        }
    }

    /// New simulator with a custom metric sampling interval.
    pub fn with_sample_interval(seed: u64, interval: Duration) -> Self {
        let mut sim = Sim::new(seed);
        sim.recorder = Recorder::new(interval);
        sim
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The seeded random stream.
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }

    /// The metric recorder.
    pub fn recorder(&mut self) -> &mut Recorder {
        &mut self.recorder
    }

    /// Read-only view of the recorder (for report generation after a run).
    pub fn recorder_ref(&self) -> &Recorder {
        &self.recorder
    }

    /// Total events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending — *live* events only: the occupied
    /// slots. Cancelled events whose wheel entries wait to be swept do not
    /// count (they used to, which overcounted after any cancel).
    pub fn pending(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Schedule `f` to run after `delay`.
    pub fn schedule<F>(&mut self, delay: Duration, f: F) -> EventId
    where
        F: FnOnce(&mut Sim) + 'static,
    {
        self.schedule_at(self.now + delay, f)
    }

    /// Schedule `f` at an absolute instant. Instants in the past run "now"
    /// (the clock never moves backwards).
    pub fn schedule_at<F>(&mut self, at: SimTime, f: F) -> EventId
    where
        F: FnOnce(&mut Sim) + 'static,
    {
        if self.host_profile.is_none() {
            return self.enqueue(at, Box::new(f));
        }
        // A closure's type is named after the function that defines it, so
        // every scheduling site is told apart without touching one.
        let closure = std::any::type_name::<F>();
        self.enqueue(
            at,
            Box::new(move |sim| {
                let start = Instant::now();
                f(sim);
                let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                if let Some(profile) = sim.host_profile.as_mut() {
                    let (count, total_ns) = profile.entry(closure).or_insert((0, 0));
                    *count += 1;
                    *total_ns += ns;
                }
            }),
        )
    }

    fn enqueue(&mut self, at: SimTime, event: Event) -> EventId {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        let filled = Slot {
            seq,
            event: Some(event),
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = filled;
                slot
            }
            None => {
                self.slots.push(filled);
                self.slots.len() - 1
            }
        };
        self.queue.push(at.ticks(), seq, slot);
        if self.queue.len() > self.queue_high_water {
            self.queue_high_water = self.queue.len();
        }
        EventId { slot, seq }
    }

    /// Take the closure scheduled under `(slot, seq)` out of the slab and
    /// vacate the slot. `None` when that event fired or was cancelled —
    /// whether the slot is empty or holds a later event by now.
    fn take(&mut self, slot: usize, seq: u64) -> Option<Event> {
        let event = self
            .slots
            .get_mut(slot)
            .filter(|s| s.seq == seq)?
            .event
            .take()?;
        self.free.push(slot);
        Some(event)
    }

    /// Drop a pending event before it fires — the closure and everything
    /// it captured go now, not at the event's instant. Returns `false` if
    /// it already ran, was already cancelled, or never existed.
    pub fn cancel_event(&mut self, id: EventId) -> bool {
        self.take(id.slot, id.seq).is_some()
    }

    /// Execute the next pending event, advancing the clock to it. Returns
    /// `false` when the queue is empty. Cancelled events are dropped
    /// silently without advancing time.
    pub fn step(&mut self) -> bool {
        let slots = &self.slots;
        let Some(ev) = self.queue.pop_next(u64::MAX, |e| is_live(slots, e)) else {
            return false;
        };
        let event = self
            .take(ev.item, ev.seq)
            .expect("the wheel pops live entries only");
        debug_assert!(ev.at >= self.now.ticks(), "event queue went backwards");
        self.now = SimTime::from_ticks(ev.at);
        self.executed += 1;
        event(self);
        true
    }

    /// Run until the queue drains. Returns the number of events executed by
    /// this call.
    ///
    /// Events are executed in same-tick batches: the wheel drains every
    /// event sharing the next instant in one slot scan, and the clock is
    /// updated once per instant rather than once per event. The execution
    /// order is identical to repeated [`Sim::step`] — a batch member that
    /// cancels a later member suppresses it, and one that schedules more
    /// work at the same instant extends the batch.
    pub fn run(&mut self) -> u64 {
        self.drain_batched(u64::MAX)
    }

    /// Run every event scheduled at or before `deadline`, then advance the
    /// clock to exactly `deadline`. Later events stay queued.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let n = self.drain_batched(deadline.ticks());
        if self.now < deadline {
            self.now = deadline;
        }
        n
    }

    /// Shared batched drain: execute every live event due at or before
    /// `limit` (in `(time, seq)` order), returning how many ran.
    fn drain_batched(&mut self, limit: u64) -> u64 {
        let before = self.executed;
        let mut batch: Vec<Entry<usize>> = Vec::new();
        loop {
            let slots = &self.slots;
            let tick = self
                .queue
                .pop_tick_batch(limit, |e| is_live(slots, e), &mut batch);
            let Some(tick) = tick else { break };
            debug_assert!(tick >= self.now.ticks(), "event queue went backwards");
            self.now = SimTime::from_ticks(tick);
            for ev in batch.drain(..) {
                // settle against the slab per event: an earlier batch
                // member may have cancelled a later one, and another may
                // have re-used the slot that freed
                if let Some(event) = self.take(ev.item, ev.seq) {
                    self.executed += 1;
                    event(self);
                }
            }
        }
        self.executed - before
    }

    // -- telemetry ----------------------------------------------------------

    /// Turn on structured telemetry (spans, counters, histograms).
    /// Idempotent. Until this is called every span/counter entry
    /// point is a single null check returning immediately.
    pub fn enable_telemetry(&mut self) {
        if self.telemetry.is_none() {
            self.telemetry = Some(Box::default());
        }
    }

    /// Whether telemetry is collecting.
    pub fn telemetry_enabled(&self) -> bool {
        self.telemetry.is_some()
    }

    /// The telemetry store (`None` until [`Sim::enable_telemetry`]).
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_deref()
    }

    /// Open a span named `name` at the current instant, parented to the
    /// ambient parent (see [`Sim::set_span_parent`]). Returns
    /// [`SpanId::NONE`] when telemetry is disabled.
    pub fn span_begin(&mut self, name: &'static str) -> SpanId {
        match self.telemetry.as_mut() {
            None => SpanId::NONE,
            Some(t) => t.begin_span(name, self.span_parent, self.now),
        }
    }

    /// Open a span with an explicit parent (use when the parent handle is
    /// in scope; otherwise prefer the ambient mechanism).
    pub fn span_child(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        match self.telemetry.as_mut() {
            None => SpanId::NONE,
            Some(t) => t.begin_span(name, parent, self.now),
        }
    }

    /// Attach a key–value attribute to an open (or closed) span. No-op on
    /// `SpanId::NONE`.
    pub fn span_attr(&mut self, id: SpanId, key: &'static str, value: impl Into<AttrValue>) {
        if let Some(t) = self.telemetry.as_mut() {
            t.add_attr(id, key, value.into());
        }
    }

    /// Close a span at the current instant, recording its duration into the
    /// per-stage histogram. Idempotent: the first close wins, so racing
    /// finalizers (watchdog vs. late completion) are safe.
    pub fn span_end(&mut self, id: SpanId) {
        let now = self.now;
        if let Some(t) = self.telemetry.as_mut() {
            t.end_span(id, now, false);
        }
    }

    /// Close a span as failed, attaching the error text as an `error`
    /// attribute. Same first-close-wins rule as [`Sim::span_end`].
    pub fn span_fail(&mut self, id: SpanId, error: &str) {
        let now = self.now;
        if let Some(t) = self.telemetry.as_mut() {
            if t.span(id).is_some_and(|s| s.end.is_none()) {
                t.add_attr(id, "error", AttrValue::Str(error.to_owned()));
            }
            t.end_span(id, now, true);
        }
    }

    /// Close a span by the outcome it guarded: [`Sim::span_end`] on `Ok`,
    /// [`Sim::span_fail`] with the error's text on `Err`.
    pub fn span_close<T, E: std::fmt::Display>(&mut self, id: SpanId, outcome: &Result<T, E>) {
        match outcome {
            Ok(_) => self.span_end(id),
            Err(e) => self.span_fail(id, &e.to_string()),
        }
    }

    /// Set the ambient causal parent that [`Sim::span_begin`] attaches new
    /// spans to, returning the previous value so callers can restore it.
    ///
    /// Instrumented call sites set the ambient parent synchronously around
    /// a callee (`let prev = sim.set_span_parent(span); callee(sim, ..);
    /// sim.set_span_parent(prev);`) so causality threads through the
    /// continuation-passing pipeline without changing any signatures. Works
    /// (as a no-op chain of `NONE`) while telemetry is disabled.
    pub fn set_span_parent(&mut self, parent: SpanId) -> SpanId {
        std::mem::replace(&mut self.span_parent, parent)
    }

    /// Bump a monotonic counter by `delta` (no-op while disabled). Each
    /// bump also appends a `(now, name, cumulative)` sample so the Chrome
    /// trace exporter can render counter tracks.
    pub fn counter_add(&mut self, name: &'static str, delta: u64) {
        let now = self.now;
        if let Some(t) = self.telemetry.as_mut() {
            let total = t.counters.entry(name).or_insert(0);
            *total += delta;
            let total = *total;
            t.counter_samples.push((now, name, total));
        }
    }

    /// Turn on host-time attribution: from here on every scheduled closure
    /// is timed with the wall clock when it fires and the time is charged
    /// to the closure's type, i.e. to the function that scheduled it
    /// ([`KernelProfile::host_time_by_closure`]). A closure's time includes
    /// the callbacks it runs synchronously, not the events it schedules,
    /// so the rows add up to the time spent executing events. Idempotent;
    /// independent of [`Sim::enable_telemetry`]; result-neutral — the same
    /// sequence numbers are handed out, only wall-clock readings are added.
    /// While off, scheduling pays one `is_none()` branch.
    pub fn enable_host_profile(&mut self) {
        if self.host_profile.is_none() {
            self.host_profile = Some(HashMap::new());
        }
    }

    /// Kernel self-profiling snapshot: events executed/pending, queue depth
    /// high-water, per-server busy/utilization rollups derived from the
    /// recorder's `*.busy` series, and executions and host time per
    /// closure when [`Sim::enable_host_profile`] is on.
    pub fn profile(&self) -> KernelProfile {
        let now_secs = self.now.as_secs_f64();
        let server_busy = self
            .recorder
            .keys()
            .filter(|k| k.ends_with(".busy"))
            .map(|k| {
                let busy_secs = self.recorder.total(k);
                ServerBusy {
                    key: k.to_owned(),
                    busy_secs,
                    utilization: if now_secs > 0.0 { busy_secs / now_secs } else { 0.0 },
                }
            })
            .collect();
        let mut host_time_by_closure: Vec<ClosureCost> = self
            .host_profile
            .iter()
            .flat_map(|p| p.iter())
            .map(|(&closure, &(count, host_ns))| ClosureCost {
                closure: closure.to_owned(),
                count,
                host_ns,
            })
            .collect();
        host_time_by_closure.sort_by(|a, b| {
            b.host_ns
                .cmp(&a.host_ns)
                .then_with(|| a.closure.cmp(&b.closure))
        });
        KernelProfile {
            events_executed: self.executed,
            pending_events: self.pending(),
            queue_depth_high_water: self.queue_high_water,
            server_busy,
            host_time_by_closure,
        }
    }

    /// Export collected spans as Chrome trace-event JSON (empty trace when
    /// telemetry is disabled). See [`Telemetry::to_chrome_trace`].
    pub fn export_chrome_trace(&self) -> String {
        match self.telemetry.as_deref() {
            Some(t) => t.to_chrome_trace(self.now),
            None => "{\"traceEvents\":[]}\n".to_owned(),
        }
    }

    /// Export collected spans as a plain-text causal tree with per-stage
    /// totals. See [`Telemetry::span_tree`].
    pub fn span_summary(&self) -> String {
        match self.telemetry.as_deref() {
            Some(t) => t.span_tree(self.now),
            None => String::from("telemetry disabled\n"),
        }
    }
}

/// The kernel as it was before closures moved into the slab — boxed
/// closures parked in the wheel beside a set of live sequence numbers,
/// a cancelled closure kept until its instant — cut down to the clock and
/// the queue and kept as an executable reference, so the equivalence
/// property below can hold the slab kernel to the set's verdicts op for op.
#[cfg(test)]
mod set_model {
    use std::collections::HashSet;

    use crate::wheel::{Entry, TimerWheel};

    pub type Event = Box<dyn FnOnce(&mut SetSim)>;

    /// [`super::Sim`] as it was: times in ticks, ids bare sequence numbers.
    #[derive(Default)]
    pub struct SetSim {
        now: u64,
        seq: u64,
        executed: u64,
        queue: TimerWheel<Event>,
        pending_ids: HashSet<u64>,
    }

    impl SetSim {
        pub fn now(&self) -> u64 {
            self.now
        }

        pub fn events_executed(&self) -> u64 {
            self.executed
        }

        pub fn pending(&self) -> usize {
            self.pending_ids.len()
        }

        pub fn schedule(&mut self, delay: u64, event: Event) -> u64 {
            let seq = self.seq;
            self.seq += 1;
            self.pending_ids.insert(seq);
            self.queue.push(self.now + delay, seq, event);
            seq
        }

        pub fn cancel_event(&mut self, id: u64) -> bool {
            self.pending_ids.remove(&id)
        }

        pub fn step(&mut self) -> bool {
            let ids = &self.pending_ids;
            match self.queue.pop_next(u64::MAX, |e| ids.contains(&e.seq)) {
                Some(ev) => {
                    self.pending_ids.remove(&ev.seq);
                    self.now = ev.at;
                    self.executed += 1;
                    (ev.item)(self);
                    true
                }
                None => false,
            }
        }

        pub fn run(&mut self) -> u64 {
            self.drain_batched(u64::MAX)
        }

        pub fn run_until(&mut self, deadline: u64) -> u64 {
            let n = self.drain_batched(deadline);
            self.now = self.now.max(deadline);
            n
        }

        fn drain_batched(&mut self, limit: u64) -> u64 {
            let before = self.executed;
            let mut batch: Vec<Entry<Event>> = Vec::new();
            loop {
                let ids = &self.pending_ids;
                let tick = self
                    .queue
                    .pop_tick_batch(limit, |e| ids.contains(&e.seq), &mut batch);
                let Some(tick) = tick else { break };
                self.now = tick;
                for ev in batch.drain(..) {
                    if self.pending_ids.remove(&ev.seq) {
                        self.executed += 1;
                        (ev.item)(self);
                    }
                }
            }
            self.executed - before
        }
    }
}

#[cfg(test)]
mod equivalence {
    use super::set_model::SetSim;
    use super::*;
    use proptest::prelude::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// What the property drives on both kernels, times in ticks.
    trait Kernel: Sized + 'static {
        type Id: Copy;
        fn create() -> Self;
        fn schedule(&mut self, delay: u64, event: Box<dyn FnOnce(&mut Self)>) -> Self::Id;
        fn cancel(&mut self, id: Self::Id) -> bool;
        /// The `n`th of a family of ids no `schedule` ever returned.
        fn never_issued(n: usize) -> Self::Id;
        /// The sequence number an id was issued under.
        fn seq_of(id: Self::Id) -> u64;
        fn step(&mut self) -> bool;
        fn run_for(&mut self, horizon: u64) -> u64;
        fn run(&mut self) -> u64;
        /// `(now, pending, executed)`.
        fn clock(&self) -> (u64, usize, u64);
    }

    impl Kernel for Sim {
        type Id = EventId;
        fn create() -> Self {
            Sim::new(0)
        }
        fn schedule(&mut self, delay: u64, event: Event) -> EventId {
            Sim::schedule(self, Duration::from_micros(delay), event)
        }
        fn cancel(&mut self, id: EventId) -> bool {
            self.cancel_event(id)
        }
        fn never_issued(n: usize) -> EventId {
            // low slots exist and are in use; the seq is what was never issued
            EventId {
                slot: n % 4,
                seq: u64::MAX - n as u64,
            }
        }
        fn seq_of(id: EventId) -> u64 {
            id.seq
        }
        fn step(&mut self) -> bool {
            Sim::step(self)
        }
        fn run_for(&mut self, horizon: u64) -> u64 {
            let deadline = self.now() + Duration::from_micros(horizon);
            self.run_until(deadline)
        }
        fn run(&mut self) -> u64 {
            Sim::run(self)
        }
        fn clock(&self) -> (u64, usize, u64) {
            (self.now().ticks(), self.pending(), self.events_executed())
        }
    }

    impl Kernel for SetSim {
        type Id = u64;
        fn create() -> Self {
            SetSim::default()
        }
        fn schedule(&mut self, delay: u64, event: set_model::Event) -> u64 {
            SetSim::schedule(self, delay, event)
        }
        fn cancel(&mut self, id: u64) -> bool {
            self.cancel_event(id)
        }
        fn never_issued(n: usize) -> u64 {
            u64::MAX - n as u64
        }
        fn seq_of(id: u64) -> u64 {
            id
        }
        fn step(&mut self) -> bool {
            SetSim::step(self)
        }
        fn run_for(&mut self, horizon: u64) -> u64 {
            let deadline = self.now() + horizon;
            self.run_until(deadline)
        }
        fn run(&mut self) -> u64 {
            SetSim::run(self)
        }
        fn clock(&self) -> (u64, usize, u64) {
            (self.now(), self.pending(), self.events_executed())
        }
    }

    /// What an event does when it fires, after logging itself.
    #[derive(Debug, Clone, Copy)]
    enum Then {
        Nothing,
        /// Schedule a follow-up this far ahead (0 extends the running batch
        /// and, after a cancel in the same batch, re-uses the freed slot).
        Schedule(u64),
        /// Cancel the `nth % issued` id — a later member of the running
        /// batch, an event long fired, itself.
        Cancel(usize),
    }

    /// One step of a program against a kernel.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Schedule {
            delay: u64,
            then: Then,
        },
        /// Cancel the `nth % issued` id: live, fired or already cancelled.
        Cancel(usize),
        CancelNeverIssued(usize),
        Step,
        RunFor(u64),
        Run,
    }

    fn arb_delay() -> impl Strategy<Value = u64> {
        prop_oneof![
            Just(0u64), // same-tick burst pressure
            0u64..8,
            0u64..1_000_000,            // spans several wheel levels
            (1u64 << 48)..(1u64 << 52), // the wheel's overflow map
        ]
    }

    fn arb_then() -> impl Strategy<Value = Then> {
        prop_oneof![
            Just(Then::Nothing),
            arb_delay().prop_map(Then::Schedule),
            Just(Then::Schedule(0)),
            (0usize..1 << 16).prop_map(Then::Cancel),
        ]
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        let arb_schedule =
            || (arb_delay(), arb_then()).prop_map(|(delay, then)| Op::Schedule { delay, then });
        prop_oneof![
            arb_schedule(),
            arb_schedule(),
            arb_schedule(),
            (0usize..1 << 16).prop_map(Op::Cancel),
            (0usize..1 << 16).prop_map(Op::Cancel),
            (0usize..64).prop_map(Op::CancelNeverIssued),
            Just(Op::Step),
            Just(Op::Step),
            (0u64..200_000).prop_map(Op::RunFor),
            Just(Op::Run),
        ]
    }

    /// Everything a program can observe of the kernel under it.
    #[derive(Debug, Default, PartialEq)]
    struct Observed {
        /// Event numbers in firing order (follow-ups offset by 2²⁰).
        fired: Vec<usize>,
        /// Sequence number of every id handed out, in issue order.
        seqs: Vec<u64>,
        /// Every `cancel_event` verdict, from the program or from an event.
        verdicts: Vec<bool>,
        /// What `step` / `run_until` / `run` returned.
        returns: Vec<u64>,
        /// `(now, pending, executed)` after every op, and after the final drain.
        clocks: Vec<(u64, usize, u64)>,
    }

    struct Run<K: Kernel> {
        ids: Vec<K::Id>,
        seen: Observed,
    }

    fn event<K: Kernel>(
        run: &Rc<RefCell<Run<K>>>,
        n: usize,
        then: Then,
    ) -> Box<dyn FnOnce(&mut K)> {
        let run = Rc::clone(run);
        Box::new(move |k: &mut K| {
            run.borrow_mut().seen.fired.push(n);
            match then {
                Then::Nothing => {}
                Then::Schedule(delay) => {
                    let id = k.schedule(delay, event(&run, n + (1 << 20), Then::Nothing));
                    let mut run = run.borrow_mut();
                    run.ids.push(id);
                    run.seen.seqs.push(K::seq_of(id));
                }
                Then::Cancel(nth) => {
                    let id = {
                        let run = run.borrow();
                        run.ids[nth % run.ids.len()]
                    };
                    // the cancelled closure is dropped here on the slab
                    // kernel: `run` must not be borrowed across it
                    let verdict = k.cancel(id);
                    run.borrow_mut().seen.verdicts.push(verdict);
                }
            }
        })
    }

    fn run_program<K: Kernel>(ops: &[Op]) -> Observed {
        let mut k = K::create();
        let run = Rc::new(RefCell::new(Run::<K> {
            ids: Vec::new(),
            seen: Observed::default(),
        }));
        for (n, op) in ops.iter().enumerate() {
            match *op {
                Op::Schedule { delay, then } => {
                    let id = k.schedule(delay, event(&run, n, then));
                    let mut run = run.borrow_mut();
                    run.ids.push(id);
                    run.seen.seqs.push(K::seq_of(id));
                }
                Op::Cancel(nth) => {
                    let id = {
                        let run = run.borrow();
                        run.ids.get(nth % run.ids.len().max(1)).copied()
                    };
                    if let Some(id) = id {
                        let verdict = k.cancel(id);
                        run.borrow_mut().seen.verdicts.push(verdict);
                    }
                }
                Op::CancelNeverIssued(n) => {
                    let verdict = k.cancel(K::never_issued(n));
                    run.borrow_mut().seen.verdicts.push(verdict);
                }
                Op::Step => {
                    let ran = k.step();
                    run.borrow_mut().seen.returns.push(ran as u64);
                }
                Op::RunFor(horizon) => {
                    let ran = k.run_for(horizon);
                    run.borrow_mut().seen.returns.push(ran);
                }
                Op::Run => {
                    let ran = k.run();
                    run.borrow_mut().seen.returns.push(ran);
                }
            }
            run.borrow_mut().seen.clocks.push(k.clock());
        }
        k.run();
        run.borrow_mut().seen.clocks.push(k.clock());
        let seen = std::mem::take(&mut run.borrow_mut().seen);
        seen
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The slab kernel and the retired set-based kernel agree on
        /// everything a program can observe — firing order, the sequence
        /// number behind every id, every `cancel_event` verdict (live,
        /// fired, repeated and never-issued ids; from outside and from
        /// inside a running batch), what each drain returned, and `now`,
        /// `pending` and `events_executed` after every op — over arbitrary
        /// schedule / cancel / step / run_until / run programs with
        /// same-tick bursts, nested scheduling and far-future delays.
        #[test]
        fn slab_kernel_matches_the_set_kernel(
            ops in proptest::collection::vec(arb_op(), 1..120),
        ) {
            let slab = run_program::<Sim>(&ops);
            let set = run_program::<SetSim>(&ops);
            prop_assert_eq!(slab, set);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Sim::new(0);
        let log = Rc::new(RefCell::new(Vec::new()));
        for &d in &[5u64, 1, 3, 2, 4] {
            let log = log.clone();
            sim.schedule(Duration::from_secs(d), move |sim| {
                log.borrow_mut().push(sim.now().as_secs_f64() as u64);
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn same_instant_fifo_tiebreak() {
        let mut sim = Sim::new(0);
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..10 {
            let log = log.clone();
            sim.schedule(Duration::from_secs(1), move |_| log.borrow_mut().push(i));
        }
        sim.run();
        assert_eq!(*log.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn nested_scheduling_from_event() {
        let mut sim = Sim::new(0);
        let hits = Rc::new(RefCell::new(0));
        let h = hits.clone();
        sim.schedule(Duration::from_secs(1), move |sim| {
            *h.borrow_mut() += 1;
            let h2 = h.clone();
            sim.schedule(Duration::from_secs(1), move |sim| {
                *h2.borrow_mut() += 1;
                assert_eq!(sim.now(), SimTime::from_secs(2));
            });
        });
        sim.run();
        assert_eq!(*hits.borrow(), 2);
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut sim = Sim::new(0);
        let fired_at = Rc::new(RefCell::new(SimTime::ZERO));
        let fa = fired_at.clone();
        sim.schedule(Duration::from_secs(10), move |sim| {
            let fa2 = fa.clone();
            // Deliberately in the "past".
            sim.schedule_at(SimTime::from_secs(5), move |sim| {
                *fa2.borrow_mut() = sim.now();
            });
        });
        sim.run();
        assert_eq!(*fired_at.borrow(), SimTime::from_secs(10));
    }

    #[test]
    fn run_until_stops_and_advances_clock() {
        let mut sim = Sim::new(0);
        let count = Rc::new(RefCell::new(0));
        for d in 1..=10u64 {
            let c = count.clone();
            sim.schedule(Duration::from_secs(d), move |_| *c.borrow_mut() += 1);
        }
        let n = sim.run_until(SimTime::from_secs(4));
        assert_eq!(n, 4);
        assert_eq!(sim.now(), SimTime::from_secs(4));
        assert_eq!(sim.pending(), 6);
        // the remainder still runs
        sim.run();
        assert_eq!(*count.borrow(), 10);
    }

    #[test]
    fn run_until_advances_clock_even_with_no_events() {
        let mut sim = Sim::new(0);
        sim.run_until(SimTime::from_secs(42));
        assert_eq!(sim.now(), SimTime::from_secs(42));
    }

    #[test]
    fn executed_counter() {
        let mut sim = Sim::new(0);
        for _ in 0..7 {
            sim.schedule(Duration::from_secs(1), |_| {});
        }
        assert_eq!(sim.run(), 7);
        assert_eq!(sim.events_executed(), 7);
    }

    #[test]
    fn cancelled_event_never_fires_and_clock_skips_it() {
        let mut sim = Sim::new(0);
        let fired = Rc::new(RefCell::new(false));
        let f = fired.clone();
        let id = sim.schedule(Duration::from_secs(100), move |_| *f.borrow_mut() = true);
        sim.schedule(Duration::from_secs(1), |_| {});
        assert!(sim.cancel_event(id));
        sim.run();
        assert!(!*fired.borrow());
        // the queue drained at the earlier event; the cancelled one did not
        // drag the clock to t=100
        assert_eq!(sim.now(), SimTime::from_secs(1));
    }

    #[test]
    fn pending_reports_live_events_not_parked_ones() {
        // regression: pending() used to return the physical queue length,
        // which counts cancelled events still lazily parked in the queue
        let mut sim = Sim::new(0);
        let mut ids = Vec::new();
        for d in 1..=3u64 {
            ids.push(sim.schedule(Duration::from_secs(d), |_| {}));
        }
        assert!(sim.cancel_event(ids[1]));
        assert_eq!(sim.pending(), 2, "cancelled event must not count");
        assert_eq!(sim.run(), 2);
        assert_eq!(sim.pending(), 0);
    }

    #[test]
    fn same_tick_batch_matches_step_semantics() {
        // run()'s batched drain must be indistinguishable from step():
        // same-tick follow-ups extend the batch, in-batch cancels suppress
        let build = |sim: &mut Sim, log: &Rc<RefCell<Vec<u32>>>| {
            let victim: Rc<RefCell<Option<EventId>>> = Rc::new(RefCell::new(None));
            for i in 0..4u32 {
                let log = log.clone();
                let victim2 = victim.clone();
                let id = sim.schedule(Duration::from_secs(1), move |sim| {
                    log.borrow_mut().push(i);
                    if i == 0 {
                        // cancel a later member of the very batch running now
                        let v = victim2.borrow().expect("victim scheduled");
                        assert!(sim.cancel_event(v));
                        // and extend the batch with a same-instant follow-up
                        let log = log.clone();
                        sim.schedule(Duration::ZERO, move |_| log.borrow_mut().push(99));
                    }
                });
                if i == 2 {
                    *victim.borrow_mut() = Some(id);
                }
            }
            let log = log.clone();
            sim.schedule(Duration::from_millis(500), move |_| log.borrow_mut().push(50));
        };
        let run_log = {
            let mut sim = Sim::new(0);
            let log = Rc::new(RefCell::new(Vec::new()));
            build(&mut sim, &log);
            sim.run();
            let out = log.borrow().clone();
            out
        };
        let step_log = {
            let mut sim = Sim::new(0);
            let log = Rc::new(RefCell::new(Vec::new()));
            build(&mut sim, &log);
            while sim.step() {}
            let out = log.borrow().clone();
            out
        };
        assert_eq!(run_log, vec![50, 0, 1, 3, 99]);
        assert_eq!(run_log, step_log);
    }

    #[test]
    fn cancel_is_idempotent_and_rejects_unknown() {
        let mut sim = Sim::new(0);
        let id = sim.schedule(Duration::from_secs(1), |_| {});
        assert!(sim.cancel_event(id));
        assert!(!sim.cancel_event(id), "second cancel is a no-op");
        // ids never handed out are rejected outright: a slot that does
        // not exist, and a live slot under a seq it was never given
        let live = sim.schedule(Duration::from_secs(2), |_| {});
        assert!(!sim.cancel_event(EventId { slot: 99, seq: 0 }));
        assert!(!sim.cancel_event(EventId { seq: 99, ..live }));
        assert_eq!(sim.run(), 1);
    }

    #[test]
    fn cancelling_one_of_many_same_instant_keeps_fifo_of_rest() {
        let mut sim = Sim::new(0);
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut ids = Vec::new();
        for i in 0..5 {
            let log = log.clone();
            ids.push(sim.schedule(Duration::from_secs(1), move |_| log.borrow_mut().push(i)));
        }
        sim.cancel_event(ids[2]);
        sim.run();
        assert_eq!(*log.borrow(), vec![0, 1, 3, 4]);
    }

    #[test]
    fn cancel_after_fire_returns_false_and_leaks_nothing() {
        let mut sim = Sim::new(0);
        let id = sim.schedule(Duration::from_secs(1), |_| {});
        sim.run();
        // regression: this used to return true and permanently tombstone the
        // id, so a fired event "cancelled" successfully and the set grew
        // without bound
        assert!(!sim.cancel_event(id), "event already ran");
        assert!(!sim.cancel_event(id), "still false on repeat");
        assert_eq!(sim.pending(), 0, "no tracking state left behind");
    }

    #[test]
    fn cancel_never_scheduled_id_leaks_nothing() {
        let mut sim = Sim::new(0);
        let real = sim.schedule(Duration::from_secs(1), |_| {});
        assert!(sim.cancel_event(real));
        assert!(!sim.cancel_event(real));
        assert_eq!(sim.pending(), 0);
        sim.run();
        assert_eq!(sim.events_executed(), 0);
    }

    #[test]
    fn cancel_drops_the_closure_at_cancel_time() {
        // regression: a cancelled closure used to stay parked in the wheel
        // until its instant — 48 h for every disarmed watchdog
        let mut sim = Sim::new(0);
        let handle = Rc::new(());
        let captured = Rc::clone(&handle);
        let id = sim.schedule(Duration::from_secs(48 * 3600), move |_| drop(captured));
        sim.schedule(Duration::from_secs(1), |_| {});
        assert_eq!(Rc::strong_count(&handle), 2);
        assert!(sim.cancel_event(id));
        assert_eq!(Rc::strong_count(&handle), 1, "freed now, not at t = 48 h");
        assert_eq!(sim.pending(), 1);
        sim.run();
        assert_eq!(sim.now(), SimTime::from_secs(1));
    }

    #[test]
    fn an_id_whose_slot_was_reused_cancels_nothing() {
        let mut sim = Sim::new(0);
        let fired = Rc::new(RefCell::new(Vec::new()));
        let log = |tag: &'static str| {
            let fired = fired.clone();
            move |_: &mut Sim| fired.borrow_mut().push(tag)
        };
        // vacated by cancel, then re-used
        let a = sim.schedule(Duration::from_secs(5), log("a"));
        assert!(sim.cancel_event(a));
        let b = sim.schedule(Duration::from_secs(2), log("b"));
        assert_eq!(a.slot, b.slot, "the freed slot is handed out again");
        assert!(!sim.cancel_event(a), "stale id must not hit the new tenant");
        assert_eq!(sim.pending(), 1);
        // vacated by firing, then re-used
        sim.run();
        let c = sim.schedule(Duration::from_secs(1), log("c"));
        assert_eq!(b.slot, c.slot);
        assert!(!sim.cancel_event(b), "fired id must not hit the new tenant");
        sim.run();
        assert_eq!(*fired.borrow(), vec!["b", "c"]);
        // the dead wheel entry for `a` (t = 5) never moved the clock
        assert_eq!(sim.now(), SimTime::from_secs(3));
    }

    #[test]
    fn in_batch_cancel_then_slot_reuse_suppresses_exactly_the_cancelled_member() {
        // three members of one tick: the first cancels the third, the second
        // schedules same-tick follow-ups into every slot vacated so far.
        // The third's wheel entry is already in the running batch and now
        // points at a slot holding a live closure — it must still be dead.
        let build = |sim: &mut Sim, log: &Rc<RefCell<Vec<&'static str>>>| {
            let victim: Rc<RefCell<Option<EventId>>> = Rc::new(RefCell::new(None));
            let (l, v) = (log.clone(), victim.clone());
            sim.schedule(Duration::from_secs(1), move |sim| {
                l.borrow_mut().push("first");
                let id = v.borrow().expect("victim scheduled");
                assert!(sim.cancel_event(id));
            });
            let (l, v) = (log.clone(), victim.clone());
            sim.schedule(Duration::from_secs(1), move |sim| {
                l.borrow_mut().push("second");
                let victim = v.borrow().expect("victim scheduled");
                let tenants: Vec<EventId> = (0..3)
                    .map(|_| {
                        let l = l.clone();
                        sim.schedule(Duration::ZERO, move |_| l.borrow_mut().push("tenant"))
                    })
                    .collect();
                assert!(
                    tenants.iter().any(|t| t.slot == victim.slot),
                    "the freed slot is re-used in-batch: {tenants:?}"
                );
            });
            let l = log.clone();
            let id = sim.schedule(Duration::from_secs(1), move |_| {
                l.borrow_mut().push("third")
            });
            *victim.borrow_mut() = Some(id);
        };
        for stepwise in [false, true] {
            let mut sim = Sim::new(0);
            let log = Rc::new(RefCell::new(Vec::new()));
            build(&mut sim, &log);
            if stepwise {
                while sim.step() {}
            } else {
                sim.run();
            }
            assert_eq!(
                *log.borrow(),
                vec!["first", "second", "tenant", "tenant", "tenant"]
            );
            assert_eq!(sim.events_executed(), 5);
            assert_eq!(sim.pending(), 0);
        }
    }

    #[test]
    fn run_until_ignores_cancelled_head() {
        let mut sim = Sim::new(0);
        let id = sim.schedule(Duration::from_secs(5), |_| {});
        sim.schedule(Duration::from_secs(20), |_| {});
        sim.cancel_event(id);
        let n = sim.run_until(SimTime::from_secs(10));
        assert_eq!(n, 0, "only the cancelled event was due");
        assert_eq!(sim.now(), SimTime::from_secs(10));
        sim.run();
        assert_eq!(sim.now(), SimTime::from_secs(20));
    }

    #[test]
    fn disabled_telemetry_is_inert() {
        let mut sim = Sim::new(0);
        let id = sim.span_begin("x");
        assert!(id.is_none());
        sim.span_attr(id, "k", 1u64);
        sim.span_end(id);
        sim.counter_add("c", 1);
        assert!(sim.telemetry().is_none());
        assert_eq!(sim.export_chrome_trace(), "{\"traceEvents\":[]}\n");
    }

    #[test]
    fn spans_nest_via_ambient_parent() {
        let mut sim = Sim::new(0);
        sim.enable_telemetry();
        let root = sim.span_begin("root");
        let prev = sim.set_span_parent(root);
        sim.schedule(Duration::from_secs(1), move |sim| {
            // ambient parent was captured at begin time, not here: emulate a
            // callee opening its own span under the still-set parent
            let child = sim.span_begin("child");
            sim.span_end(child);
        });
        // restoring before run(): the scheduled event must NOT see `root`
        // as ambient any more, so instrumented code sets the parent inside
        // the callee path instead. Re-set it around run for this test.
        sim.set_span_parent(prev);
        sim.set_span_parent(root);
        sim.run();
        sim.set_span_parent(prev);
        sim.span_end(root);
        let t = sim.telemetry().unwrap();
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].name, "child");
        assert_eq!(spans[1].parent.raw(), 1);
    }

    #[test]
    fn span_fail_attaches_error_and_first_close_wins() {
        let mut sim = Sim::new(0);
        sim.enable_telemetry();
        let id = sim.span_begin("op");
        sim.span_fail(id, "boom");
        sim.span_end(id); // loses the race
        let s = sim.telemetry().unwrap().span(id).unwrap();
        assert!(s.failed);
        assert_eq!(s.attr("error").map(|v| v.to_string()), Some("boom".into()));
    }

    #[test]
    fn host_profile_names_closures_by_their_defining_function() {
        fn ticker(sim: &mut Sim, left: u32) {
            if left > 0 {
                sim.schedule(Duration::from_secs(1), move |sim| ticker(sim, left - 1));
            }
        }
        let mut sim = Sim::new(0);
        sim.enable_host_profile();
        ticker(&mut sim, 5);
        sim.schedule(Duration::from_secs(2), |_| {});
        let cancelled = sim.schedule(Duration::from_secs(2), |_| {});
        sim.cancel_event(cancelled);
        sim.run();
        let profile = sim.profile();
        let rows = &profile.host_time_by_closure;
        assert_eq!(rows.len(), 2, "{rows:?}");
        let ticks = rows
            .iter()
            .find(|c| c.closure.contains("ticker"))
            .expect("row named after the defining fn");
        assert!(
            ticks.closure.ends_with("::{{closure}}"),
            "{}",
            ticks.closure
        );
        assert_eq!(ticks.count, 5);
        // fired events only, one row each: the counts add up to the kernel's
        assert_eq!(
            rows.iter().map(|c| c.count).sum::<u64>(),
            sim.events_executed()
        );
        assert!(
            rows.windows(2).all(|w| w[0].host_ns >= w[1].host_ns),
            "sorted by time"
        );
        assert!(profile.to_string().contains("  host  "), "{profile}");
    }

    #[test]
    fn host_profile_is_result_neutral_and_silent_when_off() {
        let run = |profiled: bool| {
            let mut sim = Sim::new(3);
            if profiled {
                sim.enable_host_profile();
            }
            let mut ids = Vec::new();
            for i in 0..20u64 {
                ids.push(sim.schedule(Duration::from_millis(i * 7 % 5), move |sim| {
                    let jitter = sim.rng().below(10);
                    sim.schedule(Duration::from_millis(jitter), |_| {});
                }));
            }
            sim.cancel_event(ids[3]);
            sim.run();
            (ids, sim.events_executed(), sim.now(), sim.profile())
        };
        let (ids_off, events_off, now_off, profile_off) = run(false);
        let (ids_on, events_on, now_on, profile_on) = run(true);
        assert_eq!(ids_off, ids_on, "same seq allocation");
        assert_eq!((events_off, now_off), (events_on, now_on));
        assert!(profile_off.host_time_by_closure.is_empty());
        assert!(!profile_off.to_string().contains("host"), "{profile_off}");
        assert_eq!(profile_on.host_time_by_closure.len(), 2);
    }

    #[test]
    fn profile_reports_high_water_and_busy_rollups() {
        let mut sim = Sim::new(0);
        for _ in 0..5 {
            sim.schedule(Duration::from_secs(1), |_| {});
        }
        assert_eq!(sim.profile().queue_depth_high_water, 5);
        sim.run();
        let t0 = SimTime::ZERO;
        sim.recorder()
            .add_span("node.cpu.busy", t0, SimTime::from_secs(1), 0.5);
        let profile = sim.profile();
        assert_eq!(profile.events_executed, 5);
        assert_eq!(profile.pending_events, 0);
        assert_eq!(profile.server_busy.len(), 1);
        assert_eq!(profile.server_busy[0].key, "node.cpu.busy");
        assert!((profile.server_busy[0].busy_secs - 0.5).abs() < 1e-9);
        assert!((profile.server_busy[0].utilization - 0.5).abs() < 1e-9);
    }
}
