//! Host-time tracing from outside the program: phase spans around set-up,
//! publish, drain and discovery; with tracing on, also a span around every
//! kernel step and every front-door submit, aggregated into log2
//! histograms (`simkit::WindowAgg`). Nothing here changes what the simulation computes — the
//! traced repetition's digest must equal the untraced one's.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use fleet::SubmitFn;
use simkit::telemetry::Json;
use simkit::{Sim, WindowAgg};

use crate::json::{num, obj, string};

/// Steps slower than this count as heavy (`simkit.heavy_step_share`).
pub const HEAVY_STEP_NS: u64 = 50_000;

/// Slowest steps kept for the trace file.
const SLOWEST_KEPT: usize = 32;

/// One of the slowest kernel steps of a traced drain.
#[derive(Clone, Copy)]
pub struct SlowStep {
    /// Host nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Host nanoseconds the step took.
    pub dur_ns: u64,
    /// Virtual time of the event, microseconds.
    pub virt_us: u64,
}

/// Host-time recorder for one workload repetition.
pub struct Tracer {
    on: bool,
    origin: Instant,
    /// `(name, start_ns, end_ns)` in the order the phases ran.
    phases: Vec<(&'static str, u64, u64)>,
    /// Every step of the traced drain, host ns.
    pub steps: WindowAgg,
    /// Host ns spent in steps over [`HEAVY_STEP_NS`].
    pub heavy_ns: u64,
    slowest: Vec<SlowStep>,
    /// Duration a step must beat to enter `slowest` (0 until it is full).
    slow_floor: u64,
    /// Every wrapped front-door submit call, host ns.
    pub submits: Rc<RefCell<WindowAgg>>,
}

impl Tracer {
    /// A recorder; with `on` it also times steps and submits, and turns
    /// the simulator's telemetry on so the run can be counted afterwards.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            phases: Vec::new(),
            steps: WindowAgg::histogram(),
            heavy_ns: 0,
            slowest: Vec::new(),
            slow_floor: 0,
            submits: Rc::new(RefCell::new(WindowAgg::histogram())),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// A fresh simulator for this repetition.
    pub fn sim(&self, seed: u64) -> Sim {
        let mut sim = Sim::new(seed);
        if self.on {
            sim.enable_telemetry();
        }
        sim
    }

    /// Run `f` as the phase `name`.
    pub fn phase<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let start = self.now_ns();
        let out = f(self);
        let end = self.now_ns();
        self.phases.push((name, start, end));
        out
    }

    /// Host seconds spent in every phase called `name`.
    pub fn phase_secs(&self, name: &str) -> f64 {
        self.phases
            .iter()
            .filter(|(n, _, _)| *n == name)
            .fold(0.0, |acc, (_, s, e)| acc + (e - s) as f64 / 1e9)
    }

    /// Drain the simulator: `sim.run()` untraced, one timed `step` at a
    /// time when tracing. Both execute events in the same order.
    pub fn drain(&mut self, sim: &mut Sim) {
        if !self.on {
            sim.run();
            return;
        }
        let mut t = Instant::now();
        while sim.step() {
            let now = Instant::now();
            let dur_ns = (now - t).as_nanos() as u64;
            self.steps.record(dur_ns);
            if dur_ns > HEAVY_STEP_NS {
                self.heavy_ns += dur_ns;
            }
            if dur_ns > self.slow_floor {
                self.keep_slow(SlowStep {
                    start_ns: (t - self.origin).as_nanos() as u64,
                    dur_ns,
                    virt_us: sim.now().ticks(),
                });
            }
            t = now;
        }
    }

    /// Keep `step` among the slowest, evicting the fastest kept one.
    fn keep_slow(&mut self, step: SlowStep) {
        if self.slowest.len() < SLOWEST_KEPT {
            self.slowest.push(step);
        } else {
            let fastest = self
                .slowest
                .iter_mut()
                .min_by_key(|s| s.dur_ns)
                .expect("slowest is full");
            *fastest = step;
        }
        if self.slowest.len() == SLOWEST_KEPT {
            self.slow_floor = self.slowest.iter().map(|s| s.dur_ns).min().unwrap_or(0);
        }
    }

    /// Wrap a front-door sink so every call through it is timed (a no-op
    /// untraced: the sink is returned as is).
    pub fn wrap_submit(&self, inner: Rc<SubmitFn>) -> Rc<SubmitFn> {
        if !self.on {
            return inner;
        }
        let histo = Rc::clone(&self.submits);
        Rc::new(move |sim, req, done| {
            let t = Instant::now();
            inner(sim, req, done);
            histo.borrow_mut().record(t.elapsed().as_nanos() as u64);
        })
    }

    /// The run as a Chrome trace: one B/E pair per phase and per kept slow
    /// step (host microseconds on `ts`, the virtual timestamp in `args`),
    /// plus the step and submit distributions under `onserveBenchmark`.
    pub fn chrome_trace(&self, workload: &str) -> Json {
        // (ts_ns, is_end, span id, name, extra args); sorting by (ts, end
        // first) keeps `ts` monotone and closes a step before the next opens
        type Event<'a> = (u64, bool, u64, String, Vec<(&'a str, Json)>);
        let mut events: Vec<Event> = Vec::new();
        let mut next_span = 1u64;
        for (name, start, end) in &self.phases {
            events.push((*start, false, next_span, (*name).to_owned(), Vec::new()));
            events.push((*end, true, next_span, (*name).to_owned(), Vec::new()));
            next_span += 1;
        }
        let phase_of = |ns: u64| {
            self.phases
                .iter()
                .position(|(_, s, e)| *s <= ns && ns <= *e)
                .map_or(0, |i| i as u64 + 1)
        };
        for s in &self.slowest {
            let args = vec![
                ("parent", num(phase_of(s.start_ns) as f64)),
                ("virtual_us", num(s.virt_us as f64)),
                ("host_ns", num(s.dur_ns as f64)),
            ];
            events.push((s.start_ns, false, next_span, "step".to_owned(), args));
            events.push((
                s.start_ns + s.dur_ns,
                true,
                next_span,
                "step".to_owned(),
                Vec::new(),
            ));
            next_span += 1;
        }
        events.sort_by_key(|(ts, is_end, span, ..)| (*ts, !*is_end, *span));
        let trace_events = events
            .into_iter()
            .map(|(ts, is_end, span, name, extra)| {
                let mut args = vec![("span", num(span as f64))];
                args.extend(extra);
                obj(vec![
                    ("name", string(&name)),
                    ("ph", string(if is_end { "E" } else { "B" })),
                    ("ts", num(ts as f64 / 1e3)),
                    ("pid", num(1.0)),
                    ("tid", num(1.0)),
                    ("args", obj(args)),
                ])
            })
            .collect();
        let histo = |h: &WindowAgg| {
            obj(vec![
                ("count", num(h.count() as f64)),
                ("sum_ns", num(h.sum() as f64)),
                ("p50_ns", num(h.quantile(0.5))),
                ("p90_ns", num(h.quantile(0.9))),
                ("p99_ns", num(h.quantile(0.99))),
                ("p999_ns", num(h.quantile(0.999))),
                ("max_ns", num(h.max() as f64)),
            ])
        };
        obj(vec![
            ("traceEvents", Json::Arr(trace_events)),
            (
                "onserveBenchmark",
                obj(vec![
                    ("workload", string(workload)),
                    ("step_ns", histo(&self.steps)),
                    ("submit_call_ns", histo(&self.submits.borrow())),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::telemetry::validate_chrome_trace;
    use simkit::Duration;

    #[test]
    fn trace_file_passes_the_strict_chrome_trace_validator() {
        let mut tr = Tracer::new(true);
        let mut sim = tr.sim(7);
        assert!(sim.telemetry_enabled());
        tr.phase("setup", |_| std::hint::black_box(0));
        for i in 0..100u64 {
            sim.schedule(Duration::from_micros(i), |_| {});
        }
        tr.phase("drain", |tr| tr.drain(&mut sim));
        assert_eq!(tr.steps.count(), 100);
        assert_eq!(sim.events_executed(), 100);
        let text = crate::json::write(&tr.chrome_trace("unit"));
        let check = validate_chrome_trace(&text).expect("valid trace");
        // two phases plus the 32 slowest of the 100 steps
        assert_eq!(check.begins, 2 + SLOWEST_KEPT);
        assert_eq!(check.ends, check.begins);
        assert!((tr.phase_secs("drain") - tr.phase_secs("setup")) > 0.0);
    }

    /// The log2 histogram behind the step and submit spans: what the
    /// reported quantiles rely on.
    #[test]
    fn span_histogram_quantiles_interpolate_inside_log2_buckets() {
        let mut h = WindowAgg::histogram();
        assert_eq!(h.quantile(0.5), 0.0, "empty");
        for ns in [300, 400, 500, 600, 700, 800, 900, 1000, 70_000, 900_000] {
            h.record(ns);
        }
        assert_eq!((h.count(), h.sum(), h.max()), (10, 975_200, 900_000));
        // seven of ten samples sit in the [512, 1024) bucket or below
        let p50 = h.quantile(0.5);
        assert!((512.0..1024.0).contains(&p50), "{p50}");
        // the tail is clamped to the observed maximum, not the bucket edge
        assert_eq!(h.quantile(1.0), 900_000.0);
        let qs: Vec<f64> = (0..=10).map(|i| h.quantile(f64::from(i) / 10.0)).collect();
        assert!(qs.windows(2).all(|w| w[0] <= w[1]), "monotone: {qs:?}");
    }

    #[test]
    fn untraced_drain_runs_batched_and_records_nothing() {
        let mut tr = Tracer::new(false);
        let mut sim = tr.sim(7);
        assert!(!sim.telemetry_enabled());
        sim.schedule(Duration::from_micros(1), |_| {});
        tr.phase("drain", |tr| tr.drain(&mut sim));
        assert_eq!(sim.events_executed(), 1);
        assert_eq!(tr.steps.count(), 0);
        let sink: Rc<SubmitFn> = Rc::new(|_, _, _| {});
        assert!(Rc::ptr_eq(&tr.wrap_submit(Rc::clone(&sink)), &sink));
    }
}
