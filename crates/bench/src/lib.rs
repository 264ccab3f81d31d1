#![warn(missing_docs)]

//! Shared experiment drivers for the benchmark harness.
//!
//! One appliance: the blocking [`Runner`] around a [`Deployment`], which
//! the paper-section binaries (`scalability`, `netsweep`, `diskio`,
//! `overhead`, `ablations`) drive directly and [`figures`] builds the
//! paper's Figures 6–8 on. A fleet: [`fleetrun::FleetRun`], with one
//! module per fleet experiment on top of it (its constants, its `…Point`
//! row, `sweep()` and the `csv()` the golden pins) and one binary each.
//! Binaries print what the fixtures pin — the figures' series as ASCII
//! charts + row tables, a sweep's CSV as an aligned table
//! ([`report_sweep`]) — so EXPERIMENTS.md can quote exact numbers.

pub mod affinity;
pub mod chaos;
pub mod figures;
pub mod fleetrun;
pub mod fleetscale;
pub mod geo;
pub mod grayfail;
pub mod millionuser;
pub mod noisyneighbor;
pub mod rollout;

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use onserve::deployment::{Deployment, DeploymentSpec};
use onserve::profile::ExecutionProfile;
use onserve::{OnServeConfig, PublishedService};
use simkit::metrics::Series;
use simkit::report::{ascii_chart_rows, series_table, TextTable};
use simkit::{Sim, SimTime};
use wsstack::{SoapFault, SoapValue};

/// A deployment plus its simulator, with blocking-style verbs.
pub struct Runner {
    /// The virtual world.
    pub sim: Sim,
    /// The system under test.
    pub d: Deployment,
}

impl Runner {
    /// Fresh system with the paper's 3-second sampling.
    pub fn new(seed: u64, spec: &DeploymentSpec) -> Runner {
        let mut sim = Sim::new(seed);
        let d = Deployment::build(&mut sim, spec);
        Runner { sim, d }
    }

    /// Fresh default deployment whose middleware configuration `configure`
    /// has adjusted — the one knob an ablation or sweep point turns.
    pub fn with_config(seed: u64, configure: impl FnOnce(&mut OnServeConfig)) -> Runner {
        let mut spec = DeploymentSpec::default();
        configure(&mut spec.config);
        Runner::new(seed, &spec)
    }

    /// Fresh system with a custom sampling interval.
    pub fn with_sampling(seed: u64, spec: &DeploymentSpec, interval: simkit::Duration) -> Runner {
        let mut sim = Sim::with_sample_interval(seed, interval);
        let d = Deployment::build(&mut sim, spec);
        Runner { sim, d }
    }

    /// Upload + publish, draining the simulation.
    pub fn publish(
        &mut self,
        name: &str,
        len: usize,
        profile: ExecutionProfile,
        params: &[(&str, &str)],
    ) -> PublishedService {
        let req = self.d.upload_request(name, len, profile, params);
        let out: Rc<RefCell<Option<PublishedService>>> = Rc::new(RefCell::new(None));
        let o2 = Rc::clone(&out);
        self.d.portal.upload(&mut self.sim, req, move |_, r| {
            *o2.borrow_mut() = Some(r.expect("publish"));
        });
        self.sim.run();
        let svc = out.borrow_mut().take().expect("published");
        svc
    }

    /// Fire `n` concurrent portal uploads (`{prefix}{i}.exe`, `len` bytes
    /// each, all sharing `profile`), drain the simulation, and return the
    /// batch makespan in seconds. Panics if any upload fails or goes
    /// unanswered — sweep points measure saturation, not error paths.
    pub fn upload_burst(&mut self, prefix: &str, n: u32, len: usize, profile: ExecutionProfile) -> f64 {
        let t0 = self.sim.now();
        let done = Rc::new(Cell::new(0u32));
        for i in 0..n {
            let req = self
                .d
                .upload_request(&format!("{prefix}{i}.exe"), len, profile, &[]);
            let c = done.clone();
            self.d.portal.upload(&mut self.sim, req, move |_, res| {
                res.expect("publish");
                c.set(c.get() + 1);
            });
        }
        self.sim.run();
        assert_eq!(done.get(), n, "upload burst lost requests");
        (self.sim.now() - t0).as_secs_f64()
    }

    /// Fire `n` concurrent no-argument invocations of `service`, drain,
    /// and return the batch makespan in seconds. Panics on any answer
    /// that is not the job's output.
    pub fn invoke_burst(&mut self, service: &str, n: u32) -> f64 {
        let t0 = self.sim.now();
        let done = Rc::new(Cell::new(0u32));
        for _ in 0..n {
            let c = done.clone();
            self.d.invoke(&mut self.sim, service, &[], move |_, res| {
                assert!(
                    matches!(res, Ok(SoapValue::Binary { .. })),
                    "invoke: {res:?}"
                );
                c.set(c.get() + 1);
            });
        }
        self.sim.run();
        assert_eq!(done.get(), n, "invoke burst lost requests");
        (self.sim.now() - t0).as_secs_f64()
    }

    /// Invoke and drain; returns `(result, completion_instant)`.
    pub fn invoke_blocking(
        &mut self,
        service: &str,
        args: &[(&str, SoapValue)],
    ) -> (Result<SoapValue, SoapFault>, SimTime) {
        let out: Rc<RefCell<Option<Result<SoapValue, SoapFault>>>> = Rc::new(RefCell::new(None));
        let at = Rc::new(Cell::new(SimTime::ZERO));
        let (o2, a2) = (Rc::clone(&out), Rc::clone(&at));
        self.d.invoke(&mut self.sim, service, args, move |sim, r| {
            *o2.borrow_mut() = Some(r);
            a2.set(sim.now());
        });
        self.sim.run();
        let r = out.borrow_mut().take().expect("responded");
        (r, at.get())
    }
}

/// One plotted curve: label, y-axis unit, `(t, value)` rows.
pub struct Curve {
    /// Legend label.
    pub label: String,
    /// Unit of the y values after scaling.
    pub unit: String,
    /// `(t_seconds, value)` rows.
    pub rows: Vec<(f64, f64)>,
}

/// Extract a curve from a recorded series, rebased so `t0` is zero and
/// values scaled by `scale` (e.g. `1/(interval·KB)` turns bytes-per-bucket
/// into KB/s).
pub fn curve_from(
    series: Option<&Series>,
    t0: SimTime,
    label: &str,
    unit: &str,
    scale: f64,
) -> Curve {
    let rows = match series {
        None => Vec::new(),
        Some(s) => {
            let start = (t0.ticks() / s.interval().ticks()) as usize;
            let iv = s.interval().as_secs_f64();
            s.buckets()
                .iter()
                .enumerate()
                .skip(start)
                .map(|(i, &v)| ((i - start) as f64 * iv, v * scale))
                .collect()
        }
    };
    Curve {
        label: label.to_owned(),
        unit: unit.to_owned(),
        rows,
    }
}

/// Trim trailing all-zero tail from a set of curves (keeps charts tight).
pub fn trim_curves(curves: &mut [Curve]) {
    let last_active = curves
        .iter()
        .flat_map(|c| {
            c.rows
                .iter()
                .enumerate()
                .filter(|(_, &(_, v))| v.abs() > 1e-9)
                .map(|(i, _)| i)
                .max()
        })
        .max()
        .unwrap_or(0);
    for c in curves.iter_mut() {
        c.rows.truncate(last_active + 2);
    }
}

/// Render a figure: header, one chart per curve, then the row tables.
pub fn render_figure(title: &str, note: &str, curves: &[Curve]) -> String {
    let mut out = String::new();
    out.push_str(&format!("==== {title} ====\n"));
    if !note.is_empty() {
        out.push_str(note);
        out.push('\n');
    }
    out.push('\n');
    for c in curves {
        out.push_str(&ascii_chart_rows(
            &format!("{} [{}]", c.label, c.unit),
            &c.unit,
            &c.rows,
            8,
        ));
        out.push('\n');
    }
    for c in curves {
        out.push_str(&format!("--- {} ({}) ---\n", c.label, c.unit));
        out.push_str(&series_table(&c.unit, &c.rows));
        out.push('\n');
    }
    out
}

/// The paper's KB (1024 bytes).
pub const KB: f64 = 1024.0;

/// Parse `--trace <path>` (or `--trace=<path>`) from the process
/// arguments. Figure binaries use this to opt into telemetry: when the
/// flag is present they enable tracing on the simulator and dump a
/// Chrome trace-event file at exit.
pub fn trace_arg() -> Option<std::path::PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--trace" {
            return args.next().map(std::path::PathBuf::from);
        }
        if let Some(p) = a.strip_prefix("--trace=") {
            return Some(std::path::PathBuf::from(p));
        }
    }
    None
}

/// Write the run's telemetry as Chrome trace-event JSON to `path`
/// (loadable in Perfetto / `chrome://tracing`; timestamps are virtual
/// microseconds) and print the span-tree summary plus kernel profile to
/// stderr.
pub fn write_trace(sim: &Sim, path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, sim.export_chrome_trace())?;
    eprintln!(
        "(trace written to {}; load it at https://ui.perfetto.dev)",
        path.display()
    );
    eprint!("{}", sim.span_summary());
    eprint!("{}", sim.profile());
    Ok(())
}

/// Run `f(index, &item)` for every sweep point on its own host thread and
/// return the results in input order.
///
/// Every sweep binary shares this shape: each point owns an independent
/// simulation (seeded from `index`), so the only cross-thread state is the
/// per-point output slot each thread writes — no locking, no post-sort.
pub fn par_sweep<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let mut out: Vec<Option<R>> = Vec::new();
    out.resize_with(items.len(), || None);
    // the scope joins every thread and re-raises a sweep point's panic
    std::thread::scope(|scope| {
        for (i, (slot, item)) in out.iter_mut().zip(items).enumerate() {
            let f = &f;
            scope.spawn(move || *slot = Some(f(i, item)));
        }
    });
    out.into_iter()
        .map(|r| r.expect("sweep point completed"))
        .collect()
}

/// Write one experiment's outputs to `target/experiments/<name>.<ext>`,
/// one file per `(ext, contents)` pair, so the data behind every table
/// and figure can be re-plotted or diffed with external tools. Returns
/// the paths written, in the order given.
pub fn save_experiment(
    name: &str,
    outputs: &[(&str, &str)],
) -> std::io::Result<Vec<std::path::PathBuf>> {
    let dir = std::path::Path::new("target").join("experiments");
    std::fs::create_dir_all(&dir)?;
    let mut paths = Vec::with_capacity(outputs.len());
    for (ext, contents) in outputs {
        let path = dir.join(format!("{name}.{ext}"));
        std::fs::write(&path, contents)?;
        paths.push(path);
    }
    Ok(paths)
}

/// Render a sweep's CSV (header line, then one line per row, no quoted
/// cells) as an aligned text table: the columns a reader sees are named
/// and rounded exactly as the golden fixture pins them.
pub fn csv_table(csv: &str) -> String {
    let mut lines = csv.lines().map(|l| l.split(',').collect::<Vec<_>>());
    let mut table = TextTable::new(lines.next().expect("CSV header"));
    for row in lines {
        table.row(row);
    }
    table.render()
}

/// Print a sweep the way every sweep binary does — its CSV (the first
/// output) as a table, then the experiment's one-sentence `claim` — and
/// save the outputs as `target/experiments/<name>.<ext>`.
pub fn report_sweep(name: &str, outputs: &[(&str, &str)], claim: &str) {
    println!("{}\n{claim}", csv_table(outputs[0].1));
    let paths = save_experiment(name, outputs).expect("write target/experiments");
    let listed: Vec<String> = paths.iter().map(|p| p.display().to_string()).collect();
    println!("\n(written: {})", listed.join(", "));
}

/// A figure's curves as CSV: a shared time column, then one
/// `label (unit)` column per curve — the bytes the figure goldens pin.
pub fn curves_csv(curves: &[Curve]) -> String {
    let headers: Vec<String> = curves
        .iter()
        .map(|c| format!("{} ({})", c.label, c.unit))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let rows: Vec<&[(f64, f64)]> = curves.iter().map(|c| c.rows.as_slice()).collect();
    simkit::report::curves_to_csv(&header_refs, &rows)
}

/// Write a figure's curves to `target/experiments/<name>.csv`. Returns
/// the path written.
pub fn save_curves(name: &str, curves: &[Curve]) -> std::io::Result<std::path::PathBuf> {
    Ok(save_experiment(name, &[("csv", &curves_csv(curves))])?.remove(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::Duration;

    #[test]
    fn runner_round_trip() {
        let mut r = Runner::new(5, &DeploymentSpec::default());
        let svc = r.publish("t.exe", 4096, ExecutionProfile::quick().producing(64.0), &[]);
        assert_eq!(svc.service_name, "t");
        let (res, at) = r.invoke_blocking("t", &[]);
        assert!(matches!(res, Ok(SoapValue::Binary { .. })));
        assert!(at > SimTime::ZERO);
    }

    #[test]
    fn with_config_turns_one_knob_on_the_default_deployment() {
        let polls = |secs: u64| {
            let mut r = Runner::with_config(5, |c| c.poll_interval = Duration::from_secs(secs));
            r.publish("t.exe", 4096, ExecutionProfile::quick(), &[]);
            r.invoke_burst("t", 1);
            r.d.agent.polls_issued()
        };
        assert!(polls(3) > polls(30), "a shorter interval polls more often");
    }

    #[test]
    fn curve_rebases_time() {
        let mut sim = Sim::with_sample_interval(1, Duration::from_secs(1));
        sim.recorder().add_point("x", SimTime::from_secs(5), 10.0);
        let c = curve_from(
            sim.recorder_ref().series("x"),
            SimTime::from_secs(4),
            "x",
            "u",
            0.5,
        );
        assert_eq!(c.rows, vec![(0.0, 0.0), (1.0, 5.0)]);
    }

    #[test]
    fn trim_removes_tail() {
        let mut curves = vec![Curve {
            label: "a".into(),
            unit: "u".into(),
            rows: vec![(0.0, 1.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0), (4.0, 0.0)],
        }];
        trim_curves(&mut curves);
        assert_eq!(curves[0].rows.len(), 2);
    }

    #[test]
    fn save_curves_writes_csv() {
        let curves = vec![Curve {
            label: "net".into(),
            unit: "KB/s".into(),
            rows: vec![(0.0, 1.0), (3.0, 2.5)],
        }];
        let path = save_curves("unit-test-figure", &curves).expect("write");
        let text = std::fs::read_to_string(&path).expect("read back");
        assert!(text.starts_with("t_seconds,net (KB/s)"));
        assert!(text.contains("3,2.5"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn csv_table_right_aligns_the_csv_cells_under_their_headers() {
        let table = csv_table("mode,p99_s\nroundrobin,1.5000\non,10.2500\n");
        let want =
            "      mode    p99_s\n-------------------\nroundrobin   1.5000\n        on  10.2500\n";
        assert_eq!(table, want);
    }

    #[test]
    fn csv_table_renders_a_golden_with_one_line_per_row_plus_two() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/geo.csv");
        let csv = std::fs::read_to_string(path).expect("golden");
        let table = csv_table(&csv);
        // header, rule, then the CSV's data rows
        assert_eq!(table.lines().count(), csv.lines().count() + 1);
        let header = table.lines().next().expect("header");
        assert!(header.ends_with("mean_ms    p99_ms"), "{header}");
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn csv_table_rejects_a_row_that_does_not_match_the_header() {
        csv_table("a,b\n1,2,3\n");
    }

    #[test]
    fn report_sweep_saves_every_output_under_the_sweep_name() {
        let outputs = [("csv", "a,b\n1,2\n"), ("prom", "x 1\n")];
        report_sweep("unit-test-sweep", &outputs, "claim");
        for (ext, want) in outputs {
            let path = format!("target/experiments/unit-test-sweep.{ext}");
            assert_eq!(std::fs::read_to_string(&path).expect("written"), want);
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn par_sweep_preserves_input_order() {
        let items: Vec<u64> = (0..32).collect();
        let out = par_sweep(&items, |i, &x| {
            // stagger completion so slow points cannot reorder results
            std::thread::sleep(std::time::Duration::from_micros((32 - x) * 50));
            (i, x * 2)
        });
        assert_eq!(out.len(), 32);
        for (i, &(idx, doubled)) in out.iter().enumerate() {
            assert_eq!(idx, i);
            assert_eq!(doubled, items[i] * 2);
        }
    }

    #[test]
    fn par_sweep_empty_input() {
        let out: Vec<u32> = par_sweep(&[] as &[u8], |_, _| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn figure_renders_all_sections() {
        let curves = vec![Curve {
            label: "net".into(),
            unit: "KB/s".into(),
            rows: vec![(0.0, 1.0), (3.0, 2.0)],
        }];
        let s = render_figure("Fig X", "a note", &curves);
        assert!(s.contains("Fig X"));
        assert!(s.contains("a note"));
        assert!(s.contains("net"));
        assert!(s.contains("KB/s"));
    }
}
