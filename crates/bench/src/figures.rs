//! The paper's three figures (§VIII-A–C), each defined once: the scenario
//! that produces it and the table of curves it plots. The `fig6`/`fig7`/
//! `fig8` binaries, the golden determinism tests, the trace tests and
//! `perfbaseline`'s `pipeline.fig6` all run these.

use onserve::deployment::DeploymentSpec;
use onserve::profile::ExecutionProfile;
use simkit::{Duration, Sim, SimTime, MB};
use wsstack::SoapValue;

use crate::{curve_from, trim_curves, Curve, Runner, KB};

/// A figure's scenario, drained to completion.
pub struct Figure {
    /// The system the scenario ran on, recorder and telemetry included.
    pub r: Runner,
    /// Where the plotted window starts.
    pub t0: SimTime,
    /// When the measured request was answered.
    pub done_at: SimTime,
    /// Bytes of job output the invocation delivered (0 for an upload).
    pub output_bytes: f64,
}

/// The y axis a recorded series is plotted on.
#[derive(Clone, Copy)]
pub enum Unit {
    /// Busy seconds per bucket as a percentage.
    Percent,
    /// Bytes per bucket as KB/s.
    KBps,
    /// Bytes per bucket as MB/s.
    MBps,
}

/// One plotted curve: recorder key, legend label, y axis.
pub type CurveSpec = (&'static str, &'static str, Unit);

/// Figure 6 — CPU, network and disk around one small-file invocation.
pub const FIG6: [CurveSpec; 5] = [
    ("appliance.cpu.busy", "CPU utilization", Unit::Percent),
    ("appliance.net.out.bytes", "network out", Unit::KBps),
    ("appliance.net.in.bytes", "network in", Unit::KBps),
    ("appliance.disk.write.bytes", "hard disk write", Unit::KBps),
    ("appliance.disk.read.bytes", "hard disk read", Unit::KBps),
];

/// Figure 7 — network and disk around one ~5 MB-file invocation.
pub const FIG7: [CurveSpec; 4] = [FIG6[1], FIG6[2], FIG6[3], FIG6[4]];

/// Figure 8 — CPU, network-in and disk around one 5 MB portal upload.
pub const FIG8: [CurveSpec; 4] = [
    FIG6[0],
    ("appliance.net.in.bytes", "network in", Unit::MBps),
    ("appliance.disk.write.bytes", "hard disk write", Unit::MBps),
    ("appliance.disk.read.bytes", "hard disk read", Unit::MBps),
];

impl Figure {
    /// The figure's curves from `t0` on, trailing all-zero tail trimmed.
    pub fn curves(&self, table: &[CurveSpec]) -> Vec<Curve> {
        let rec = self.r.sim.recorder_ref();
        let iv = rec.interval().as_secs_f64();
        let mut curves: Vec<Curve> = table
            .iter()
            .map(|&(key, label, unit)| {
                let (name, scale) = match unit {
                    Unit::Percent => ("%", 100.0 / iv),
                    Unit::KBps => ("KB/s", 1.0 / (iv * KB)),
                    Unit::MBps => ("MB/s", 1.0 / (iv * MB)),
                };
                curve_from(rec.series(key), self.t0, label, name, scale)
            })
            .collect();
        trim_curves(&mut curves);
        curves
    }
}

/// Publish `file_name` on `r`, then invoke the service once and drain.
fn published_then_invoked(
    mut r: Runner,
    file_name: &str,
    len: usize,
    profile: ExecutionProfile,
) -> Figure {
    let service = r.publish(file_name, len, profile, &[]).service_name;
    let t0 = r.sim.now();
    let (res, done_at) = r.invoke_blocking(&service, &[]);
    let output_bytes = match res.expect("invocation") {
        SoapValue::Binary { bytes, .. } => bytes,
        other => panic!("unexpected {other:?}"),
    };
    Figure {
        r,
        t0,
        done_at,
        output_bytes,
    }
}

/// Figure 6's scenario: a very small file (some bytes) invoked as a Web
/// service; the job runs ~60 s and writes a modest output that the poller
/// keeps re-fetching. `prepare` switches on whatever the caller observes
/// with (telemetry, host profile) before anything is scheduled.
pub fn fig6(prepare: impl FnOnce(&mut Sim)) -> Figure {
    let mut r = Runner::new(6, &DeploymentSpec::default());
    prepare(&mut r.sim);
    let profile = ExecutionProfile::quick()
        .lasting(Duration::from_secs(60))
        .producing(48.0 * KB);
    published_then_invoked(r, "small.exe", 64, profile)
}

/// Figure 7's scenario: Figure 6 with a ~5 MB executable.
pub fn fig7(prepare: impl FnOnce(&mut Sim)) -> Figure {
    let mut r = Runner::new(7, &DeploymentSpec::default());
    prepare(&mut r.sim);
    let profile = ExecutionProfile::quick()
        .lasting(Duration::from_secs(45))
        .producing(32.0 * KB);
    published_then_invoked(r, "large.exe", 5 * 1024 * 1024, profile)
}

/// Figure 8's scenario: a 5 MB portal upload on the 1000 Mbit/s LAN,
/// sampled every `interval`.
pub fn fig8(interval: Duration, prepare: impl FnOnce(&mut Sim)) -> Figure {
    let mut r = Runner::with_sampling(8, &DeploymentSpec::default(), interval);
    prepare(&mut r.sim);
    r.publish(
        "upload5mb.exe",
        5 * 1024 * 1024,
        ExecutionProfile::quick(),
        &[],
    );
    let done_at = r.sim.now();
    Figure {
        r,
        t0: SimTime::ZERO,
        done_at,
        output_bytes: 0.0,
    }
}
