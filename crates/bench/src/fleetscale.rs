//! The fleet-scaling experiment: throughput and latency vs replica count
//! under both storage topologies.
//!
//! §VIII-D ends with the observation that a single appliance saturates on
//! I/O and the remedy is more appliances. This sweep quantifies the
//! remedy's fine print: replicas only buy throughput when the executable
//! database replicates with them. Every point boots a [`fleet::Fleet`] of
//! N appliances, publishes one service, then offers the same open-loop
//! Poisson load through the front-end dispatcher and measures completion
//! throughput plus latency percentiles.
//!
//! The scenario is shaped so the contended resources are cheap to
//! simulate: a small (64 KB) executable — the blob store is byte-accurate,
//! so big executables cost real wall-clock time — combined with a fat
//! (2 MB) result over a thin (2 MB/s) per-replica WAN. One replica
//! therefore completes ~1 request/s end to end. Under
//! [`StorageTopology::Shared`] every invocation's database load also
//! queues on one thin NAS, which caps the whole fleet near the same
//! ~1 request/s no matter how many replicas join; under
//! [`StorageTopology::Replicated`] each appliance carries its own store
//! and throughput grows with N until the offered load is absorbed.
//!
//! Shared by the `fleetscale` binary and the golden determinism test so
//! both always describe the same experiment.

use fleet::{ArrivalProcess, FleetSpec, Mix, StorageTopology};
use onserve::profile::ExecutionProfile;
use simkit::{Duration, HostSpec, KB, MB};

use crate::fleetrun::{fleet_image, FleetRun};

/// Replica counts each topology is swept over.
pub const REPLICAS: [usize; 3] = [1, 2, 4];

/// Open-loop offered load, requests/second.
pub const OFFERED_RPS: f64 = 5.0;

/// Measurement window after the fleet is booted and provisioned.
pub fn horizon() -> Duration {
    Duration::from_secs(120)
}

/// One measured sweep point.
pub struct FleetPoint {
    /// Replica count.
    pub replicas: usize,
    /// Storage topology label (`shared` / `replicated`).
    pub topology: StorageTopology,
    /// Completions per second over the measurement window.
    pub throughput_rps: f64,
    /// Median latency of successful requests, seconds.
    pub p50_s: f64,
    /// 95th percentile latency, seconds.
    pub p95_s: f64,
    /// 99th percentile latency, seconds.
    pub p99_s: f64,
    /// Requests shed at the front door (admission limit).
    pub shed: u64,
    /// Requests issued by the generator.
    pub issued: u64,
    /// Replicas that reached the rotation.
    pub booted: u64,
}

/// The sweep's fleet configuration for one point.
pub fn fleet_spec(topology: StorageTopology, replicas: usize) -> FleetSpec {
    let mut spec = FleetSpec::with_image(fleet_image());
    spec.topology = topology;
    spec.initial_replicas = replicas;
    // thin per-replica WAN: the 2 MB result serializes for ~1 s per
    // request, making one replica good for ~1 request/s
    spec.base.wan_bandwidth_override = Some(2.0 * MB);
    // the shared store is a thin NAS: a 64 KB executable load occupies its
    // write channel for ~1 s, so the whole fleet shares ~1 request/s of
    // database bandwidth
    spec.shared_storage_spec = HostSpec {
        name: "blobstore".into(),
        cpu_cores: 2.0,
        disk_read_bps: 96.0 * KB,
        disk_write_bps: 64.0 * KB,
    };
    spec
}

/// Run one sweep point: boot, provision, offer load, measure. The live
/// run comes back with the point so the binary's `--trace` path can export
/// the span tree of a representative point run with `telemetry` on.
pub fn run_point(
    topology: StorageTopology,
    replicas: usize,
    seed: u64,
    telemetry: bool,
) -> (FleetRun, FleetPoint) {
    let mut run = FleetRun::new(seed, fleet_spec(topology, replicas), telemetry);
    run.provision(
        ExecutionProfile::quick()
            .lasting(Duration::from_secs(2))
            .producing(2.0 * MB),
    );
    let until = run.sim.now() + horizon();
    let stats = run.offer(
        ArrivalProcess::Poisson { rate: OFFERED_RPS },
        Mix::invoke_only(&["app"]),
        until,
    );
    run.sim.run();
    let point = FleetPoint {
        replicas,
        topology,
        throughput_rps: stats.throughput(horizon()),
        p50_s: stats.latency_percentile(50.0),
        p95_s: stats.latency_percentile(95.0),
        p99_s: stats.latency_percentile(99.0),
        shed: run.fleet.dispatcher().counters().shed,
        issued: stats.issued(),
        booted: run.fleet.booted_total(),
    };
    (run, point)
}

/// Run the full sweep (both topologies × [`REPLICAS`]), one thread per
/// point, seeds fixed per point so the output is reproducible.
pub fn sweep() -> Vec<FleetPoint> {
    let points: Vec<(StorageTopology, usize)> = [StorageTopology::Shared, StorageTopology::Replicated]
        .into_iter()
        .flat_map(|t| REPLICAS.into_iter().map(move |n| (t, n)))
        .collect();
    crate::par_sweep(&points, |i, &(topology, replicas)| {
        run_point(topology, replicas, 0xf1ee7 + i as u64, false).1
    })
}

/// Render the sweep as the CSV committed under `tests/golden/`.
pub fn csv(points: &[FleetPoint]) -> String {
    let mut out =
        String::from("replicas,topology,throughput_rps,p50_s,p95_s,p99_s,shed,issued,booted\n");
    for p in points {
        out.push_str(&format!(
            "{},{},{:.4},{:.3},{:.3},{:.3},{},{},{}\n",
            p.replicas,
            p.topology.label(),
            p.throughput_rps,
            p.p50_s,
            p.p95_s,
            p.p99_s,
            p.shed,
            p.issued,
            p.booted
        ));
    }
    out
}
