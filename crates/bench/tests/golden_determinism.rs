//! Golden determinism: the figure pipelines must produce byte-identical
//! CSV output across runs and across kernel optimisations.
//!
//! The fixtures under `tests/golden/` were captured before the fast-path
//! work (interned metric IDs, zero-alloc fair-share); every optimisation
//! PR must keep them byte-for-byte stable. Each test runs what its binary
//! runs (`onserve_bench::figures`, a fleet module's `sweep()`) and compares
//! the bytes the binary writes (`curves_csv`, the module's `csv()`).
//! Regenerate deliberately by running the binaries and copying
//! `target/experiments/*.csv` here — and say so in the PR.

use onserve_bench::figures::{self, FIG6, FIG7, FIG8};
use onserve_bench::{curves_csv, Curve};
use simkit::Duration;

fn golden(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The fig6 pipeline's CSV plus the number of telemetry spans recorded.
fn fig6_csv(telemetry: bool) -> (String, usize) {
    let fig = figures::fig6(|sim| {
        if telemetry {
            sim.enable_telemetry();
        }
    });
    let spans = fig.r.sim.telemetry().map_or(0, |t| t.spans().len());
    (curves_csv(&fig.curves(&FIG6)), spans)
}

#[test]
fn fig6_curves_match_golden() {
    let (csv, _) = fig6_csv(false);
    assert_eq!(csv, golden("fig6.csv"), "fig6 CSV drifted");
}

/// Result-neutrality: running the exact same pipeline with the full span/
/// counter machinery turned on must not move a single byte of the golden
/// CSV — telemetry observes the schedule, it never participates in it.
#[test]
fn fig6_curves_unchanged_with_telemetry_enabled() {
    let (csv, spans) = fig6_csv(true);
    assert_eq!(csv, golden("fig6.csv"), "telemetry perturbed the fig6 CSV");
    assert!(spans > 10, "expected a populated span tree, got {spans} spans");
}

#[test]
fn fig7_curves_match_golden() {
    let curves = figures::fig7(|_| {}).curves(&FIG7);
    assert_eq!(curves_csv(&curves), golden("fig7.csv"), "fig7 CSV drifted");
}

fn fig8_curves(interval: Duration) -> Vec<Curve> {
    figures::fig8(interval, |_| {}).curves(&FIG8)
}

/// The fleet-scaling sweep must be byte-stable per seed, and its headline
/// result — replicas only scale when storage replicates with them — must
/// hold, not just its bytes.
#[test]
fn fleetscale_sweep_matches_golden() {
    use onserve_bench::fleetscale;
    let points = fleetscale::sweep();
    assert_eq!(
        fleetscale::csv(&points),
        golden("fleetscale.csv"),
        "fleetscale CSV drifted"
    );
    let tp = |topology: &str, replicas: usize| {
        points
            .iter()
            .find(|p| p.topology.label() == topology && p.replicas == replicas)
            .expect("sweep point present")
            .throughput_rps
    };
    assert!(
        tp("replicated", 4) >= 2.0 * tp("replicated", 1),
        "replicated storage must scale ≥2x from 1 to 4 replicas"
    );
    assert!(
        tp("shared", 4) <= 1.3 * tp("shared", 1),
        "shared storage must stay ~flat as replicas are added"
    );
}

/// The chaos experiment must be byte-stable per seed, and its headline
/// result — front-door retry recovers at least twice the goodput lost to
/// replica crashes — must hold, not just its bytes.
#[test]
fn chaos_sweep_matches_golden() {
    use onserve_bench::chaos;
    let points = chaos::sweep();
    assert_eq!(chaos::csv(&points), golden("chaos.csv"), "chaos CSV drifted");
    let row = |retry: bool| points.iter().find(|p| p.retry == retry).expect("row");
    let (on, off) = (row(true), row(false));
    assert_eq!(on.issued, off.issued, "same seed must offer the same load");
    assert_eq!(on.lost, 3, "all three pinned crashes must land");
    assert!(
        on.goodput_rps >= 2.0 * off.goodput_rps,
        "retry-on goodput ({}) must be ≥ 2x retry-off ({})",
        on.goodput_rps,
        off.goodput_rps
    );
    assert!(on.retried > 0, "retry-on must actually retry");
    assert_eq!(off.retried, 0, "retry-off must never retry");
}

/// The million-principal experiment's CI shrink must be byte-stable per
/// seed, and the shape it shares with the full run must hold: a churning
/// pin table (population ≫ capacity is only true at full scale, but even
/// here every distinct principal pins once), conservation at the front
/// door, and a population actually sampled broadly.
#[test]
fn millionuser_ci_matches_golden() {
    use onserve_bench::millionuser;
    let (point, _host) = millionuser::run_point(millionuser::CI);
    assert_eq!(
        millionuser::csv(std::slice::from_ref(&point)),
        golden("millionuser.csv"),
        "millionuser CI CSV drifted"
    );
    assert_eq!(
        point.issued,
        point.completed + point.faulted,
        "every issued request must settle"
    );
    assert_eq!(point.faulted, 0, "no faults in a quiet fleet");
    assert_eq!(
        point.affinity_misses, point.distinct_principals,
        "each distinct principal pins exactly once below pin-table capacity"
    );
    assert!(
        point.affinity_hits > 0,
        "repeat principals must ride their pins"
    );
    // With n draws from a population p, distinct ≈ p(1 − e^(−n/p)); at the
    // CI scale that is well over half the population.
    assert!(
        point.distinct_principals * 2 > point.population,
        "CI run must sample most of its population ({} of {})",
        point.distinct_principals,
        point.population
    );
    assert!(
        point.events > 500_000,
        "CI run must be kernel-heavy, saw {} events",
        point.events
    );
}

/// The geo experiment must be byte-stable per seed, and its headline
/// results must hold, not just their bytes: nearest-site routing beats
/// site-oblivious round-robin on mean latency, WAN link faults cost real
/// latency, and federation loses none of the accepted work that the
/// site-oblivious control times out on.
#[test]
fn geo_sweep_matches_golden() {
    use onserve_bench::geo::{self, GeoMode};
    let points = geo::sweep();
    assert_eq!(geo::csv(&points), golden("geo.csv"), "geo CSV drifted");
    let row = |m: GeoMode| points.iter().find(|p| p.mode == m).expect("row");
    let rr = row(GeoMode::RoundRobin);
    let near = row(GeoMode::Nearest);
    let deg = row(GeoMode::Degraded);
    let obl = row(GeoMode::Oblivious);
    let fed = row(GeoMode::Federated);
    for p in &points {
        assert_eq!(p.issued, rr.issued, "same seed must offer the same load");
        assert_eq!(p.shed, 0, "nothing is refused at the door");
    }
    // latency-aware routing: nearest-site keeps most answers off the WAN
    // and beats round-robin on mean latency
    assert!(
        near.wan_hops * 3 < rr.wan_hops * 2,
        "nearest-site routing must cut WAN round trips by a third ({} vs {})",
        near.wan_hops,
        rr.wan_hops
    );
    assert!(
        near.mean_ms < rr.mean_ms,
        "nearest-site routing must beat round-robin on mean latency ({} vs {})",
        near.mean_ms,
        rr.mean_ms
    );
    // wired link faults: drops and jitter on the same routing cost real
    // latency
    assert!(deg.link_drops > 0, "the fault injector must land drops");
    assert!(
        deg.mean_ms > near.mean_ms && deg.p99_ms > near.p99_ms,
        "link faults must cost latency (mean {} vs {}, p99 {} vs {})",
        deg.mean_ms,
        near.mean_ms,
        deg.p99_ms,
        near.p99_ms
    );
    // site-oblivious control: the outage blackholes pinned work until the
    // watchdog gives up — accepted requests are lost to timeouts
    assert!(obl.faulted > 0, "the control row must lose work to the outage");
    assert!(obl.blackholed > 0, "severed-site requests must blackhole");
    assert_eq!(
        obl.completed + obl.faulted,
        obl.issued,
        "control-row conservation: every request settles"
    );
    // federation: pinned work is forwarded around the outage, answers
    // produced behind the partition are pulled back on reconnect, and no
    // accepted request is lost
    assert_eq!(fed.faulted, 0, "federation must lose nothing");
    assert_eq!(fed.completed, fed.issued, "federation completes everything");
    assert!(fed.forwarded > 0, "pinned work must be forwarded cross-site");
    assert!(
        fed.results_pulled > 0,
        "answers held behind the partition must be pulled back"
    );
    assert_eq!(fed.blackholed, 0, "geo routing never feeds the severed site");
    assert!(
        fed.completed > obl.completed,
        "federation must complete strictly more than the oblivious control"
    );
    // the captured exposition carries site labels and satisfies the strict
    // parser; the nearest row's follow-the-sun traffic touches all three
    // sites, so every site label must appear
    let (families, samples) =
        simkit::validate_prometheus_text(&near.prom).expect("exposition snapshot is valid");
    assert!(
        families >= 8 && samples > families,
        "expected a populated exposition, got {families} families / {samples} samples"
    );
    assert!(
        near.prom.contains(r#"site="east""#)
            && near.prom.contains(r#"site="central""#)
            && near.prom.contains(r#"site="west""#),
        "per-replica series must carry their site label"
    );
}

#[test]
fn fig8_curves_match_golden_at_both_sampling_rates() {
    let fine = fig8_curves(Duration::from_millis(200));
    assert_eq!(
        curves_csv(&fine),
        golden("fig8-200ms.csv"),
        "fig8 200 ms CSV drifted"
    );
    let coarse = fig8_curves(Duration::from_secs(3));
    assert_eq!(
        curves_csv(&coarse),
        golden("fig8-3000ms.csv"),
        "fig8 3 s CSV drifted"
    );
}

/// The affinity experiment must be byte-stable per seed, and its headline
/// claim — sticky routing cuts credential exchanges and mean latency at
/// equal offered load — must hold in the committed fixture.
#[test]
fn affinity_sweep_matches_golden() {
    use onserve_bench::affinity;
    let points = affinity::sweep();
    assert_eq!(
        affinity::csv(&points),
        golden("affinity.csv"),
        "affinity CSV drifted"
    );
    let row = |on: bool| points.iter().find(|p| p.affinity == on).expect("row");
    let (on, off) = (row(true), row(false));
    assert_eq!(on.issued, off.issued, "same seed must offer the same load");
    assert!(
        on.auth_spans < off.auth_spans,
        "affinity must avoid credential exchanges ({} vs {})",
        on.auth_spans,
        off.auth_spans
    );
    assert_eq!(
        on.auth_spans, affinity::TENANTS as u64,
        "sticky fleet authenticates each tenant exactly once"
    );
    assert!(
        on.mean_latency_s < off.mean_latency_s,
        "affinity must lower mean latency ({} vs {})",
        on.mean_latency_s,
        off.mean_latency_s
    );
    assert!(on.affinity_hits > 0 && off.affinity_hits == 0);
    assert_eq!(on.faulted + off.faulted, 0, "no faults in a quiet fleet");
}

/// The gray-failure experiment must be byte-stable per seed; the detector
/// row must flag the degraded replica within bounded virtual time and land
/// a strictly better fleet p99 than the detector-off control.
#[test]
fn grayfail_sweep_matches_golden() {
    use onserve_bench::grayfail;
    let points = grayfail::sweep();
    assert_eq!(
        grayfail::csv(&points),
        golden("grayfail.csv"),
        "grayfail CSV drifted"
    );
    let row = |d: bool| points.iter().find(|p| p.detector == d).expect("row");
    let (on, off) = (row(true), row(false));
    assert_eq!(on.issued, off.issued, "same seed must offer the same load");
    assert!(on.probations >= 1, "the victim must reach probation");
    assert_eq!(on.ejections, 1, "continued degradation must eject");
    assert!(
        on.first_probation_s >= 0.0 && on.first_probation_s <= 300.0,
        "probation within ten detector ticks of the degrade, got +{} s",
        on.first_probation_s
    );
    assert!(
        on.first_eject_s > on.first_probation_s && on.first_eject_s <= 480.0,
        "bounded escalation to ejection, got +{} s",
        on.first_eject_s
    );
    assert!(on.replaced >= 1, "the autoscaler must replace the ejected replica");
    assert_eq!(off.probations + off.ejections, 0, "control row takes no action");
    assert!(
        on.fleet_p99_s < 0.5 * off.fleet_p99_s,
        "detector must recover the fleet p99 ({} s) well below the control ({} s)",
        on.fleet_p99_s,
        off.fleet_p99_s
    );
    // the captured exposition snapshot must satisfy the strict parser
    let (families, samples) =
        simkit::validate_prometheus_text(&on.prom).expect("exposition snapshot is valid");
    assert!(
        families >= 8 && samples > families,
        "expected a populated exposition, got {families} families / {samples} samples"
    );
    assert!(
        on.timeseries.starts_with("series,t_s,count,sum,max,p50,p95,p99\n"),
        "time-series CSV header drifted"
    );
}

/// The rollout experiment must be byte-stable per seed, and the
/// zero-downtime contract must hold row by row, not just its bytes:
/// the naive restart drops work, rolling and canary drop nothing, the
/// promoted canary completes the version shift, and the lemon-struck
/// canary rolls back exactly once with the fleet p99 recovered.
#[test]
fn rollout_sweep_matches_golden() {
    use onserve_bench::rollout::{self, RolloutMode, TO_VERSION};
    let points = rollout::sweep();
    assert_eq!(
        rollout::csv(&points),
        golden("rollout.csv"),
        "rollout CSV drifted"
    );
    let row = |m: RolloutMode| points.iter().find(|p| p.mode == m).expect("row");
    let restart = row(RolloutMode::Restart);
    let rolling = row(RolloutMode::Rolling);
    let promote = row(RolloutMode::CanaryPromote);
    let rollback = row(RolloutMode::CanaryRollback);
    for p in &points {
        assert_eq!(p.issued, restart.issued, "same seed must offer the same load");
        assert_eq!(
            p.completed + p.dropped,
            p.issued,
            "conservation: every request settles"
        );
    }
    // the naive baseline loses real work: in-flight requests fault at
    // the kill and arrivals during the boot window are refused
    assert!(restart.dropped > 0, "restart must drop work");
    assert!(restart.failed > 0, "restart must fault what was in flight");
    // rolling drops nothing — retirement drains, boots precede retires
    assert_eq!(rolling.dropped, 0, "rolling drops nothing");
    assert_eq!(rolling.failed, 0, "rolling faults nothing");
    assert_eq!(rolling.replaced, 3, "rolling replaces every v1 replica");
    assert_eq!(rolling.versions, format!("{TO_VERSION}:3"), "rolling lands on v2");
    // the healthy canary is promoted and the version shift completes
    assert_eq!(promote.dropped, 0, "canary promotion drops nothing");
    assert_eq!(promote.outcome, "promoted");
    assert_eq!(promote.versions, format!("{TO_VERSION}:3"), "promotion lands on v2");
    // the lemon-struck canary rolls back exactly once, the fleet stays
    // on v1, and the final-window p99 is back at the rolling baseline
    assert_eq!(rollback.rollbacks, 1, "exactly one rollback");
    assert_eq!(rollback.outcome, "rolled-back");
    assert_eq!(rollback.versions, "1:3", "rollback reverts the census to v1");
    assert_eq!(rollback.dropped, 0, "the drained canary loses nothing");
    assert!(
        rollback.fleet_p99_s > 0.0 && rollback.fleet_p99_s <= 1.5 * rolling.fleet_p99_s,
        "fleet p99 must recover after the rollback ({} s vs rolling {} s)",
        rollback.fleet_p99_s,
        rolling.fleet_p99_s
    );
    // the promoted fleet's exposition carries the new version label and
    // satisfies the strict parser
    let (families, samples) =
        simkit::validate_prometheus_text(&promote.prom).expect("exposition snapshot is valid");
    assert!(
        families >= 8 && samples > families,
        "expected a populated exposition, got {families} families / {samples} samples"
    );
    assert!(
        promote.prom.contains(&format!(r#"version="v{TO_VERSION}""#)),
        "per-replica series must carry the promoted version label"
    );
}

/// The noisy-neighbor experiment must be byte-stable per seed, and the
/// fairness contract must hold row by row: with QoS off one flooding
/// tenant collapses the behaved tenants' p99 (at least 5x the no-flood
/// baseline); with QoS on the behaved tenants hold within 1.2x of the
/// baseline while the flooder's own p99 degrades and its backlog queues
/// and sheds at the door. Tenant labels appear in the exposition only
/// when the QoS plane is on.
#[test]
fn noisyneighbor_sweep_matches_golden() {
    use onserve_bench::noisyneighbor::{self, Mode};
    let points = noisyneighbor::sweep();
    assert_eq!(
        noisyneighbor::csv(&points),
        golden("noisyneighbor.csv"),
        "noisyneighbor CSV drifted"
    );
    let row = |m: Mode| points.iter().find(|p| p.mode == m).expect("row");
    let (base, off, on) = (row(Mode::Base), row(Mode::QosOff), row(Mode::QosOn));
    for p in &points {
        assert_eq!(
            p.behaved_issued, base.behaved_issued,
            "behaved stream is forked first: identical across rows"
        );
        assert_eq!(
            p.behaved_ok + p.behaved_shed,
            p.behaved_issued,
            "conservation: every behaved request settles"
        );
        assert_eq!(
            p.flood_ok + p.flood_shed,
            p.flood_issued,
            "conservation: every flood request settles"
        );
    }
    assert_eq!(base.flood_issued, 0, "no flood in the baseline row");
    assert_eq!(
        off.flood_issued, on.flood_issued,
        "same seed must offer the same flood"
    );
    // QoS off: the flooder fills the global window and the behaved
    // tenants' p99 collapses
    assert!(
        off.behaved_p99_s >= 5.0 * base.behaved_p99_s,
        "without QoS the flood must collapse behaved p99 ({} s vs baseline {} s)",
        off.behaved_p99_s,
        base.behaved_p99_s
    );
    assert_eq!(off.door_queued + off.door_shed, 0, "no QoS stage when off");
    // QoS on: every behaved tenant holds near the baseline — the worst
    // single tenant, not just the aggregate
    assert!(
        on.worst_p99_s <= 1.2 * base.behaved_p99_s,
        "with QoS the worst behaved tenant must stay within 1.2x baseline ({} s vs {} s)",
        on.worst_p99_s,
        base.behaved_p99_s
    );
    assert_eq!(on.behaved_shed, 0, "QoS must not shed behaved work");
    // ... while the flooder pays: degraded latency, door queueing, sheds
    assert!(
        on.flood_p99_s >= 5.0 * on.behaved_p99_s,
        "the flooder's p99 must degrade under QoS ({} s vs behaved {} s)",
        on.flood_p99_s,
        on.behaved_p99_s
    );
    assert!(on.door_queued > 0, "the flooder's backlog must transit the door queue");
    assert!(on.flood_shed > 0, "the flooder's overflow must shed");
    // the QoS-on exposition carries per-tenant series and satisfies the
    // strict parser; the QoS-off exposition carries none
    let (families, samples) =
        simkit::validate_prometheus_text(&on.prom).expect("exposition snapshot is valid");
    assert!(
        families >= 8 && samples > families,
        "expected a populated exposition, got {families} families / {samples} samples"
    );
    assert!(
        on.prom.contains(r#"tenant=""#),
        "QoS-on exposition must carry tenant labels"
    );
    assert!(
        !off.prom.contains(r#"tenant=""#),
        "QoS-off exposition must stay tenant-label free"
    );
}
