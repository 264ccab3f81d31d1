//! End-to-end trace checks on the Figure-6 pipeline.
//!
//! With telemetry enabled, one invocation of the small service must
//! produce a causal span tree whose invocation root contains the grid
//! stages in order — authenticate → stage → submit — plus at least three
//! tentative-output polls spaced by the configured 9 s poll interval, and
//! the Chrome trace-event export must be strictly well-formed (parseable
//! JSON, monotone timestamps, balanced `B`/`E` pairs, resolvable parent
//! references — all enforced by `validate_chrome_trace`).

use onserve_bench::figures::fig6;
use onserve_bench::Runner;
use simkit::telemetry::validate_chrome_trace;

/// The fig6 scenario with telemetry on, drained to completion.
fn traced_fig6() -> Runner {
    fig6(|sim| sim.enable_telemetry()).r
}

#[test]
fn invocation_tree_has_grid_stages_and_periodic_polls() {
    let r = traced_fig6();
    let t = r.sim.telemetry().expect("telemetry on");

    let root = *t
        .spans_named("onserve.invoke")
        .first()
        .expect("onserve.invoke span recorded");
    let stage_start = |name: &str| -> f64 {
        let id = t
            .spans_named(name)
            .into_iter()
            .find(|&id| t.is_descendant(id, root))
            .unwrap_or_else(|| panic!("{name} missing from the invocation tree"));
        t.span(id).expect("resolvable id").start.as_secs_f64()
    };

    let auth = stage_start("agent.authenticate");
    let stage = stage_start("agent.stage");
    let submit = stage_start("agent.submit");
    assert!(
        auth <= stage && stage <= submit,
        "grid stages out of order: authenticate {auth} s, stage {stage} s, submit {submit} s"
    );

    // the gatekeeper's job span nests under the submission
    assert!(
        t.spans_named("gram.job")
            .into_iter()
            .any(|id| t.is_descendant(id, root)),
        "gram.job missing from the invocation tree"
    );

    // at least three tentative-output polls, spaced by the 9 s interval
    // (plus the request round-trip)
    let polls: Vec<f64> = t
        .spans_named("agent.poll")
        .into_iter()
        .filter(|&id| t.is_descendant(id, root))
        .map(|id| t.span(id).expect("resolvable id").start.as_secs_f64())
        .collect();
    assert!(
        polls.len() >= 3,
        "expected >= 3 periodic polls, got {}",
        polls.len()
    );
    assert!(polls[0] >= submit, "polling started before submission");
    for gap in polls.windows(2).map(|w| w[1] - w[0]) {
        assert!(
            (9.0..=13.0).contains(&gap),
            "poll gap {gap:.2} s outside the 9 s poll-interval band"
        );
    }

    // the invocation root closed cleanly
    let root_rec = t.span(root).expect("root record");
    assert!(root_rec.end.is_some(), "onserve.invoke never closed");
    assert!(!root_rec.failed, "onserve.invoke marked failed");
}

#[test]
fn chrome_trace_export_is_strictly_well_formed() {
    let r = traced_fig6();
    let text = r.sim.export_chrome_trace();
    let check = validate_chrome_trace(&text).expect("well-formed Chrome trace");
    assert!(check.events > 0, "empty trace");
    assert_eq!(check.begins, check.ends, "unbalanced B/E events");
    assert!(check.max_ts_us > 0);
    // timestamps are the virtual clock in microseconds, so nothing can be
    // later than the drained simulation's end instant
    assert!(check.max_ts_us <= r.sim.now().ticks());
}

#[test]
fn disabled_run_exports_empty_trace() {
    let sim = simkit::Sim::new(0);
    let check = validate_chrome_trace(&sim.export_chrome_trace()).expect("empty skeleton parses");
    assert_eq!(check.events, 0);
}

#[test]
fn host_profile_changes_nothing_the_run_computes() {
    let plain = fig6(|_| {}).r;
    let profiled = fig6(|sim| sim.enable_host_profile()).r;
    assert_eq!(plain.sim.events_executed(), profiled.sim.events_executed());
    assert_eq!(plain.sim.now(), profiled.sim.now());
    let (a, b) = (plain.sim.recorder_ref(), profiled.sim.recorder_ref());
    assert_eq!(a.keys().collect::<Vec<_>>(), b.keys().collect::<Vec<_>>());
    for key in a.keys() {
        assert_eq!(a.total(key).to_bits(), b.total(key).to_bits(), "{key}");
    }
    // off: no rows, nothing printed; on: every fired event is in one row
    assert!(plain.sim.profile().host_time_by_closure.is_empty());
    assert!(!plain.sim.profile().to_string().contains("host"));
    let rows = profiled.sim.profile().host_time_by_closure;
    assert_eq!(
        rows.iter().map(|c| c.count).sum::<u64>(),
        profiled.sim.events_executed()
    );
    assert!(
        rows.iter().any(|c| c.closure.contains("PsServer")),
        "{rows:?}"
    );
}
