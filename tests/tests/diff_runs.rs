//! Differential run analysis end-to-end: the validator-pool experiment from
//! the paper (§ bottleneck analysis), attributed by `obs::diff`. Widening
//! the VSCC pool from 1 to 4 at a signature-heavy operating point moves the
//! bottleneck out of the validate stage, and the artifact diff must both
//! detect the shift and account for the latency change segment-by-segment
//! (the telescoping contract).

use fabricsim::obs::{ArtifactDiff, ArtifactKind, SpanGraphAnalysis};
use fabricsim::report::run_summary_json;
use fabricsim::{OrdererType, PolicySpec, SimConfig, Simulation};

/// Solo / AND5 / 500 tps / seed 42 — the acceptance operating point: the
/// paper's VSCC-bound regime at pool width 1.
fn pool_config(pool: usize) -> SimConfig {
    let mut cfg = SimConfig {
        orderer_type: OrdererType::Solo,
        policy: PolicySpec::AndX(5),
        endorsing_peers: 10,
        arrival_rate_tps: 500.0,
        duration_secs: 15.0,
        warmup_secs: 3.0,
        cooldown_secs: 2.0,
        seed: 42,
        ..SimConfig::default()
    };
    cfg.cost.validator_pool_size = pool;
    cfg.obs.span_events = true;
    cfg
}

#[test]
fn pool_widening_shifts_the_bottleneck_out_of_vscc() {
    let narrow = Simulation::new(pool_config(1)).run_detailed();
    let wide = Simulation::new(pool_config(4)).run_detailed();

    // Run-summary diff: different pool widths are different experiments, so
    // the digests must disagree, and the hottest station must leave VSCC.
    let a = run_summary_json("pool1", &narrow);
    let b = run_summary_json("pool4", &wide);
    let diff = ArtifactDiff::from_json_strs(&a, &b).expect("summary diff");
    assert_eq!(diff.kind, ArtifactKind::RunSummary);
    assert_eq!(
        diff.digest_match,
        Some(false),
        "pool width is part of the experiment identity"
    );
    let shift = diff
        .shifts()
        .find(|s| s.dimension == "hottest_station")
        .expect("widening the pool must move the hottest station");
    assert!(
        shift.a.contains("vscc"),
        "pool=1 should be VSCC-bound, got {:?}",
        shift.a
    );
    assert!(
        !shift.b.contains("vscc"),
        "pool=4 should not be VSCC-bound, got {:?}",
        shift.b
    );

    // Span-analysis diff: the per-segment critical-path deltas must
    // telescope to the total-path delta within 1e-6 s, and the dominant
    // critical-path segment must shift away from the VSCC wait.
    let ta = SpanGraphAnalysis::from_spans(&narrow.observability.spans);
    let tb = SpanGraphAnalysis::from_spans(&wide.observability.spans);
    let tdiff = ArtifactDiff::from_json_strs(&ta.to_json(), &tb.to_json()).expect("span diff");
    assert_eq!(tdiff.kind, ArtifactKind::Analysis);
    let residual = tdiff.max_telescope_residual_s();
    assert!(
        residual < 1e-6,
        "segment deltas must telescope to the path delta (residual {residual:e})"
    );
    assert!(
        tdiff
            .sections
            .iter()
            .flat_map(|s| s.telescopes.iter())
            .any(|t| t.e2e_delta_s.abs() > 1e-3),
        "the pool change should move end-to-end latency measurably"
    );
    let seg_shift = tdiff
        .shifts()
        .find(|s| s.dimension == "span_graph.dominant_segment")
        .expect("dominant critical-path segment must shift");
    assert_eq!(
        seg_shift.a, "wait:vscc",
        "pool=1 critical path should be dominated by the wait for VSCC"
    );
    assert_ne!(
        seg_shift.b, "wait:vscc",
        "pool=4 critical path should leave the wait for VSCC"
    );
}

#[test]
fn self_diff_is_exactly_zero() {
    let r = Simulation::new(pool_config(1)).run_detailed();
    let doc = run_summary_json("self", &r);
    let diff = ArtifactDiff::from_json_strs(&doc, &doc).expect("self diff");
    assert_eq!(diff.digest_match, Some(true));
    assert_eq!(diff.max_abs_delta(), 0.0, "self-diff must be all-zero");
    assert_eq!(diff.shifts().count(), 0);
    assert_eq!(diff.max_telescope_residual_s(), 0.0);

    let ta = SpanGraphAnalysis::from_spans(&r.observability.spans).to_json();
    let tdiff = ArtifactDiff::from_json_strs(&ta, &ta).expect("span self diff");
    assert_eq!(tdiff.max_abs_delta(), 0.0);
    assert_eq!(tdiff.max_telescope_residual_s(), 0.0);
    assert_eq!(tdiff.shifts().count(), 0);
}
