//! The span-graph analyzer against a real run: its committed population must
//! agree with the simulator's own per-transaction accounting, and at the
//! paper's validate-bound operating point the critical path must be
//! dominated by the wait for the validator. (The per-transaction e2e tiling
//! check lives in `spans.rs`.)

use fabricsim::obs::{parse_spans_jsonl, phase_group, SpanGraphAnalysis};
use fabricsim::{OrdererType, PolicySpec, SimConfig, Simulation, TxOutcome};

/// The acceptance scenario: 500 tps offered, single-width validator pool —
/// the paper's Fig. 6/7 operating point where VSCC saturates first.
fn traced_500tps_pool1() -> SimConfig {
    let mut cfg = SimConfig {
        orderer_type: OrdererType::Solo,
        policy: PolicySpec::OrN(10),
        arrival_rate_tps: 500.0,
        endorsing_peers: 10,
        duration_secs: 15.0,
        warmup_secs: 3.0,
        cooldown_secs: 2.0,
        ..SimConfig::default()
    };
    cfg.cost.validator_pool_size = 1;
    cfg.obs.span_events = true;
    cfg
}

#[test]
fn analyzer_agrees_with_simulator_accounting() {
    let r = Simulation::new(traced_500tps_pool1()).run_detailed();

    // JSONL round trip first: the analyzer consumes what --span-out writes.
    let spans = parse_spans_jsonl(&r.observability.spans_jsonl()).expect("spans must parse back");
    assert_eq!(&spans, &r.observability.spans);
    let analysis = SpanGraphAnalysis::from_spans(&spans);

    // Same population: one critical path per committed TxTrace, and the
    // paths' (committed - created) multiset equals the traces' within 1e-9 s
    // (paths carry only the short tx hash, so compare sorted latencies).
    let mut path_e2e: Vec<f64> = analysis
        .paths
        .iter()
        .map(|p| p.committed_s - p.created_s)
        .collect();
    let mut trace_e2e: Vec<f64> = r
        .traces
        .iter()
        .filter(|t| matches!(t.outcome, TxOutcome::Committed(_)))
        .map(|t| {
            t.committed
                .expect("committed tx has timestamp")
                .as_secs_f64()
                - t.created.as_secs_f64()
        })
        .collect();
    assert!(!path_e2e.is_empty());
    assert_eq!(
        analysis.txs,
        trace_e2e.len(),
        "one critical path per committed TxTrace"
    );
    path_e2e.sort_by(f64::total_cmp);
    trace_e2e.sort_by(f64::total_cmp);
    for (p, t) in path_e2e.iter().zip(&trace_e2e) {
        assert!(
            (p - t).abs() < 1e-9,
            "critical path e2e {p} disagrees with simulator trace e2e {t}"
        );
    }
}

#[test]
fn decomposition_reproduces_validate_dominance_at_500tps_pool1() {
    let r = Simulation::new(traced_500tps_pool1()).run_detailed();
    let analysis = SpanGraphAnalysis::from_spans(&r.observability.spans);
    assert!(analysis.txs > 0);

    // Acceptance: blocks queueing for the single-width validator dominate
    // the critical path — the paper's Finding 3.
    let (dominant, secs) = &analysis.segment_share[0];
    assert_eq!(dominant, "wait:vscc", "{:?}", analysis.segment_share);
    assert_eq!(phase_group(dominant), "validate");
    let (runner_up, next) = &analysis.segment_share[1];
    assert!(
        *secs > 2.0 * next,
        "wait:vscc ({secs} s) should dwarf {runner_up} ({next} s)"
    );

    // The rendered artifacts carry the dominance result.
    assert!(analysis.render_table().contains("segment dominance"));
    assert!(analysis
        .to_json()
        .contains("\"segments\":[{\"name\":\"wait:vscc\""));
}
