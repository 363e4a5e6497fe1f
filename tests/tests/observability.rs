//! End-to-end observability: causal span traces, sampled time-series, and
//! the bottleneck-attribution report, exercised through the full simulation.

use fabricsim::obs::{parse_spans_jsonl, SpanKind};
use fabricsim::{OrdererType, PolicySpec, SimConfig, Simulation};

fn obs_config(policy: PolicySpec, rate: f64) -> SimConfig {
    let mut cfg = SimConfig {
        orderer_type: OrdererType::Solo,
        policy,
        arrival_rate_tps: rate,
        endorsing_peers: 10,
        duration_secs: 15.0,
        warmup_secs: 3.0,
        cooldown_secs: 2.0,
        ..SimConfig::default()
    };
    cfg.obs.span_events = true;
    cfg
}

#[test]
fn tracing_is_off_by_default_and_does_not_change_results() {
    let mut base = obs_config(PolicySpec::OrN(10), 100.0);
    base.obs.span_events = false;
    base.obs.sample_period_s = 0.0;
    let untraced = Simulation::new(base.clone()).run_detailed();
    assert!(untraced.observability.spans.is_empty());
    assert_eq!(untraced.observability.spans_jsonl(), "");
    assert!(untraced.observability.metrics.is_none());

    let mut traced_cfg = base;
    traced_cfg.obs.span_events = true;
    traced_cfg.obs.sample_period_s = 1.0;
    let traced = Simulation::new(traced_cfg).run_detailed();
    assert!(!traced.observability.spans.is_empty());

    // Instrumentation must observe the run, never perturb it.
    assert_eq!(untraced.summary.created, traced.summary.created);
    assert_eq!(
        untraced.summary.committed_valid,
        traced.summary.committed_valid
    );
    assert_eq!(untraced.summary.blocks_cut, traced.summary.blocks_cut);
    assert_eq!(
        untraced.summary.overall_latency.mean_s,
        traced.summary.overall_latency.mean_s
    );
}

#[test]
fn span_events_round_trip_through_jsonl() {
    let r = Simulation::new(obs_config(PolicySpec::OrN(10), 80.0)).run_detailed();
    let spans = &r.observability.spans;
    assert!(!spans.is_empty());

    let text = r.observability.spans_jsonl();
    let parsed = parse_spans_jsonl(&text).expect("spans must be valid JSONL");
    assert_eq!(&parsed, spans, "parse(serialize(spans)) must be lossless");

    // Spans are returned in virtual-time (start) order.
    for w in spans.windows(2) {
        assert!(w[0].t0_s <= w[1].t0_s, "spans out of order: {w:?}");
    }

    // A committed transaction's spans cover the whole pipeline, in order.
    let committed: Vec<&str> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Commit)
        .map(|s| s.trace.as_str())
        .collect();
    assert!(!committed.is_empty());
    let tx = committed[committed.len() / 2];
    let start_of = |kind: SpanKind| {
        spans
            .iter()
            .filter(|s| s.trace == tx && s.kind == kind)
            .map(|s| s.t0_s)
            .fold(f64::NAN, f64::min)
    };
    let chain = [
        SpanKind::ClientPrep,
        SpanKind::Endorse,
        SpanKind::Assemble,
        SpanKind::OsnBroadcast,
        SpanKind::Vscc,
        SpanKind::Commit,
    ];
    let starts: Vec<f64> = chain.iter().map(|&k| start_of(k)).collect();
    assert!(
        starts.iter().all(|t| t.is_finite()),
        "tx {tx} missing spans: {chain:?} start at {starts:?}"
    );
    assert!(
        starts.windows(2).all(|w| w[0] <= w[1]),
        "tx {tx} spans out of pipeline order: {starts:?}"
    );
}

#[test]
fn bottleneck_report_names_peer_vscc_past_saturation() {
    // Paper Finding 3: validation is the bottleneck, and AND-x policies
    // saturate it sooner. At 250 tps an AND5 deployment is past the knee.
    let r = Simulation::new(obs_config(PolicySpec::AndX(5), 250.0)).run_detailed();
    let report = &r.observability.bottleneck;
    let dominant = report.dominant().expect("committed txs exist");
    assert_eq!(dominant.label(), "peer vscc");

    // Attribution accounting: queueing at the validator dominates its own
    // service time and every other station's queueing.
    let overall = &report.overall;
    let vi = dominant.idx();
    assert!(overall.mean_queued_s[vi] > overall.mean_service_s[vi]);
    for (i, q) in overall.mean_queued_s.iter().enumerate() {
        if i != vi {
            assert!(overall.mean_queued_s[vi] > *q);
        }
    }
    // The rendered table and JSON both name the dominant queue.
    assert!(report.render_table().contains("dominant queue: peer vscc"));
    assert!(report.to_json().contains("\"dominant\":\"peer vscc\""));
}

#[test]
fn metrics_recorder_samples_every_virtual_second() {
    let r = Simulation::new(obs_config(PolicySpec::OrN(10), 120.0)).run_detailed();
    let m = r
        .observability
        .metrics
        .as_ref()
        .expect("sampling on by default");
    assert!(m.ticks() >= 14, "15s run should yield ~15 one-second ticks");
    for name in [
        "queue.pool_prep",
        "queue.peer_vscc",
        "queue.peer_commit",
        "util.peer_vscc",
        "util.peer_commit",
        "inflight.txs",
        "blocks.cut_per_tick",
    ] {
        let series = m
            .get(name)
            .unwrap_or_else(|| panic!("missing series {name}"));
        assert_eq!(series.points().count(), m.ticks());
    }
    // Under steady load some work must actually be in flight.
    let inflight = m.get("inflight.txs").expect("inflight series");
    assert!(inflight.max() > 0.0);

    // CSV export: header + one row per tick, consistent column count.
    let csv = m.to_csv();
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), m.ticks() + 1);
    let cols = lines[0].split(',').count();
    for l in &lines[1..] {
        assert_eq!(l.split(',').count(), cols);
    }
}

#[test]
fn e2e_histogram_matches_exact_percentiles() {
    let r = Simulation::new(obs_config(PolicySpec::OrN(10), 100.0)).run_detailed();
    let h = &r.observability.e2e_hist;
    assert!(h.count() > 0);
    // The histogram sees every committed tx; the summary percentiles are
    // computed from the exact sample set. They must agree to within the
    // histogram's relative error bound.
    let exact_p95 = r.summary.overall_latency.p95_s;
    let approx_p95 = h.quantile(0.95);
    let bound = h.relative_error_bound();
    assert!(
        (approx_p95 - exact_p95).abs() <= exact_p95 * (bound - 1.0) * 2.0 + 1e-9,
        "histogram p95 {approx_p95} vs exact {exact_p95} (growth {bound})"
    );
}
