//! Chrome-trace and flamegraph export against a real span-traced run: the
//! JSON must parse and keep per-track timestamps monotone, and the collapsed
//! stacks must reconcile exactly with the span-graph analyzer's
//! critical-path decomposition.

use std::collections::HashMap;

use fabricsim::obs::{collapsed_stacks, span_flow_trace, Json, SpanGraphAnalysis};
use fabricsim::{OrdererType, PolicySpec, SimConfig, Simulation};

fn traced_run() -> fabricsim::RunResult {
    let mut cfg = SimConfig {
        orderer_type: OrdererType::Raft,
        policy: PolicySpec::OrN(5),
        arrival_rate_tps: 150.0,
        endorsing_peers: 5,
        duration_secs: 12.0,
        warmup_secs: 3.0,
        cooldown_secs: 2.0,
        ..SimConfig::default()
    };
    cfg.obs.span_events = true;
    Simulation::new(cfg).run_detailed()
}

#[test]
fn chrome_export_is_valid_trace_event_json_with_monotone_tracks() {
    let r = traced_run();
    let doc = span_flow_trace(&r.observability.spans);
    let json = Json::parse(&doc).expect("chrome export must be valid JSON");

    let events = json
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty(), "a real run produces slices");

    // Per (pid, tid) track: complete events appear in non-decreasing ts
    // order with non-negative ts and dur — the invariant Perfetto needs.
    let mut last_ts: HashMap<(u64, u64), f64> = HashMap::new();
    let mut slices = 0usize;
    let mut flows = 0usize;
    for ev in events {
        let phase = ev.get("ph").and_then(Json::as_str).expect("ph field");
        if phase == "s" {
            flows += 1;
        }
        if phase != "X" {
            continue;
        }
        slices += 1;
        let pid = ev.get("pid").and_then(Json::as_f64).expect("pid") as u64;
        let tid = ev.get("tid").and_then(Json::as_f64).expect("tid") as u64;
        let ts = ev.get("ts").and_then(Json::as_f64).expect("ts");
        let dur = ev.get("dur").and_then(Json::as_f64).expect("dur");
        assert!(ts >= 0.0, "negative ts {ts}");
        assert!(dur >= 0.0, "negative dur {dur}");
        let prev = last_ts.entry((pid, tid)).or_insert(f64::NEG_INFINITY);
        assert!(
            ts >= *prev,
            "track ({pid},{tid}) went backwards: {ts} after {prev}"
        );
        *prev = ts;
    }
    assert_eq!(slices, r.observability.spans.len(), "one slice per span");
    assert!(flows > 0, "parent edges become flow arrows");
    // Client pools, peers and OSNs each get their own actor track.
    assert!(last_ts.len() > 5 + 1, "expected per-actor tracks");
}

#[test]
fn collapsed_stacks_reconcile_with_the_analyzer_decomposition() {
    let r = traced_run();
    let analysis = SpanGraphAnalysis::from_spans(&r.observability.spans);
    assert!(analysis.txs > 0);
    let folded = collapsed_stacks(&analysis);

    // Parse `fabricsim;<group>;<segment label> <ns>` lines.
    let mut by_segment: HashMap<&str, f64> = HashMap::new();
    for line in folded.lines() {
        let (stack, ns) = line.rsplit_once(' ').expect("folded line");
        let frames: Vec<&str> = stack.split(';').collect();
        assert_eq!(frames.len(), 3, "{line}");
        assert_eq!(frames[0], "fabricsim", "{line}");
        assert!(
            ["execute", "order", "validate"].contains(&frames[1]),
            "{line}"
        );
        let ns: f64 = ns.parse().expect("integer ns value");
        by_segment.insert(frames[2], ns);
    }

    // Every segment's per-tx share must be recoverable from the stack total
    // (divide by txs and 1e9) to 1e-6 s.
    let n = analysis.txs as f64;
    assert_eq!(by_segment.len(), analysis.segment_share.len());
    for (label, secs) in &analysis.segment_share {
        let ns = by_segment
            .get(label.as_str())
            .unwrap_or_else(|| panic!("segment {label} missing from folded output:\n{folded}"));
        let mean_from_flame = ns / 1e9 / n;
        assert!(
            (mean_from_flame - secs / n).abs() < 1e-6,
            "{label}: flame {mean_from_flame} vs analyzer {}",
            secs / n
        );
    }
    // And the whole document tiles the mean critical path (= e2e latency).
    let total_s: f64 = by_segment.values().sum::<f64>() / 1e9 / n;
    assert!(
        (total_s - analysis.mean_path_s).abs() < 1e-6,
        "stack totals {total_s} vs mean path {}",
        analysis.mean_path_s
    );
}
