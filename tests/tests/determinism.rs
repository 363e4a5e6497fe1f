//! Reproducibility: the simulation is a pure function of its configuration.

use fabricsim::{OrdererType, PolicySpec, RunResult, SimConfig, Simulation};
use fabricsim_integration::quick_config;

#[test]
fn identical_seeds_give_bit_identical_traces() {
    for orderer in OrdererType::ALL {
        let cfg = quick_config(orderer, PolicySpec::OrN(5), 70.0);
        let a = Simulation::new(cfg.clone()).run_detailed();
        let b = Simulation::new(cfg).run_detailed();
        assert_eq!(a.traces.len(), b.traces.len(), "{orderer}");
        for (x, y) in a.traces.iter().zip(&b.traces) {
            assert_eq!(x.created, y.created, "{orderer}");
            assert_eq!(x.endorsed, y.endorsed, "{orderer}");
            assert_eq!(x.committed, y.committed, "{orderer}");
        }
        assert_eq!(a.block_cuts, b.block_cuts, "{orderer}");
        assert_eq!(a.observer_height, b.observer_height, "{orderer}");
        assert_eq!(a.final_state, b.final_state, "{orderer}");
    }
}

#[test]
fn identical_seeds_give_byte_identical_summary_json_across_pool_sizes() {
    // The staged validation pipeline fans VSCC work over a worker pool;
    // byte-comparing the full serialized report proves that no pool size
    // leaks scheduling nondeterminism into anything the run reports.
    for pool in [1usize, 4, 8] {
        let mut cfg = quick_config(OrdererType::Raft, PolicySpec::AndX(3), 80.0);
        cfg.cost.validator_pool_size = pool;
        let a = Simulation::new(cfg.clone()).run().to_json();
        let b = Simulation::new(cfg).run().to_json();
        assert_eq!(a, b, "pool={pool}: reports differ between identical runs");
        assert!(
            a.contains("\"committed_valid\":"),
            "pool={pool}: serialized report looks empty: {a}"
        );
    }
}

#[test]
fn observability_config_never_changes_the_report() {
    // The entire observability plane is write-only: span-graph recording at
    // any head-sampling rate, and the kernel self-profiler must
    // all leave the serialized SummaryReport byte-identical. This is the
    // contract that lets CI flip tracing on without invalidating baselines.
    let cfg = quick_config(OrdererType::Raft, PolicySpec::AndX(3), 90.0);
    let baseline = Simulation::new(cfg.clone()).run().to_json();
    assert!(
        baseline.contains("\"committed_valid\":"),
        "baseline report looks empty: {baseline}"
    );
    for sample in [0.0, 0.01, 0.5, 1.0] {
        let mut c = cfg.clone();
        c.obs.span_events = true;
        c.obs.trace_sample = sample;
        let json = Simulation::new(c).run().to_json();
        assert_eq!(
            baseline, json,
            "tracing at sample rate {sample} changed the report"
        );
    }
    let mut profiled = cfg.clone();
    profiled.obs.profile = true;
    let json = Simulation::new(profiled).run().to_json();
    assert_eq!(baseline, json, "the kernel profiler changed the report");
    // The online health plane rides the same sampler and must honor the same
    // write-only contract, whatever objective it burns against.
    for slo in [0.1, 2.0] {
        let mut c = cfg.clone();
        c.obs.health_events = true;
        c.obs.slo_p99_s = slo;
        let json = Simulation::new(c).run().to_json();
        assert_eq!(
            baseline, json,
            "the health plane (SLO {slo}s) changed the report"
        );
    }
}

/// Runs `cfg` twice with spans and the health plane on and asserts the two
/// runs are byte-identical on every surface: the serialized SummaryReport,
/// the observer's final state, the spans JSONL and the health JSONL. At
/// `cfg.channels > 1` every peer, OSN and client pool serves every channel,
/// so this is the shared-hardware multi-channel case.
fn assert_reruns_byte_identical(mut cfg: SimConfig, label: &str) {
    cfg.obs.span_events = true;
    cfg.obs.trace_sample = 1.0;
    cfg.obs.health_events = true;
    let a = Simulation::new(cfg.clone()).run_detailed();
    let b = Simulation::new(cfg.clone()).run_detailed();
    assert!(
        a.summary.committed_valid > 0,
        "{label}: baseline must commit"
    );
    if cfg.channels > 1 {
        // One observer holds a ledger per channel, and every channel commits.
        for c in 0..cfg.channels {
            let prefix = format!("ch{c}/");
            assert!(
                a.final_state.iter().any(|(k, _)| k.starts_with(&prefix)),
                "{label}: channel {c} committed nothing on the shared observer"
            );
        }
    }
    let health = |r: &RunResult| {
        r.observability
            .health
            .as_ref()
            .expect("health plane attached")
            .to_jsonl(None)
    };
    assert_eq!(
        a.summary.to_json(),
        b.summary.to_json(),
        "{label}: rerun changed the summary report"
    );
    assert_eq!(a.final_state, b.final_state, "{label}: final state");
    assert!(!a.observability.spans.is_empty(), "{label}: no spans");
    assert_eq!(
        a.observability.spans_jsonl(),
        b.observability.spans_jsonl(),
        "{label}: rerun changed the spans"
    );
    assert_eq!(
        health(&a),
        health(&b),
        "{label}: rerun changed the health timeline"
    );
}

#[test]
fn health_timeline_is_byte_identical_across_reruns() {
    // Raft: every channel runs its own consensus group on the shared OSNs.
    for channels in [1u32, 4] {
        let mut cfg = quick_config(OrdererType::Raft, PolicySpec::AndX(3), 120.0);
        cfg.channels = channels;
        assert_reruns_byte_identical(cfg, &format!("raft ch{channels}"));
    }
}

#[test]
fn overload_scenario_emits_deterministic_vscc_onset() {
    // The acceptance scenario: seed 42, one channel, AND5 over 5 peers,
    // validator pool 1, 500 offered tps. The VSCC stage saturates
    // immediately, so the health plane must walk peer.vscc through
    // stable→saturating→overloaded with a deterministic overload onset,
    // and every station's dwells must tile the horizon within 1e-6 s.
    let mut cfg = quick_config(OrdererType::Solo, PolicySpec::AndX(5), 500.0);
    cfg.endorsing_peers = 5;
    cfg.cost.validator_pool_size = 1;
    cfg.seed = 42;
    cfg.obs.health_events = true;
    let r = Simulation::new(cfg).run_detailed();
    let health = r.observability.health.as_ref().expect("health attached");
    let vscc: Vec<(&str, &str)> = health
        .events
        .iter()
        .filter(|e| e.station == "peer.vscc")
        .filter(|e| e.kind == fabricsim::obs::HealthEventKind::Regime)
        .map(|e| (e.from.as_str(), e.to.as_str()))
        .collect();
    assert_eq!(
        vscc,
        [("stable", "saturating"), ("saturating", "overloaded")],
        "step-limited regime walk on peer.vscc: {:?}",
        health.events
    );
    let onset = health
        .onset_of("peer.vscc", fabricsim::obs::Regime::Overloaded)
        .expect("overload onset recorded");
    assert!(
        onset > 0.0,
        "overload is one step after saturating: {onset}"
    );
    assert!(
        health.telescoping_error() <= 1e-6,
        "dwells must tile the horizon: error {}",
        health.telescoping_error()
    );
    assert!(
        health.slo_violations > 0 && health.burn_windows > 0,
        "an overloaded run must burn its SLO budget: {health:?}"
    );
}

#[test]
fn different_seeds_sample_different_arrivals() {
    let mut cfg = quick_config(OrdererType::Solo, PolicySpec::OrN(5), 70.0);
    let a = Simulation::new(cfg.clone()).run_detailed();
    cfg.seed = cfg.seed.wrapping_add(1);
    let b = Simulation::new(cfg).run_detailed();
    assert_ne!(
        a.traces.first().map(|t| t.created),
        b.traces.first().map(|t| t.created),
        "different seeds must shift the arrival process"
    );
}

#[test]
fn throughput_is_seed_stable() {
    // Statistical stability: across seeds, committed throughput at a fixed
    // sub-saturation rate stays within a tight band.
    let mut results = Vec::new();
    for seed in [1u64, 2, 3] {
        let mut cfg = quick_config(OrdererType::Solo, PolicySpec::OrN(5), 100.0);
        cfg.seed = seed;
        results.push(Simulation::new(cfg).run().committed_tps());
    }
    let min = results.iter().cloned().fold(f64::MAX, f64::min);
    let max = results.iter().cloned().fold(0.0, f64::max);
    assert!(
        max - min < 15.0,
        "seed-to-seed throughput variance too large: {results:?}"
    );
}

#[test]
fn shared_peer_reports_are_byte_identical_across_reruns() {
    for channels in [1u32, 4] {
        let mut cfg = quick_config(OrdererType::Solo, PolicySpec::OrN(5), 120.0);
        cfg.channels = channels;
        assert_reruns_byte_identical(cfg, &format!("solo ch{channels}"));
    }
}

#[test]
fn multi_channel_profiler_never_changes_the_report() {
    // The profiler's write-only contract on a four-channel world.
    let mut cfg = quick_config(OrdererType::Solo, PolicySpec::OrN(5), 100.0);
    cfg.channels = 4;
    let baseline = Simulation::new(cfg.clone()).run().to_json();
    cfg.obs.profile = true;
    let r = Simulation::new(cfg).run_detailed();
    assert_eq!(baseline, r.summary.to_json());
    let p = r.observability.profile.expect("profile attached");
    assert_eq!(p.attributed_ns(), p.loop_ns, "profile must reconcile");
}
