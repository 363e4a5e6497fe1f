//! One bench per table/figure: smoke-scale versions of the experiment
//! harness, so `cargo bench` exercises every reproduction path. (The
//! paper-scale regeneration lives in the `experiments` binary — these benches
//! shrink the virtual duration to keep `cargo bench` tractable.)
//!
//! Runs on the in-repo [`fabricsim_bench::microbench`] harness:
//! `cargo bench --bench figures [-- FILTER]`.

use std::time::Duration;

use fabricsim::{OrdererType, PolicySpec, SimConfig, Simulation, WorkloadKind};
use fabricsim_bench::microbench::Runner;

fn smoke_cfg(orderer: OrdererType, policy: PolicySpec, rate: f64) -> SimConfig {
    SimConfig {
        orderer_type: orderer,
        policy,
        arrival_rate_tps: rate,
        endorsing_peers: 10,
        duration_secs: 6.0,
        warmup_secs: 2.0,
        cooldown_secs: 1.0,
        ..SimConfig::default()
    }
}

fn run(cfg: SimConfig) -> f64 {
    Simulation::new(cfg).run().committed_tps()
}

fn main() {
    // A full smoke sim costs tens of milliseconds; keep a tight batch budget.
    let mut r = Runner::from_args().with_budget(Duration::from_millis(800));

    for orderer in OrdererType::ALL {
        r.bench(
            &format!("fig2_overall_throughput/{orderer}_or10_sat"),
            || run(smoke_cfg(orderer, PolicySpec::OrN(10), 400.0)),
        );
    }

    r.bench("fig3_overall_latency/solo_or10_below_knee", || {
        let rep = Simulation::new(smoke_cfg(OrdererType::Solo, PolicySpec::OrN(10), 150.0)).run();
        rep.overall_latency.mean_s
    });

    r.bench("fig4_fig5_phase_throughput/or10_phases", || {
        let rep = Simulation::new(smoke_cfg(OrdererType::Solo, PolicySpec::OrN(10), 300.0)).run();
        (
            rep.execute.throughput_tps,
            rep.order.throughput_tps,
            rep.validate.throughput_tps,
        )
    });
    r.bench("fig4_fig5_phase_throughput/and5_phases", || {
        let rep = Simulation::new(smoke_cfg(OrdererType::Solo, PolicySpec::AndX(5), 300.0)).run();
        (
            rep.execute.throughput_tps,
            rep.order.throughput_tps,
            rep.validate.throughput_tps,
        )
    });

    for (label, policy) in [("or10", PolicySpec::OrN(10)), ("and5", PolicySpec::AndX(5))] {
        r.bench(&format!("fig6_fig7_phase_latency/{label}"), || {
            let rep = Simulation::new(smoke_cfg(OrdererType::Solo, policy.clone(), 150.0)).run();
            (rep.execute.latency.mean_s, rep.validate.latency.mean_s)
        });
    }

    for n in [1u32, 5] {
        r.bench(&format!("table2_table3_peer_scaling/or10_n{n}"), || {
            let mut cfg = smoke_cfg(OrdererType::Solo, PolicySpec::OrN(10), 60.0 * n as f64);
            cfg.endorsing_peers = n;
            run(cfg)
        });
    }

    for (orderer, osns) in [(OrdererType::Kafka, 4u32), (OrdererType::Raft, 12)] {
        r.bench(&format!("fig8_osn_scaling/{orderer}_{osns}osns"), || {
            let mut cfg = smoke_cfg(orderer, PolicySpec::OrN(10), 300.0);
            cfg.osn_count = osns;
            run(cfg)
        });
    }

    r.bench("ablation_mvcc_conflicts/hot_keyspace_8", || {
        let mut cfg = smoke_cfg(OrdererType::Solo, PolicySpec::OrN(10), 120.0);
        cfg.workload = WorkloadKind::KvRmw {
            keyspace: 8,
            payload_bytes: 1,
        };
        let rep = Simulation::new(cfg).run();
        (rep.committed_valid, rep.committed_invalid)
    });

    // Observability overhead gate: the same smoke run with span tracing off
    // (default) vs. on. The "off" number must match the pre-obs baseline
    // within noise; the "on" number quantifies the cost of full span capture.
    r.bench("obs_overhead/smoke_tracing_off", || {
        run(smoke_cfg(OrdererType::Solo, PolicySpec::OrN(10), 200.0))
    });
    r.bench("obs_overhead/smoke_tracing_on", || {
        let mut cfg = smoke_cfg(OrdererType::Solo, PolicySpec::OrN(10), 200.0);
        cfg.obs.span_events = true;
        Simulation::new(cfg).run_detailed().summary.committed_tps()
    });
}
