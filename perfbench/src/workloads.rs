//! The benchmark's workloads. Each is an open Poisson loop in virtual time on
//! the serial engine, chosen so that different layers carry the host cost.

use fabricsim::{OrdererType, PolicySpec, SimConfig, WorkloadKind};

/// Workload names, in report order.
pub const NAMES: [&str; 3] = ["and5-validate", "kafka-smallbank", "raft-4k-payload"];

/// The simulation configuration of workload `name` at `seed`, or `None` for
/// an unknown name.
///
/// Run lengths are chosen so that every workload commits more than 4 000
/// valid transactions inside the measurement window, which leaves more than
/// ten samples beyond the reported p99 latency.
pub fn config(name: &str, seed: u64) -> Option<SimConfig> {
    let mut cfg = SimConfig {
        seed,
        sim_workers: 0,
        ..SimConfig::default()
    };
    match name {
        // AND5 endorsement below the knee: six Schnorr verifications per
        // transaction on each of eleven peers. Validation is the host hot
        // spot, so a verification memo or a faster modexp shows here.
        "and5-validate" => {
            cfg.orderer_type = OrdererType::Solo;
            cfg.endorsing_peers = 10;
            cfg.committing_peers = 1;
            cfg.policy = PolicySpec::AndX(5);
            cfg.cost.validator_pool_size = 2;
            cfg.workload = WorkloadKind::KvPut { payload_bytes: 1 };
            cfg.arrival_rate_tps = 300.0;
            cfg.duration_secs = 25.0;
            cfg.warmup_secs = 5.0;
            cfg.cooldown_secs = 3.0;
        }
        // Kafka ordering with few peers: light crypto, many kernel events
        // (brokers, ZooKeeper, OSN consumers), and a ledger that sees reads
        // and MVCC conflicts. Event-loop and ordering changes show here.
        "kafka-smallbank" => {
            cfg.orderer_type = OrdererType::Kafka;
            cfg.osn_count = 3;
            cfg.broker_count = 5;
            cfg.zk_count = 3;
            cfg.endorsing_peers = 2;
            cfg.committing_peers = 1;
            cfg.policy = PolicySpec::OrN(2);
            cfg.workload = WorkloadKind::Smallbank { customers: 100 };
            cfg.arrival_rate_tps = 90.0;
            cfg.duration_secs = 95.0;
            cfg.warmup_secs = 8.0;
            cfg.cooldown_secs = 4.0;
        }
        // Raft ordering with 4 KiB values: hashing and copying block bytes
        // dominate, not modexp, and the ledgers hold most of the memory.
        "raft-4k-payload" => {
            cfg.orderer_type = OrdererType::Raft;
            cfg.osn_count = 3;
            cfg.endorsing_peers = 10;
            cfg.committing_peers = 1;
            cfg.policy = PolicySpec::OrN(10);
            cfg.workload = WorkloadKind::KvPut {
                payload_bytes: 4096,
            };
            cfg.arrival_rate_tps = 100.0;
            cfg.duration_secs = 50.0;
            cfg.warmup_secs = 5.0;
            cfg.cooldown_secs = 3.0;
        }
        _ => return None,
    }
    Some(cfg)
}

/// The same deployment with the arrival horizon cut to a nanosecond: the
/// world is built and bootstrapped, but no transaction arrives.
pub fn setup_config(cfg: &SimConfig) -> SimConfig {
    SimConfig {
        duration_secs: 1e-9,
        warmup_secs: 0.0,
        cooldown_secs: 0.0,
        ..cfg.clone()
    }
}

/// Host threads the run keeps busy at once: the VSCC worker pool fans each
/// block out over this many threads.
pub fn host_threads(cfg: &SimConfig) -> usize {
    cfg.cost.validator_pool_size.max(1)
}
