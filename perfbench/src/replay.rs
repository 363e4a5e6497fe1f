//! The layer replay: workload-shaped inputs pushed through the simulator's
//! layers by direct calls, with a span around each call.
//!
//! The replay builds the workload's CA, identities, peers, chaincode, client
//! SDKs, block cutter and block assembler with their public constructors,
//! then runs endorse → assemble → cut → assemble block → validate on every
//! peer. One replica (standing in for the observer peer) is validated in the
//! three stages `Peer::validate_and_commit` composes, so their costs show
//! separately; every other peer is validated through the whole call. There
//! is no virtual time, queueing or network here: only per-call host cost.

use std::collections::HashMap;

use fabricsim::{SimConfig, WorkloadKind};
use fabricsim_chaincode::samples::{KvWrite, Smallbank};
use fabricsim_chaincode::{Chaincode, ChaincodeStub};
use fabricsim_client::{ClientSdk, TargetSelector};
use fabricsim_crypto::{sha256, KeyPair, PublicKey};
use fabricsim_des::RngStream;
use fabricsim_ledger::Ledger;
use fabricsim_msp::{Certificate, CertificateAuthority, Msp};
use fabricsim_ordering::{BlockAssembler, BlockCutter};
use fabricsim_peer::{Peer, PeerConfig, ValidationPipeline};
use fabricsim_policy::Policy;
use fabricsim_types::codec::encode_block;
use fabricsim_types::{ChannelId, ClientId, OrgId, Principal, ProposalResponse, Transaction};

use crate::record::Metric;
use crate::stats::{median, percentile};
use crate::trace::Tracer;

/// What one replay measured and verified.
#[derive(Debug)]
pub struct Replay {
    /// Every span recorded.
    pub tracer: Tracer,
    /// Blocks validated on every replica.
    pub blocks: usize,
    /// Transactions carried by those blocks.
    pub block_txs: usize,
    /// Transactions the replica flagged valid.
    pub valid: usize,
    /// Replicas validating each block (the staged replica included).
    pub peers: usize,
    /// Encoded size of each block, bytes.
    pub block_bytes: Vec<f64>,
    /// Every replica's chain verified end to end.
    pub ledgers_ok: bool,
    /// Every replica ends at the same height, tip and world state.
    pub replicas_agree: bool,
    /// Calls that failed or disagreed with the staged replica.
    pub errors: Vec<String>,
}

/// Argument generator shaped like the simulator's client pools.
struct Args {
    workload: WorkloadKind,
    rng: RngStream,
}

impl Args {
    fn next(&mut self, pool: usize, seq: usize) -> (&'static str, Vec<Vec<u8>>) {
        match self.workload {
            WorkloadKind::Smallbank { customers } => {
                let a = self.rng.next_below(u64::from(customers));
                let b =
                    (a + 1 + self.rng.next_below(u64::from(customers) - 1)) % u64::from(customers);
                let (a, b) = (a.to_string().into_bytes(), b.to_string().into_bytes());
                // Blockbench mix: 25 % send_payment, 15 % each of the rest.
                let args = match self.rng.next_below(100) {
                    0..=24 => vec![b"send_payment".to_vec(), a, b, b"5".to_vec()],
                    25..=39 => vec![b"transact_savings".to_vec(), a, b"20".to_vec()],
                    40..=54 => vec![b"deposit_checking".to_vec(), a, b"20".to_vec()],
                    55..=69 => vec![b"write_check".to_vec(), a, b"10".to_vec()],
                    70..=84 => vec![b"amalgamate".to_vec(), a],
                    _ => vec![b"query".to_vec(), a],
                };
                ("smallbank", args)
            }
            WorkloadKind::KvPut { payload_bytes } => (
                "kvwrite",
                vec![
                    b"put".to_vec(),
                    format!("k{pool}_{seq}").into_bytes(),
                    vec![b'x'; payload_bytes],
                ],
            ),
            _ => unreachable!("checked by `chaincode_for`"),
        }
    }
}

/// The chaincode the simulator installs for `workload`, for the workloads
/// the replay supports.
fn chaincode_for(workload: &WorkloadKind) -> Result<Box<dyn Chaincode>, String> {
    match workload {
        WorkloadKind::KvPut { .. } => Ok(Box::new(KvWrite)),
        WorkloadKind::Smallbank { customers } => Ok(Box::new(Smallbank {
            customers: *customers,
            initial_balance: 10_000,
        })),
        other => Err(format!("the replay does not model {other:?}")),
    }
}

/// The replica validated stage by stage: the same parts a `Peer` holds.
struct StagedReplica {
    config: PeerConfig,
    msp: Msp,
    client_certs: HashMap<ClientId, Certificate>,
    endorser_keys: HashMap<Principal, Vec<PublicKey>>,
    ledger: Ledger,
}

/// Runs the replay of `cfg`'s workload over `txs` transactions.
///
/// # Errors
/// A workload kind the replay does not model, or a chaincode whose genesis
/// `init` fails.
pub fn run(cfg: &SimConfig, txs: usize) -> Result<Replay, String> {
    let cc = chaincode_for(&cfg.workload)?;
    let channel = ChannelId::default_channel();
    let policy: Policy = cfg.policy.resolve(cfg.endorsing_peers);
    let pool_size = cfg.cost.validator_pool_size.max(1);
    let ca = CertificateAuthority::new("fabric-ca", cfg.seed);
    let n_endorsers = cfg.endorsing_peers as usize;
    let n_peers = n_endorsers + cfg.committing_peers as usize;

    // Peers in the simulator's order: endorsers (Org i+1), then committers.
    // The first committer, the simulator's observer, is the staged replica.
    let mut peers = Vec::with_capacity(n_peers - 1);
    let mut endorser_ids = Vec::new();
    for i in 0..n_peers {
        let is_endorser = i < n_endorsers;
        let org = if is_endorser { i + 1 } else { 100 + i } as u32;
        let identity = ca.enroll(Principal::peer(OrgId(org)), &format!("peer{i}"));
        if is_endorser {
            endorser_ids.push(identity.clone());
        }
        if i == n_endorsers {
            continue;
        }
        let mut peer = Peer::new(
            identity,
            Msp::new(ca.root_of_trust()),
            PeerConfig {
                channel: channel.clone(),
                endorsement_policy: policy.clone(),
                is_endorser,
                validator_pool_size: pool_size,
            },
        );
        peer.install_chaincode(chaincode_for(&cfg.workload)?);
        peers.push(peer);
    }
    let clients: Vec<_> = (0..n_endorsers)
        .map(|p| {
            let principal = Principal {
                org: OrgId(p as u32 + 1),
                role: "client".into(),
            };
            (
                ClientId(p as u32),
                ca.enroll(principal, &format!("client{p}")),
            )
        })
        .collect();

    let mut replica = StagedReplica {
        config: PeerConfig {
            channel: channel.clone(),
            endorsement_policy: policy.clone(),
            is_endorser: false,
            validator_pool_size: pool_size,
        },
        msp: Msp::new(ca.root_of_trust()),
        client_certs: HashMap::new(),
        endorser_keys: HashMap::new(),
        ledger: Ledger::new(channel.0.clone()),
    };
    let genesis = {
        let mut stub = ChaincodeStub::new(replica.ledger.state());
        cc.init(&mut stub)
            .map_err(|e| format!("chaincode init: {e:?}"))?;
        stub.into_rw_set().writes
    };
    for w in genesis {
        replica
            .ledger
            .state_mut_for_bootstrap()
            .seed(&w.key, w.value.unwrap_or_default());
    }
    for e in &endorser_ids {
        let key = e.certificate().public_key;
        replica
            .endorser_keys
            .entry(e.principal().clone())
            .or_default()
            .push(key);
        for peer in &mut peers {
            peer.register_endorser(e.principal().clone(), key);
        }
    }
    for (id, identity) in &clients {
        replica
            .client_certs
            .insert(*id, identity.certificate().clone());
        for peer in &mut peers {
            peer.register_client(*id, identity.certificate().clone());
        }
    }
    let mut pools: Vec<(ClientSdk, TargetSelector)> = clients
        .into_iter()
        .map(|(id, identity)| (ClientSdk::new(id, identity), TargetSelector::new(&policy)))
        .collect();

    let mut r = Replay {
        tracer: Tracer::default(),
        blocks: 0,
        block_txs: 0,
        valid: 0,
        peers: n_peers,
        block_bytes: Vec::new(),
        ledgers_ok: false,
        replicas_agree: false,
        errors: Vec::new(),
    };
    let mut args = Args {
        workload: cfg.workload.clone(),
        rng: RngStream::derive(cfg.seed, "perfbench.replay"),
    };
    let signer = KeyPair::from_seed(b"perfbench.sign");
    let mut cutter = BlockCutter::new(cfg.batch);
    let mut assembler = BlockAssembler::new(channel.clone());
    // Transactions one batch timeout admits at the offered rate: the batch
    // timer fires after this many, as it would in virtual time.
    let per_timeout = ((cfg.arrival_rate_tps * cfg.batch.batch_timeout_ms as f64 / 1000.0).ceil()
        as usize)
        .max(1);
    let mut armed: Option<(u64, usize)> = None;

    for seq in 0..txs {
        let p = seq % pools.len();
        let tid = format!("tx{seq}");
        let call = args.next(p, seq);
        let Some(tx) = endorse(
            &mut r,
            &mut pools[p],
            &mut peers,
            cc.as_ref(),
            &channel,
            call,
            &tid,
        ) else {
            continue;
        };
        check_tx(&mut r, &replica, &policy, &signer, &tx, &tid);

        let outcome = r
            .tracer
            .span("ordering.cut", None, &tid, || cutter.ordered(tx));
        if !outcome.batches.is_empty() {
            armed = None;
        }
        if let Some(timer) = outcome.arm_timer {
            armed = Some((timer, 0));
        }
        let mut batches = outcome.batches;
        if let Some((timer, seen)) = armed.as_mut() {
            *seen += 1;
            if *seen >= per_timeout {
                let timer = *timer;
                armed = None;
                batches.extend(
                    r.tracer
                        .span("ordering.cut", None, &tid, || cutter.timeout(timer)),
                );
            }
        }
        for batch in batches {
            validate(&mut r, &mut assembler, &mut replica, &mut peers, batch);
        }
    }
    if let Some(batch) = r
        .tracer
        .span("ordering.cut", None, "flush", || cutter.cut())
    {
        validate(&mut r, &mut assembler, &mut replica, &mut peers, batch);
    }

    let ledgers = || std::iter::once(&replica.ledger).chain(peers.iter().map(Peer::ledger));
    r.ledgers_ok = ledgers().all(|l| l.blocks().verify_chain().is_ok());
    r.replicas_agree = ledgers().all(|l| {
        l.height() == replica.ledger.height()
            && l.blocks().tip_hash() == replica.ledger.blocks().tip_hash()
            && l.state()
                .range("", "")
                .eq(replica.ledger.state().range("", ""))
    });
    Ok(r)
}

/// Proposal, endorsement on the policy's targets, chaincode execution and
/// envelope assembly for one transaction.
fn endorse(
    r: &mut Replay,
    (sdk, selector): &mut (ClientSdk, TargetSelector),
    peers: &mut [Peer],
    cc: &dyn Chaincode,
    channel: &ChannelId,
    (name, call): (&str, Vec<Vec<u8>>),
    tid: &str,
) -> Option<Transaction> {
    let root = r.tracer.open("tx", None, tid);
    let proposal = r.tracer.span("client.proposal", Some(root), tid, || {
        sdk.create_proposal(channel.clone(), name, call.clone())
    });
    let targets: Vec<usize> = selector
        .next_targets()
        .iter()
        .map(|pr| pr.org.0 as usize)
        .filter(|&org| org >= 1 && org <= peers.len())
        .map(|org| org - 1)
        .collect();
    let mut responses = Vec::with_capacity(targets.len());
    for &t in &targets {
        let peer = &mut peers[t];
        responses.push(
            r.tracer
                .span("peer.endorse", Some(root), tid, || peer.endorse(&proposal)),
        );
    }
    if let Some(&t) = targets.first() {
        let state = peers[t].ledger().state();
        let invoked = r.tracer.span("chaincode.invoke", Some(root), tid, || {
            cc.invoke(&mut ChaincodeStub::new(state), &call)
        });
        if let Err(e) = invoked {
            r.errors
                .push(format!("{tid}: chaincode invoke failed: {e:?}"));
        }
    }
    let tx = r.tracer.span("client.assemble", Some(root), tid, || {
        sdk.assemble(&proposal, &responses)
    });
    r.tracer.close(root);
    tx.map_err(|e| r.errors.push(format!("{tid}: assemble failed: {e:?}")))
        .ok()
}

/// The per-transaction crypto, MSP and policy calls VSCC is made of, timed
/// one by one. Each must accept the honest transaction.
fn check_tx(
    r: &mut Replay,
    replica: &StagedReplica,
    policy: &Policy,
    signer: &KeyPair,
    tx: &Transaction,
    tid: &str,
) {
    let response = ProposalResponse::signed_bytes(tx.tx_id, &tx.rw_set, &tx.payload);
    let mut ok = true;
    for e in &tx.endorsements {
        ok &= r.tracer.span("crypto.verify", None, tid, || {
            e.endorser_key.verify(&response, &e.signature)
        });
    }
    let signed = tx.signed_bytes();
    if let Some(cert) = replica.client_certs.get(&tx.creator) {
        ok &= r.tracer.span("msp.verify", None, tid, || {
            replica.msp.verify(cert, &signed, &tx.signature).is_ok()
        });
    } else {
        ok = false;
    }
    r.tracer
        .span("crypto.sign", None, tid, || signer.sign(&signed));
    ok &= r.tracer.span("policy.eval", None, tid, || {
        policy.is_satisfied_by(tx.endorsements.iter().map(|e| &e.endorser))
    });
    if !ok {
        r.errors
            .push(format!("{tid}: an honest signature or policy check failed"));
    }
}

/// Assembles one cut batch into a block and validates it on every replica.
fn validate(
    r: &mut Replay,
    assembler: &mut BlockAssembler,
    replica: &mut StagedReplica,
    peers: &mut [Peer],
    batch: Vec<Transaction>,
) {
    let bid = format!("block{}", assembler.next_number());
    let block = r.tracer.span("ordering.assemble", None, &bid, || {
        assembler.assemble(batch)
    });
    let bytes = r
        .tracer
        .span("types.encode_block", None, &bid, || encode_block(&block));
    r.tracer
        .span("crypto.sha256", None, &bid, || sha256(&bytes));
    r.block_bytes.push(bytes.len() as f64);

    let pipeline = ValidationPipeline::new(replica.config.validator_pool_size);
    let copy = block.clone();
    let root = r.tracer.open("peer.validate_commit.staged", None, &bid);
    let pre = r.tracer.span("peer.vscc", Some(root), &bid, || {
        pipeline.pre_commit_flags(
            &block,
            &replica.config,
            &replica.msp,
            &replica.client_certs,
            &replica.endorser_keys,
        )
    });
    let ledger = &mut replica.ledger;
    let flags = r.tracer.span("ledger.mvcc", Some(root), &bid, || {
        ledger.mvcc_flags(&block, &pre)
    });
    let flags = flags.inspect(|flags| {
        let kept = flags.clone();
        r.tracer.span("ledger.commit", Some(root), &bid, || {
            ledger.commit(copy, kept)
        });
    });
    r.tracer.close(root);
    let flags = match flags {
        Ok(flags) => flags,
        Err(e) => {
            r.errors.push(format!("{bid}: does not chain: {e:?}"));
            return;
        }
    };
    let valid = flags.iter().filter(|f| f.is_valid()).count();
    r.blocks += 1;
    r.block_txs += flags.len();
    r.valid += valid;

    for (i, peer) in peers.iter_mut().enumerate() {
        let copy = block.clone();
        let stats = r.tracer.span("peer.validate_commit", None, &bid, || {
            peer.validate_and_commit(copy)
        });
        match stats {
            Ok(s) if s.valid == valid => {}
            Ok(s) => r.errors.push(format!(
                "{bid}: peer {i} found {} valid, the staged replica {valid}",
                s.valid
            )),
            Err(e) => r.errors.push(format!("{bid}: peer {i}: {e:?}")),
        }
    }
}

impl Replay {
    fn us(&self, name: &str, q: f64) -> f64 {
        percentile(&self.tracer.durations(name), q).unwrap_or(f64::NAN) / 1e3
    }

    fn total_ns(&self, name: &str) -> f64 {
        self.tracer.durations(name).iter().sum()
    }

    /// Host nanoseconds of validation per transaction per replica: the
    /// staged replica plus every whole `validate_and_commit` call.
    pub fn validate_ns_per_tx_peer(&self) -> f64 {
        let ns =
            self.total_ns("peer.validate_commit.staged") + self.total_ns("peer.validate_commit");
        ns / (self.block_txs * self.peers) as f64
    }

    /// The per-layer metrics the replay measures.
    pub fn metrics(&self) -> Vec<Metric> {
        let m = Metric::new;
        let blocks = self.blocks as f64;
        let block_txs = self.block_txs as f64;
        let bytes: f64 = self.block_bytes.iter().sum();
        vec![
            m("crypto.verify_us_p50", self.us("crypto.verify", 0.5), "us"),
            m("crypto.verify_us_p99", self.us("crypto.verify", 0.99), "us"),
            m("crypto.sign_us_p50", self.us("crypto.sign", 0.5), "us"),
            m(
                "crypto.sha256_ns_per_byte",
                self.total_ns("crypto.sha256") / bytes,
                "ns/B",
            ),
            m("msp.verify_us_p50", self.us("msp.verify", 0.5), "us"),
            m("peer.endorse_us_p50", self.us("peer.endorse", 0.5), "us"),
            m("peer.endorse_us_p99", self.us("peer.endorse", 0.99), "us"),
            m(
                "peer.vscc_us_per_tx",
                self.total_ns("peer.vscc") / block_txs / 1e3,
                "us",
            ),
            m(
                "peer.validate_commit_ms_p50",
                self.us("peer.validate_commit", 0.5) / 1e3,
                "ms",
            ),
            m(
                "peer.validate_commit_ms_p99",
                self.us("peer.validate_commit", 0.99) / 1e3,
                "ms",
            ),
            m(
                "ledger.mvcc_us_per_block",
                self.total_ns("ledger.mvcc") / blocks / 1e3,
                "us",
            ),
            m(
                "ledger.commit_us_per_block",
                self.total_ns("ledger.commit") / blocks / 1e3,
                "us",
            ),
            m("ledger.valid_share", self.valid as f64 / block_txs, "ratio"),
            m(
                "chaincode.invoke_us_p50",
                self.us("chaincode.invoke", 0.5),
                "us",
            ),
            m(
                "ordering.cut_us_per_tx",
                self.total_ns("ordering.cut") / block_txs / 1e3,
                "us",
            ),
            m(
                "ordering.assemble_us_per_block",
                self.total_ns("ordering.assemble") / blocks / 1e3,
                "us",
            ),
            m(
                "client.proposal_us_p50",
                self.us("client.proposal", 0.5),
                "us",
            ),
            m(
                "client.assemble_us_p50",
                self.us("client.assemble", 0.5),
                "us",
            ),
            m(
                "policy.eval_ns_p50",
                self.us("policy.eval", 0.5) * 1e3,
                "ns",
            ),
            m(
                "types.encode_block_us",
                self.us("types.encode_block", 0.5),
                "us",
            ),
            m(
                "types.block_bytes",
                median(&self.block_bytes).unwrap_or(f64::NAN),
                "B",
            ),
        ]
    }
}
