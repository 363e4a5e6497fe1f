//! `fabricsim-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! With `--trace 0` it measures the end-to-end metrics of one workload with
//! tracing off; with `--trace 1` it runs the workload once more with the
//! kernel self-profile and live counters on, replays the workload through
//! the layers, and reports the per-layer metrics. Either way the last line
//! of standard output is one JSON object, and the exit code is nonzero when
//! a correctness check fails. See `README.md`.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::PathBuf;
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::Instant;

use fabricsim::obs::Json;
use fabricsim::{LiveMetrics, RunResult, SimConfig, Simulation, TxOutcome};
use fabricsim_crypto::Sha256;
use fabricsim_perfbench::cpu::{at_reference_speed, cpu_seconds, reference_seconds};
use fabricsim_perfbench::record::{Check, Metric, RunRecord};
use fabricsim_perfbench::stats::{highest_supported_quantile, median, quartiles, spread};
use fabricsim_perfbench::{replay, workloads};

/// Timed runs per invocation: at least this many, so that the median is not
/// the first run's cold start, and more while `--seconds` lasts.
const MIN_TIMED_RUNS: usize = 3;
/// Set-up repetitions after each timed run last this share of the run's
/// CPU time, and at least `SETUP_MIN_SLICE_S`.
const SETUP_SHARE: f64 = 0.1;
const SETUP_MIN_SLICE_S: f64 = 0.25;
/// Transactions the layer replay pushes through the layers.
const REPLAY_TXS: usize = 1200;
/// The replay's validate cost, scaled to the run's VSCC checks, must land
/// within this factor of the profile's `validate.commit` time.
const RECONCILE_FACTOR: f64 = 3.0;

/// Kernel handler labels the workloads dispatch; any other label is
/// reported as `handler.other`.
const HANDLER_LABELS: [&str; 22] = [
    "validate.commit",
    "peer.endorse",
    "client.assemble",
    "pool.arrival",
    "pool.recv",
    "pool.send",
    "osn.receive",
    "osn.deliver",
    "osn.ack",
    "osn.relay",
    "osn.tick",
    "osn.consume",
    "osn.timer",
    "osn.metadata",
    "broker.step",
    "broker.send",
    "broker.produce",
    "broker.tick",
    "broker.heartbeat",
    "broker.appoint",
    "zk.tick",
    "obs.sample",
];

const USAGE: &str = "usage: fabricsim-perfbench --workload NAME --seed N --seconds S --trace 0|1";

struct Options {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// `Some("timed")` or `Some("setup")` in a child process.
    child: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        child: None,
    };
    let mut seen = [false; 4];
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if let Some(role) = flag
            .strip_prefix("--")
            .and_then(|f| f.strip_suffix("-child"))
        {
            opts.child = Some(role.to_string());
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                opts.workload = value.clone();
                seen[0] = true;
            }
            "--seed" => {
                opts.seed = value.parse().map_err(|_| bad("expected an integer"))?;
                seen[1] = true;
            }
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad("expected seconds"))?;
                if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
                    return Err(bad("expected a positive number"));
                }
                seen[2] = true;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                };
                seen[3] = true;
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let trace_needed = opts.child.is_none();
    let seconds_needed = opts.child.as_deref() != Some("timed");
    if !(seen[0] && seen[1]) || (seconds_needed && !seen[2]) || (trace_needed && !seen[3]) {
        return Err("--workload, --seed, --seconds and --trace are required".into());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(cfg) = workloads::config(&opts.workload, opts.seed) else {
        eprintln!(
            "unknown workload {:?}; known: {}\n{USAGE}",
            opts.workload,
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    match opts.child.as_deref() {
        Some("timed") => return timed_child(&cfg),
        Some("setup") => return setup_child(&cfg, opts.seconds),
        Some(other) => {
            eprintln!("unknown child role {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
        None => {}
    }

    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut record = RunRecord {
        workload: opts.workload.clone(),
        seed: opts.seed,
        trace: opts.trace,
        available_parallelism: available,
        host_threads: workloads::host_threads(&cfg),
        config_digest: cfg.digest(),
        skipped: None,
        attempted: 0,
        failed: 0,
        reference_s: reference_seconds(),
        checks: Vec::new(),
        metrics: Vec::new(),
    };
    println!(
        "# workload={} seed={} trace={} config_digest={} available_parallelism={} host_threads={}",
        record.workload,
        record.seed,
        u8::from(record.trace),
        record.config_digest,
        record.available_parallelism,
        record.host_threads
    );
    if record.host_threads > available {
        let reason = format!(
            "needs {} host threads (validator pool) but only {available} cores are available",
            record.host_threads
        );
        eprintln!("skipped {}: {reason}", record.workload);
        record.skipped = Some(reason);
        write_record(&record);
        return ExitCode::from(3);
    }

    let outcome = if opts.trace {
        traced(&cfg, &mut record)
    } else {
        untraced(&opts, &mut record)
    };
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        check(&mut record, "benchmark ran", false, e);
    }
    for c in &record.checks {
        println!(
            "# check {:<28} {}  {}",
            c.name,
            if c.ok { "ok  " } else { "FAIL" },
            c.detail
        );
    }
    for m in &record.metrics {
        println!("{:<36} {:>18} {}", m.name, m.value, m.unit);
    }
    write_record(&record);
    let ok = record.correct();
    println!("{}", record.summary_line());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn check(record: &mut RunRecord, name: &str, ok: bool, detail: String) {
    record.checks.push(Check {
        name: name.to_string(),
        ok,
        detail,
    });
}

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// Writes the result file; a benchmark that cannot record its result fails.
fn write_record(record: &RunRecord) {
    let path = results_dir().join(format!(
        "{}-seed{}-trace{}.json",
        record.workload,
        record.seed,
        u8::from(record.trace)
    ));
    let written = std::fs::create_dir_all(results_dir())
        .and_then(|()| std::fs::write(&path, record.to_json() + "\n"));
    if let Err(e) = written {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
}

/// SHA-256 over the final world state, length-prefixed so that no two
/// states share an encoding.
fn state_digest(state: &[(String, Vec<u8>)]) -> String {
    let mut h = Sha256::new();
    for (k, v) in state {
        h.update(&(k.len() as u64).to_le_bytes());
        h.update(k.as_bytes());
        h.update(&(v.len() as u64).to_le_bytes());
        h.update(v);
    }
    h.finalize().to_hex()
}

/// Transactions that reached a final outcome (not in flight at the end).
fn finished_txs(run: &RunResult) -> usize {
    run.traces
        .iter()
        .filter(|t| !matches!(t.outcome, TxOutcome::InFlight))
        .count()
}

/// Peak resident set of this process, from the kernel's high-water mark.
fn peak_rss_kb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The timed runs, in a process of their own so that its peak resident set
/// belongs to them alone. Runs the workload once per `run` line on standard
/// input and answers with one JSON line; at end of input it prints the first
/// run's summary and the peak resident set.
fn timed_child(cfg: &SimConfig) -> ExitCode {
    let mut first: Option<(String, String)> = None;
    let mut stdout = std::io::stdout().lock();
    for line in std::io::stdin().lines() {
        if line.map_or(true, |l| l != "run") {
            eprintln!("timed runs: unexpected input");
            return ExitCode::FAILURE;
        }
        let input = cfg.clone();
        let before = reference_seconds();
        let (run, cpu_s) = cpu_seconds(|| Simulation::new(input).run_detailed());
        let reference_s = (before + reference_seconds()) / 2.0;
        let report = run.summary.to_json();
        let state = state_digest(&run.final_state);
        let same = first
            .as_ref()
            .is_none_or(|(r0, s0)| *r0 == report && *s0 == state);
        let answer = writeln!(
            stdout,
            "{{\"cpu_s\":{cpu_s},\"reference_s\":{reference_s},\"finished_txs\":{},\"chain_ok\":{},\"same_as_first\":{same}}}",
            finished_txs(&run),
            run.chain_ok
        )
        .and_then(|()| stdout.flush());
        if answer.is_err() {
            return ExitCode::FAILURE;
        }
        first.get_or_insert((report, state));
        drop(run);
    }
    let Some(rss) = peak_rss_kb() else {
        eprintln!("cannot read the peak resident set from /proc/self/status");
        return ExitCode::FAILURE;
    };
    let summary = first.map_or_else(|| "null".to_string(), |f| f.0);
    println!("{{\"summary\":{summary},\"peak_rss_kb\":{rss}}}");
    ExitCode::SUCCESS
}

/// Set-up repetitions for `seconds`, in a fresh process: the deployment is
/// built and run with no arrivals. Prints one JSON object with the CPU
/// seconds of every repetition, the reference kernel's CPU seconds around
/// them, and whether any repetition ran a transaction.
fn setup_child(cfg: &SimConfig, seconds: f64) -> ExitCode {
    let setup_cfg = workloads::setup_config(cfg);
    let mut times = Vec::new();
    let mut idle = true;
    let before = reference_seconds();
    let start = Instant::now();
    while times.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let input = setup_cfg.clone();
        let (run, cpu_s) = cpu_seconds(|| Simulation::new(input).run_detailed());
        times.push(cpu_s.to_string());
        idle &= run.traces.is_empty();
    }
    let reference_s = (before + reference_seconds()) / 2.0;
    println!(
        "{{\"setup_s\":[{}],\"reference_s\":{reference_s},\"idle\":{idle}}}",
        times.join(",")
    );
    ExitCode::SUCCESS
}

/// The end-to-end metrics, with tracing off.
///
/// The timed runs execute in a child process, one at a time on request.
/// After each of them a fresh process times set-up repetitions, so that the
/// set-up median samples the host over the whole measurement and over
/// several process layouts, not one moment of one process.
fn untraced(opts: &Options, record: &mut RunRecord) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--timed-child", "--workload", &opts.workload])
        .args(["--seed", &opts.seed.to_string()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("starting the timed runs: {e}"))?;
    let measured = drive_timed_runs(opts, &mut child);
    let status = child
        .wait()
        .map_err(|e| format!("waiting for the timed runs: {e}"))?;
    let Measured {
        runs,
        setup,
        mut references,
        idle,
        tail,
    } = measured?;
    if !status.success() {
        return Err(format!("timed runs exited with {status}"));
    }
    let doc = Json::parse(&tail).map_err(|e| format!("timed runs output: {e}"))?;

    record.attempted += setup.len() as u64;
    check(
        record,
        "setup runs no transactions",
        idle,
        format!("{} set-up runs, all with an empty trace", setup.len()),
    );
    let num = |v: &Json, k: &str| v.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let flag = |v: &Json, k: &str| matches!(v.get(k), Some(Json::Bool(true)));
    let rates: Vec<f64> = runs
        .iter()
        .map(|r| {
            num(r, "finished_txs") / at_reference_speed(num(r, "cpu_s"), num(r, "reference_s"))
        })
        .collect();
    references.extend(runs.iter().map(|r| num(r, "reference_s")));
    record.reference_s = median(&references).unwrap_or(f64::NAN);
    let chain_ok = runs.iter().all(|r| flag(r, "chain_ok"));
    let identical = runs.iter().all(|r| flag(r, "same_as_first"));
    record.attempted += runs.len() as u64;
    record.failed += runs
        .iter()
        .filter(|r| !(flag(r, "chain_ok") && flag(r, "same_as_first")))
        .count() as u64;
    check(
        record,
        "observer chain verifies",
        chain_ok,
        format!("chain_ok on all {} timed runs", runs.len()),
    );
    check(
        record,
        "runs of one seed identical",
        identical && runs.len() >= 2,
        format!(
            "{} untraced runs, byte-identical SummaryReport and final_state",
            runs.len()
        ),
    );

    let summary = doc
        .get("summary")
        .ok_or("timed runs output has no summary")?;
    let field = |path: &[&str]| {
        path.iter()
            .try_fold(summary, |v, k| v.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN)
    };
    let valid = field(&["committed_valid"]);
    let failures: f64 = [
        "committed_invalid",
        "overload_dropped",
        "ordering_timeouts",
        "endorsement_failures",
    ]
    .iter()
    .map(|k| field(&[k]))
    .sum();
    let samples = field(&["overall_latency", "count"]);
    let tail = highest_supported_quantile(samples as usize);
    check(
        record,
        "p99 has 10 samples beyond",
        tail.is_some_and(|q| q >= 0.99),
        format!(
            "{samples} committed latency samples; highest supported quantile {}",
            tail.map_or("none".to_string(), |q| q.to_string())
        ),
    );

    for (name, values) in [
        ("sim_tx_per_host_s", &rates),
        ("setup_s", &setup),
        ("reference_s", &references),
    ] {
        if let (Some((q1, q3)), Some(med), Some(spread)) =
            (quartiles(values), median(values), spread(values))
        {
            println!(
                "# {name}: {} samples, q1 {q1}, median {med}, q3 {q3}, spread {spread:.4}",
                values.len()
            );
        }
    }
    let rss_mb = num(&doc, "peak_rss_kb") / 1024.0;
    record.metrics = vec![
        Metric::new(
            "sim_tx_per_host_s",
            median(&rates).unwrap_or(f64::NAN),
            "tx/s",
        ),
        Metric::new("peak_rss_mb", rss_mb, "MB"),
        Metric::new("setup_s", median(&setup).unwrap_or(f64::NAN), "s"),
        Metric::new("valid_share", valid / (valid + failures), "ratio"),
        Metric::new(
            "sim_committed_tps",
            field(&["validate", "throughput_tps"]),
            "tx/s",
        ),
        Metric::new(
            "sim_latency_p50_s",
            field(&["overall_latency", "p50_s"]),
            "s",
        ),
        Metric::new(
            "sim_latency_p99_s",
            field(&["overall_latency", "p99_s"]),
            "s",
        ),
    ];
    Ok(())
}

/// What the timed runs and the set-up repetitions between them reported.
struct Measured {
    /// One JSON object per timed run.
    runs: Vec<Json>,
    /// Set-up CPU seconds at reference speed, one per repetition.
    setup: Vec<f64>,
    /// Reference kernel CPU seconds around each set-up slice.
    references: Vec<f64>,
    /// No set-up repetition ran a transaction.
    idle: bool,
    /// The timed-runs process's final line (summary and peak RSS).
    tail: String,
}

fn drive_timed_runs(opts: &Options, child: &mut Child) -> Result<Measured, String> {
    let mut to_child = child.stdin.take().ok_or("timed runs have no input")?;
    let mut from_child = BufReader::new(child.stdout.take().ok_or("timed runs have no output")?);
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let mut runs = Vec::new();
    let mut setup = Vec::new();
    let mut references = Vec::new();
    let mut idle = true;
    let start = Instant::now();
    while runs.len() < MIN_TIMED_RUNS || start.elapsed().as_secs_f64() < opts.seconds {
        writeln!(to_child, "run")
            .and_then(|()| to_child.flush())
            .map_err(|e| format!("requesting a timed run: {e}"))?;
        let mut line = String::new();
        from_child
            .read_line(&mut line)
            .map_err(|e| format!("reading a timed run: {e}"))?;
        let run = Json::parse(line.trim()).map_err(|e| format!("timed run output: {e}"))?;
        let run_s = run.get("cpu_s").and_then(Json::as_f64).unwrap_or(0.0);
        runs.push(run);

        let slice = (SETUP_SHARE * run_s).max(SETUP_MIN_SLICE_S);
        let out = Command::new(&exe)
            .args(["--setup-child", "--workload", &opts.workload])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &slice.to_string()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("starting set-up runs: {e}"))?;
        if !out.status.success() {
            return Err(format!("set-up runs exited with {}", out.status));
        }
        let doc = Json::parse(String::from_utf8_lossy(&out.stdout).trim())
            .map_err(|e| format!("set-up runs output: {e}"))?;
        let times = doc
            .get("setup_s")
            .and_then(Json::as_array)
            .ok_or("set-up runs output has no times")?;
        let reference_s = doc
            .get("reference_s")
            .and_then(Json::as_f64)
            .ok_or("set-up runs output has no reference time")?;
        setup.extend(
            times
                .iter()
                .filter_map(Json::as_f64)
                .map(|t| at_reference_speed(t, reference_s)),
        );
        references.push(reference_s);
        idle &= matches!(doc.get("idle"), Some(Json::Bool(true)));
    }
    drop(to_child);
    let mut tail = String::new();
    from_child
        .read_to_string(&mut tail)
        .map_err(|e| format!("reading the timed runs' summary: {e}"))?;
    Ok(Measured {
        runs,
        setup,
        references,
        idle,
        tail: tail.trim().to_string(),
    })
}

/// Sum of every sample of counter `name` (all label sets) in a Prometheus
/// text exposition.
fn counter_sum(exposition: &str, name: &str) -> f64 {
    exposition
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            let metric = series.split('{').next()?;
            (metric == name).then(|| value.parse::<f64>().ok())?
        })
        .sum()
}

/// The per-layer metrics: a profiled run of the workload between two
/// untraced ones, then the layer replay.
fn traced(cfg: &SimConfig, record: &mut RunRecord) -> Result<(), String> {
    // Untraced runs bracket the profiled one, and the cheaper of them is the
    // reference CPU time, so the first run's cold start is not counted as
    // tracing overhead. The live counters are read right after the profiled
    // run: their hooks are process-global, so the later run bumps them too.
    let plain = |cfg: &SimConfig| {
        let input = cfg.clone();
        cpu_seconds(|| Simulation::new(input).run_detailed())
    };
    let (reference, plain_before_s) = plain(cfg);

    let live: Arc<LiveMetrics> = LiveMetrics::new();
    let mut input = cfg.clone();
    input.obs.profile = true;
    let wall = Instant::now();
    let (run, traced_s) = cpu_seconds(|| {
        Simulation::new(input)
            .with_live_metrics(live.clone())
            .run_detailed()
    });
    let traced_wall_s = wall.elapsed().as_secs_f64();
    let exposition = live.registry().render();
    let (after, plain_after_s) = plain(cfg);
    let plain_s = plain_before_s.min(plain_after_s);
    record.attempted += 3;

    let chain_ok = reference.chain_ok && run.chain_ok && after.chain_ok;
    let same_as_reference = |r: &RunResult| {
        r.summary.to_json() == reference.summary.to_json() && r.final_state == reference.final_state
    };
    let write_only = same_as_reference(&run);
    let repeatable = same_as_reference(&after);
    record.failed += u64::from(!chain_ok) + u64::from(!write_only) + u64::from(!repeatable);
    check(
        record,
        "observer chain verifies",
        chain_ok,
        "chain_ok on the two untraced runs and the profiled run".into(),
    );
    check(
        record,
        "runs of one seed identical",
        repeatable,
        "two untraced runs, byte-identical SummaryReport and final_state".into(),
    );
    check(
        record,
        "profiler is write-only",
        write_only,
        "profiled run's SummaryReport and final_state equal the untraced run's".into(),
    );
    let profile = run
        .observability
        .profile
        .clone()
        .ok_or("the profiled run returned no kernel profile")?;
    check(
        record,
        "profile accounts for the loop",
        profile.attributed_ns() == profile.loop_ns,
        format!(
            "attributed {} ns, loop {} ns",
            profile.attributed_ns(),
            profile.loop_ns
        ),
    );

    // Every peer runs VSCC on every transaction of every block it commits.
    let peers = (cfg.endorsing_peers + cfg.committing_peers) as f64;
    let committed_block_txs: usize = run
        .block_cuts
        .iter()
        .take(run.observer_height as usize)
        .map(|&(_, n)| n)
        .sum();
    let vscc_checks = counter_sum(&exposition, "fabricsim_peer_vscc_checks_total");
    check(
        record,
        "vscc checks = block txs x peers",
        vscc_checks == committed_block_txs as f64 * peers,
        format!("{vscc_checks} checks; {committed_block_txs} committed-block txs x {peers} peers"),
    );

    let loop_ns = profile.loop_ns as f64;
    let dispatches: u64 = profile.entries.iter().map(|e| e.count).sum();
    let mut metrics = vec![
        Metric::new(
            "des.events_per_host_s",
            dispatches as f64 / (loop_ns / 1e9),
            "1/s",
        ),
        Metric::new(
            "des.heap_ns_per_op",
            profile.heap_ns as f64 / profile.heap_ops as f64,
            "ns",
        ),
        Metric::new(
            "des.overhead_share",
            (profile.heap_ns + profile.overhead_ns) as f64 / loop_ns,
            "ratio",
        ),
        Metric::new("core.loop_share", loop_ns / 1e9 / traced_wall_s, "ratio"),
        Metric::new(
            "bench.trace_overhead_share",
            traced_s / plain_s - 1.0,
            "ratio",
        ),
    ];
    let mut other = (0u64, 0u64);
    for e in &profile.entries {
        if !HANDLER_LABELS.contains(&e.label.as_str()) {
            other.0 += e.count;
            other.1 += e.ns;
        }
    }
    let handler_rows = HANDLER_LABELS
        .iter()
        .map(|&label| {
            profile
                .entries
                .iter()
                .find(|e| e.label == label)
                .map_or((label, 0, 0), |e| (label, e.count, e.ns))
        })
        .chain(std::iter::once(("other", other.0, other.1)));
    for (label, count, ns) in handler_rows {
        let per_dispatch = if count == 0 {
            0.0
        } else {
            ns as f64 / count as f64 / 1e3
        };
        metrics.push(Metric::new(
            &format!("handler.{label}.share"),
            ns as f64 / loop_ns,
            "ratio",
        ));
        metrics.push(Metric::new(
            &format!("handler.{label}.us_per_dispatch"),
            per_dispatch,
            "us",
        ));
    }
    drop((reference, run, after));

    let replay = replay::run(cfg, REPLAY_TXS)?;
    record.attempted += 1;
    let replay_ok = replay.ledgers_ok && replay.replicas_agree && replay.errors.is_empty();
    record.failed += u64::from(!replay_ok);
    check(
        record,
        "replay ledgers verify",
        replay.ledgers_ok,
        format!("{} blocks on {} replicas", replay.blocks, replay.peers),
    );
    check(
        record,
        "replay replicas agree",
        replay.replicas_agree && replay.errors.is_empty(),
        if replay.errors.is_empty() {
            "equal height, tip and world state on every replica".into()
        } else {
            replay.errors.join("; ")
        },
    );

    let validate_ns = profile
        .entries
        .iter()
        .find(|e| e.label == "validate.commit")
        .map_or(0.0, |e| e.ns as f64);
    let expected_ns = replay.validate_ns_per_tx_peer() * vscc_checks;
    let ratio = expected_ns / validate_ns;
    check(
        record,
        "replay reconciles with profile",
        ratio > 1.0 / RECONCILE_FACTOR && ratio < RECONCILE_FACTOR,
        format!(
            "replay {:.0} ns/tx/peer x {vscc_checks} checks = {:.3} s vs validate.commit {:.3} s \
             (ratio {ratio:.3}, allowed 1/{RECONCILE_FACTOR}..{RECONCILE_FACTOR})",
            replay.validate_ns_per_tx_peer(),
            expected_ns / 1e9,
            validate_ns / 1e9
        ),
    );
    metrics.extend(replay.metrics());
    metrics.push(Metric::new(
        "peer.vscc_checks_per_tx",
        vscc_checks / committed_block_txs as f64,
        "count",
    ));
    metrics.push(Metric::new(
        "ordering.txs_per_block",
        counter_sum(&exposition, "fabricsim_ordering_batched_txs_total")
            / counter_sum(&exposition, "fabricsim_ordering_batches_cut_total"),
        "count",
    ));
    record.metrics = metrics;

    let spans = results_dir().join(format!(
        "{}-seed{}.spans.jsonl",
        record.workload, record.seed
    ));
    std::fs::create_dir_all(results_dir())
        .and_then(|()| std::fs::write(&spans, replay.tracer.to_jsonl()))
        .map_err(|e| format!("writing {}: {e}", spans.display()))?;
    Ok(())
}
