//! The benchmark's own statistics, span accounting and result file.

use fabricsim_perfbench::record::{Check, Metric, RunRecord};
use fabricsim_perfbench::stats::{
    highest_supported_quantile, median, percentile, quartiles, samples_beyond, spread,
};
use fabricsim_perfbench::trace::{self_times, Span};

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[4.0]), Some(4.0));
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
}

#[test]
fn quartiles_match_the_exclusive_rule() {
    // Reference values from Python: statistics.quantiles(data, n=4).
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
    assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), Some((1.5, 4.5)));
    // Two values extrapolate, as Python does: [-0.5, 4.0, 8.5].
    assert_eq!(quartiles(&[7.0, 1.0]), Some((-0.5, 8.5)));
    assert_eq!(quartiles(&[1.0]), None);
    // Order of the input does not matter.
    let mut shuffled = ten.clone();
    shuffled.reverse();
    assert_eq!(quartiles(&shuffled), quartiles(&ten));
    // Spread is the interquartile range over the median: (8.25 - 2.75) / 5.5.
    assert_eq!(spread(&ten), Some(1.0));
    assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
}

#[test]
fn percentile_interpolates_between_ranks() {
    let v = [10.0, 20.0, 30.0, 40.0];
    assert_eq!(percentile(&v, 0.0), Some(10.0));
    assert_eq!(percentile(&v, 1.0), Some(40.0));
    assert_eq!(percentile(&v, 0.5), Some(25.0));
    assert!((percentile(&v, 0.99).unwrap() - 39.7).abs() < 1e-9);
    assert_eq!(percentile(&[], 0.5), None);
}

#[test]
fn tail_selector_needs_ten_samples_beyond() {
    assert_eq!(samples_beyond(100, 0.99), 0);
    assert_eq!(samples_beyond(100, 0.5), 49);
    // p99 of n samples sits at rank ceil((n-1)*0.99); ten must lie above it.
    assert_eq!(samples_beyond(1000, 0.99), 9);
    assert_eq!(samples_beyond(1009, 0.99), 10);
    assert_eq!(highest_supported_quantile(1000), Some(0.95));
    assert_eq!(highest_supported_quantile(1009), Some(0.99));
    assert_eq!(highest_supported_quantile(4200), Some(0.99));
    assert_eq!(highest_supported_quantile(20_000), Some(0.999));
    assert_eq!(highest_supported_quantile(21), Some(0.5));
    assert_eq!(highest_supported_quantile(20), None);
    assert_eq!(highest_supported_quantile(0), None);
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        trace_id: "tx0".into(),
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let spans = [
        span("root", 0, 100, None),
        // Two overlapping children cover [10, 50): 40 ns, not 50.
        span("a", 10, 40, Some(0)),
        span("b", 20, 50, Some(0)),
        // A disjoint child covers [60, 70).
        span("c", 60, 70, Some(0)),
        // A child sticking out of its parent counts only inside it: [90, 100).
        span("d", 90, 130, Some(0)),
        // A grandchild is subtracted from its own parent only.
        span("e", 12, 30, Some(1)),
    ];
    assert_eq!(
        self_times(&spans),
        vec![100 - 40 - 10 - 10, 30 - 18, 30, 10, 40, 18]
    );
}

#[test]
fn self_time_of_nested_and_identical_children() {
    let spans = [
        span("root", 0, 50, None),
        span("a", 5, 25, Some(0)),
        span("b", 5, 25, Some(0)),
        span("c", 10, 15, Some(0)),
    ];
    assert_eq!(self_times(&spans), vec![30, 20, 20, 5]);
}

fn record() -> RunRecord {
    RunRecord {
        workload: "and5-validate".into(),
        seed: 42,
        trace: false,
        available_parallelism: 2,
        host_threads: 2,
        config_digest: "57393a12c6db0cd6".into(),
        reference_s: 0.031_25,
        skipped: None,
        attempted: 7,
        failed: 0,
        checks: vec![Check {
            name: "observer chain verifies".into(),
            ok: true,
            detail: "a \"quoted\" detail\nwith a newline and a \\ backslash".into(),
        }],
        metrics: vec![
            Metric {
                name: "sim_tx_per_host_s".into(),
                value: 2718.281828459045,
                unit: "tx/s".into(),
            },
            Metric {
                name: "setup_s".into(),
                value: 0.000_123_456_789,
                unit: "s".into(),
            },
            Metric {
                name: "peak_rss_mb".into(),
                value: 131.5,
                unit: "MB".into(),
            },
        ],
    }
}

#[test]
fn result_file_round_trips() {
    let r = record();
    assert!(r.correct());
    assert_eq!(RunRecord::from_json(&r.to_json()), Ok(r.clone()));

    let skipped = RunRecord {
        skipped: Some("needs 2 host threads".into()),
        trace: true,
        metrics: Vec::new(),
        ..r
    };
    assert!(!skipped.correct());
    assert_eq!(RunRecord::from_json(&skipped.to_json()), Ok(skipped));
}

#[test]
fn summary_line_has_exactly_the_contract_keys() {
    let line = record().summary_line();
    let doc = fabricsim::obs::Json::parse(&line).expect("summary line is JSON");
    let fabricsim::obs::Json::Obj(top) = &doc else {
        panic!("summary line is not an object: {line}");
    };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
    assert_eq!(
        setup.get("value").and_then(|v| v.as_f64()),
        Some(0.000_123_456_789)
    );
    assert_eq!(setup.get("unit").and_then(|v| v.as_str()), Some("s"));
}

#[test]
fn a_failed_check_or_a_non_finite_metric_is_incorrect() {
    let mut r = record();
    r.checks[0].ok = false;
    assert!(!r.correct());
    assert!(r.summary_line().starts_with("{\"correct\":false"));

    let mut r = record();
    r.metrics[0].value = f64::NAN;
    assert!(!r.correct());
    assert!(r.to_json().contains("\"value\":null"));
}
