//! Collapsed-stacks export for flamegraph tooling.
//!
//! Emits the `folded` format consumed by Brendan Gregg's `flamegraph.pl`,
//! `inferno-flamegraph` and speedscope: one line per unique stack,
//! `frame;frame;frame <value>`. Stacks are three frames deep —
//! `fabricsim;<execute|order|validate>;<segment label>` — so the rendered
//! graph shows the paper's phase split at the second level and the span
//! graph's critical-path segments (span kinds and `wait:` gaps) at the
//! leaves, mirroring the `analyze --spans` dominance table.
//!
//! Values are critical-path virtual **nanoseconds** summed over every
//! analyzed transaction. Divide a stack's total by the analysis' `txs` and
//! by 1e9 to recover the per-transaction mean of that segment — the
//! reconciliation the acceptance test locks to 1e-6.

use crate::critpath::{phase_group, SpanGraphAnalysis};

/// Renders a span-graph analysis as collapsed stacks, one line per segment
/// label, dominant segment first. An analysis with no committed
/// transactions yields an empty document.
pub fn collapsed_stacks(analysis: &SpanGraphAnalysis) -> String {
    let mut out = String::new();
    for (label, secs) in &analysis.segment_share {
        // Round, don't truncate: the total went through f64 sums of
        // integer-nanosecond virtual times.
        let ns = (secs * 1e9).round() as u64;
        out.push_str(&format!("fabricsim;{};{label} {ns}\n", phase_group(label)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spangraph::{span_id, SpanEvent, SpanKind};

    fn span(trace: &str, kind: SpanKind, t0: f64, t1: f64, parent: u64) -> SpanEvent {
        SpanEvent {
            span_id: span_id(trace, kind, "peer0", 0),
            parent_id: parent,
            trace: trace.into(),
            kind,
            actor: "peer0".into(),
            t0_s: t0,
            t1_s: t1,
            hop: 0,
        }
    }

    #[test]
    fn stacks_aggregate_and_reconcile_with_analyzer_means() {
        let prep = span("a", SpanKind::ClientPrep, 1.0, 1.25, 0);
        let endorse = span("a", SpanKind::Endorse, 1.25, 1.5, prep.span_id);
        let commit = span("a", SpanKind::Commit, 1.75, 2.0, endorse.span_id);
        // "b" never commits: excluded from the critical-path analysis.
        let incomplete = span("b", SpanKind::ClientPrep, 3.0, 3.1, 0);
        let analysis = SpanGraphAnalysis::from_spans(&[prep, endorse, commit, incomplete]);
        let folded = collapsed_stacks(&analysis);
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(
            lines,
            vec![
                "fabricsim;execute;client_prep 250000000",
                "fabricsim;validate;commit 250000000",
                "fabricsim;execute;endorse 250000000",
                "fabricsim;validate;wait:commit 250000000",
            ]
        );
        // Reconciliation: stack_ns / txs / 1e9 == per-tx segment share.
        for line in lines {
            let (stack, ns) = line.rsplit_once(' ').expect("folded line");
            let leaf = stack.rsplit(';').next().expect("leaf frame");
            let (_, secs) = analysis
                .segment_share
                .iter()
                .find(|(label, _)| label == leaf)
                .unwrap_or_else(|| panic!("analysis lacks segment {leaf}"));
            let txs = analysis.txs as f64;
            let mean_from_flame = ns.parse::<u64>().expect("ns value") as f64 / 1e9 / txs;
            assert!((mean_from_flame - secs / txs).abs() < 1e-6, "{leaf}");
        }
    }

    #[test]
    fn failures_and_empty_input_contribute_nothing() {
        let uncommitted = [span("x", SpanKind::ClientPrep, 1.0, 1.1, 0)];
        assert_eq!(
            collapsed_stacks(&SpanGraphAnalysis::from_spans(&uncommitted)),
            ""
        );
        assert_eq!(collapsed_stacks(&SpanGraphAnalysis::from_spans(&[])), "");
    }
}
