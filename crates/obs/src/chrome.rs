//! Chrome Trace Event Format export (Perfetto / `chrome://tracing`).
//!
//! Converts a causal span graph into the JSON object format described by
//! the Trace Event Format spec: one *complete* (`"ph":"X"`) slice per span
//! on a per-actor track, plus flow events along every parent edge.
//! Timestamps are microseconds (the format's native unit); virtual time is
//! integer nanoseconds, so three decimals are exact.

use std::collections::HashMap;

use crate::json::escape;
use crate::spangraph::SpanEvent;

/// Renders a causal span graph as Chrome Trace Event Format JSON with *flow
/// events*: one `X` slice per span on a per-actor track (pid 3 `actors`),
/// plus an `s`/`f` flow pair for every parent→child edge, which Perfetto
/// draws as cross-actor arrows — the distributed hand-off picture the flat
/// per-transaction timeline cannot show.
///
/// Span ids go into the flow `id` field as hex strings (the format allows
/// string ids; JSON numbers would corrupt ids above 2⁵³).
pub fn span_flow_trace(spans: &[SpanEvent]) -> String {
    let mut ordered: Vec<&SpanEvent> = spans.iter().collect();
    ordered.sort_by(|a, b| a.t0_s.total_cmp(&b.t0_s).then(a.span_id.cmp(&b.span_id)));
    let mut by_id: HashMap<u64, &SpanEvent> = HashMap::new();
    for s in &ordered {
        by_id.entry(s.span_id).or_insert(s);
    }
    // Deterministic actor → tid mapping (sorted names).
    let mut actors: Vec<&str> = ordered.iter().map(|s| s.actor.as_str()).collect();
    actors.sort_unstable();
    actors.dedup();
    let tid_of: HashMap<&str, usize> = actors
        .iter()
        .enumerate()
        .map(|(i, &a)| (a, i + 1))
        .collect();

    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let push = |s: String, out: &mut String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(&s);
    };
    push(
        "{\"ph\":\"M\",\"pid\":3,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"actors\"}}"
            .to_string(),
        &mut out,
        &mut first,
    );
    for (i, actor) in actors.iter().enumerate() {
        push(
            format!(
                "{{\"ph\":\"M\",\"pid\":3,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
                i + 1,
                escape(actor)
            ),
            &mut out,
            &mut first,
        );
    }
    for s in &ordered {
        let tid = tid_of[s.actor.as_str()];
        push(
            format!(
                "{{\"ph\":\"X\",\"pid\":3,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"name\":\"{}\",\"cat\":\"span\",\"args\":{{\"trace\":\"{}\",\"span\":\"{:016x}\",\"parent\":\"{:016x}\",\"hop\":{}}}}}",
                s.t0_s * 1e6,
                (s.t1_s - s.t0_s).max(0.0) * 1e6,
                s.kind.label(),
                escape(&s.trace),
                s.span_id,
                s.parent_id,
                s.hop
            ),
            &mut out,
            &mut first,
        );
    }
    // Flow arrows: parent end → child start. Only edges whose parent is in
    // the file (sampling may have dropped it) get an arrow.
    for s in &ordered {
        let Some(parent) = by_id.get(&s.parent_id) else {
            continue;
        };
        let ptid = tid_of[parent.actor.as_str()];
        let ctid = tid_of[s.actor.as_str()];
        push(
            format!(
                "{{\"ph\":\"s\",\"pid\":3,\"tid\":{ptid},\"ts\":{:.3},\"id\":\"{:016x}\",\"name\":\"causal\",\"cat\":\"flow\"}}",
                parent.t1_s * 1e6,
                s.span_id
            ),
            &mut out,
            &mut first,
        );
        push(
            format!(
                "{{\"ph\":\"f\",\"bp\":\"e\",\"pid\":3,\"tid\":{ctid},\"ts\":{:.3},\"id\":\"{:016x}\",\"name\":\"causal\",\"cat\":\"flow\"}}",
                s.t0_s * 1e6,
                s.span_id
            ),
            &mut out,
            &mut first,
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn sample_spans() -> Vec<crate::SpanEvent> {
        use crate::spangraph::{span_id, SpanKind};
        let mk = |trace: &str, kind: SpanKind, actor: &str, t0: f64, t1: f64, parent: u64| {
            crate::SpanEvent {
                span_id: span_id(trace, kind, actor, 0),
                parent_id: parent,
                trace: trace.into(),
                kind,
                actor: actor.into(),
                t0_s: t0,
                t1_s: t1,
                hop: 0,
            }
        };
        let prep = mk("tx1", SpanKind::ClientPrep, "pool0", 0.0, 0.01, 0);
        let endorse = mk("tx1", SpanKind::Endorse, "peer1", 0.012, 0.02, prep.span_id);
        let orphan = mk("tx1", SpanKind::Vscc, "peer0", 0.05, 0.06, 0xdead);
        vec![prep, endorse, orphan]
    }

    #[test]
    fn emits_valid_json_with_monotone_tracks() {
        // Input order is irrelevant: slices come out time-sorted per track.
        let mut spans = sample_spans();
        spans.reverse();
        let doc = span_flow_trace(&spans);
        let parsed = Json::parse(&doc).expect("chrome trace is valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array");
        let mut last_ts: HashMap<(u64, u64), f64> = HashMap::new();
        for e in events {
            if e.get("ph").and_then(Json::as_str) != Some("X") {
                continue;
            }
            let pid = e.get("pid").and_then(Json::as_f64).expect("pid") as u64;
            let tid = e.get("tid").and_then(Json::as_f64).expect("tid") as u64;
            let ts = e.get("ts").and_then(Json::as_f64).expect("ts");
            assert!(ts >= 0.0, "negative ts {ts}");
            let prev = last_ts.insert((pid, tid), ts).unwrap_or(f64::MIN);
            assert!(ts >= prev, "ts not monotone on track ({pid},{tid})");
        }
        assert_eq!(last_ts.len(), 3, "one track per actor");
    }
    #[test]
    fn span_flow_trace_is_valid_json_with_paired_flows() {
        let doc = span_flow_trace(&sample_spans());
        let parsed = Json::parse(&doc).expect("flow trace is valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents");
        let mut starts = Vec::new();
        let mut finishes = Vec::new();
        let mut slices = 0;
        for e in events {
            match e.get("ph").and_then(Json::as_str).expect("ph") {
                "s" => starts.push(e.get("id").and_then(Json::as_str).unwrap().to_string()),
                "f" => {
                    assert_eq!(e.get("bp").and_then(Json::as_str), Some("e"));
                    finishes.push(e.get("id").and_then(Json::as_str).unwrap().to_string());
                }
                "X" => {
                    slices += 1;
                    let dur = e.get("dur").and_then(Json::as_f64).expect("dur");
                    assert!(dur >= 0.0);
                }
                _ => {}
            }
        }
        assert_eq!(slices, 3, "one X slice per span");
        assert_eq!(starts.len(), 1, "only the in-file parent edge gets a flow");
        assert_eq!(starts, finishes, "every s pairs with an f by id");
    }

    #[test]
    fn span_flow_trace_tracks_are_per_actor() {
        let doc = span_flow_trace(&sample_spans());
        assert!(doc.contains("\"name\":\"actors\""));
        for actor in ["pool0", "peer0", "peer1"] {
            assert!(
                doc.contains(&format!("\"args\":{{\"name\":\"{actor}\"}}")),
                "missing actor track {actor}"
            );
        }
    }

    #[test]
    fn empty_span_flow_trace_is_valid() {
        Json::parse(&span_flow_trace(&[])).expect("valid");
    }
}
