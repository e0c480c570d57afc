//! Perfetto / Chrome trace-event rendering of the `--obs` event stream
//! (`qres obstrace`).
//!
//! Emits the legacy JSON trace format (`{"traceEvents": [...]}`) that
//! both `ui.perfetto.dev` and `chrome://tracing` import: one complete
//! (`"ph": "X"`) span per `admission` event, with the `br_compute`
//! events sharing its `req` id nested inside, on one synthetic track per
//! cell.
//!
//! Timelines are synthesized: all spans of one admission test share a
//! single sim-time instant and only carry wall-clock *durations*, so real
//! timestamps do not exist in the stream. Each cell's track keeps a
//! cursor that advances by every span placed on it (plus a 1 µs gap), and
//! children are laid out back-to-back from their parent's start — widths
//! are faithful, offsets are synthetic. Sim-time is preserved in each
//! span's `args.sim_t` for correlation.
//!
//! Like `obsfold`, pairing is streaming (children buffer under their
//! `req` until the parent admission arrives), so the stream should come
//! from a single-threaded run. [`diff_traces`] compares two rendered
//! traces structurally (`qres obstrace --diff`).

use std::collections::{BTreeMap, BTreeSet};

use qres_json::Value;

/// Nanoseconds of synthetic idle space between consecutive spans on one
/// cell track, so adjacent admission tests stay visually distinct.
const TRACK_GAP_NS: u64 = 1_000;

/// The `pid` all synthetic tracks live under.
const PID: u64 = 1;

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Microseconds (the trace format's `ts`/`dur` unit) from nanoseconds.
fn us(ns: u64) -> Value {
    Value::Float(ns as f64 / 1_000.0)
}

/// One buffered `br_compute` child.
struct PendingBr {
    cell: u64,
    dur_ns: u64,
    memo_hits: u64,
    recomputed: u64,
}

/// Converts a JSONL event stream into a trace-event JSON document.
///
/// Returns the document as a [`Value`]; serialize with
/// [`Value::to_compact_string`]. Events other than
/// `admission`/`br_compute` are ignored.
pub fn perfetto_trace(jsonl: &str) -> Result<Value, String> {
    let mut events: Vec<Value> = vec![obj(vec![
        ("name", Value::Str("process_name".into())),
        ("ph", Value::Str("M".into())),
        ("pid", Value::UInt(PID)),
        (
            "args",
            obj(vec![("name", Value::Str("qres reservation system".into()))]),
        ),
    ])];
    // Per-cell synthetic-track cursors (ns). BTreeMap: tracks get their
    // metadata emitted in cell order.
    let mut cursors: BTreeMap<u64, u64> = BTreeMap::new();
    let mut pending: BTreeMap<u64, Vec<PendingBr>> = BTreeMap::new();
    let mut spans: Vec<Value> = Vec::new();

    for (lineno, line) in jsonl.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let value =
            Value::parse(line).map_err(|e| format!("line {}: not valid JSON: {e}", lineno + 1))?;
        let Some(Value::Str(tag)) = value.get("type") else {
            return Err(format!("line {}: event has no string `type`", lineno + 1));
        };
        match tag.as_str() {
            "br_compute" => {
                pending
                    .entry(get_u64(&value, "req").unwrap_or(0))
                    .or_default()
                    .push(PendingBr {
                        cell: get_u64(&value, "cell").unwrap_or(0),
                        dur_ns: get_u64(&value, "dur_ns").unwrap_or(0),
                        memo_hits: get_u64(&value, "memo_hits").unwrap_or(0),
                        recomputed: get_u64(&value, "recomputed").unwrap_or(0),
                    });
            }
            "admission" => {
                let cell = get_u64(&value, "cell").unwrap_or(0);
                let req = get_u64(&value, "req").unwrap_or(0);
                let dur_ns = get_u64(&value, "dur_ns").unwrap_or(0);
                let children = pending.remove(&req).unwrap_or_default();
                let child_sum: u64 = children.iter().map(|c| c.dur_ns).sum();
                // Clocks are read independently; stretch the parent if the
                // children overshoot so nesting stays well-formed.
                let span_ns = dur_ns.max(child_sum);
                let start = *cursors.entry(cell).or_insert(0);
                let scheme = match value.get("scheme") {
                    Some(Value::Str(s)) => s.clone(),
                    _ => "unknown".to_string(),
                };
                spans.push(obj(vec![
                    ("name", Value::Str(format!("admission {scheme}"))),
                    ("cat", Value::Str("admission".into())),
                    ("ph", Value::Str("X".into())),
                    ("pid", Value::UInt(PID)),
                    ("tid", Value::UInt(cell)),
                    ("ts", us(start)),
                    ("dur", us(span_ns)),
                    (
                        "args",
                        obj(vec![
                            ("req", Value::UInt(req)),
                            (
                                "sim_t",
                                value.get("t").cloned().unwrap_or(Value::Float(0.0)),
                            ),
                            (
                                "admitted",
                                value.get("admitted").cloned().unwrap_or(Value::Null),
                            ),
                            ("br", value.get("br").cloned().unwrap_or(Value::Null)),
                        ]),
                    ),
                ]));
                // Children back-to-back from the parent's start, on the
                // parent's track so Perfetto nests them.
                let mut child_start = start;
                for c in &children {
                    spans.push(obj(vec![
                        ("name", Value::Str(format!("br_compute cell {}", c.cell))),
                        ("cat", Value::Str("br_compute".into())),
                        ("ph", Value::Str("X".into())),
                        ("pid", Value::UInt(PID)),
                        ("tid", Value::UInt(cell)),
                        ("ts", us(child_start)),
                        ("dur", us(c.dur_ns)),
                        (
                            "args",
                            obj(vec![
                                ("req", Value::UInt(req)),
                                ("target_cell", Value::UInt(c.cell)),
                                ("memo_hits", Value::UInt(c.memo_hits)),
                                ("recomputed", Value::UInt(c.recomputed)),
                            ]),
                        ),
                    ]));
                    child_start += c.dur_ns;
                }
                cursors.insert(cell, start + span_ns + TRACK_GAP_NS);
            }
            _ => {}
        }
    }

    // Orphaned children (truncated stream): own span on their own track.
    for brs in pending.into_values() {
        for c in brs {
            let start = *cursors.entry(c.cell).or_insert(0);
            spans.push(obj(vec![
                ("name", Value::Str("br_compute (orphan)".into())),
                ("cat", Value::Str("br_compute".into())),
                ("ph", Value::Str("X".into())),
                ("pid", Value::UInt(PID)),
                ("tid", Value::UInt(c.cell)),
                ("ts", us(start)),
                ("dur", us(c.dur_ns)),
                ("args", obj(vec![("target_cell", Value::UInt(c.cell))])),
            ]));
            cursors.insert(c.cell, start + c.dur_ns + TRACK_GAP_NS);
        }
    }

    for &cell in cursors.keys() {
        events.push(obj(vec![
            ("name", Value::Str("thread_name".into())),
            ("ph", Value::Str("M".into())),
            ("pid", Value::UInt(PID)),
            ("tid", Value::UInt(cell)),
            (
                "args",
                obj(vec![("name", Value::Str(format!("cell {cell}")))]),
            ),
        ]));
    }
    events.extend(spans);

    Ok(obj(vec![
        ("traceEvents", Value::Array(events)),
        ("displayTimeUnit", Value::Str("ms".into())),
    ]))
}

fn get_u64(v: &Value, key: &str) -> Option<u64> {
    match v.get(key)? {
        Value::UInt(n) => Some(*n),
        Value::Int(n) if *n >= 0 => Some(*n as u64),
        Value::Float(f) if *f >= 0.0 => Some(*f as u64),
        _ => None,
    }
}

fn get_f64(v: &Value, key: &str) -> Option<f64> {
    match v.get(key)? {
        Value::UInt(n) => Some(*n as f64),
        Value::Int(n) => Some(*n as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// Aggregate of all complete spans sharing one name.
#[derive(Debug, Clone, Copy, Default)]
struct SpanAgg {
    count: u64,
    dur_us: f64,
}

/// Observed parent→child nesting pairs, by span name.
type NestingPairs = BTreeSet<(String, String)>;

/// Extracts per-name span aggregates and the set of observed
/// parent→child nesting pairs (by containment on each track) from a
/// rendered trace document.
fn collect_spans(doc: &Value) -> Result<(BTreeMap<String, SpanAgg>, NestingPairs), String> {
    let Some(Value::Array(events)) = doc.get("traceEvents") else {
        return Err("not a trace document (no `traceEvents` array)".to_string());
    };
    // (tid, ts, dur, name) for every complete span.
    let mut by_track: BTreeMap<u64, Vec<(f64, f64, String)>> = BTreeMap::new();
    let mut aggs: BTreeMap<String, SpanAgg> = BTreeMap::new();
    for e in events {
        if !matches!(e.get("ph"), Some(Value::Str(p)) if p == "X") {
            continue;
        }
        let Some(Value::Str(name)) = e.get("name") else {
            continue;
        };
        let ts = get_f64(e, "ts").unwrap_or(0.0);
        let dur = get_f64(e, "dur").unwrap_or(0.0);
        let agg = aggs.entry(name.clone()).or_default();
        agg.count += 1;
        agg.dur_us += dur;
        by_track
            .entry(get_u64(e, "tid").unwrap_or(0))
            .or_default()
            .push((ts, dur, name.clone()));
    }
    // Nesting pairs by interval containment per track: sort by start
    // (longer span first on ties so parents precede their children), then
    // sweep with a stack of open intervals.
    let mut pairs: BTreeSet<(String, String)> = BTreeSet::new();
    for (_, mut spans) in by_track {
        spans.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.total_cmp(&a.1)));
        let mut stack: Vec<(f64, String)> = Vec::new(); // (end, name)
        for (ts, dur, name) in spans {
            while stack.last().is_some_and(|(end, _)| ts >= *end) {
                stack.pop();
            }
            if let Some((_, parent)) = stack.last() {
                pairs.insert((parent.clone(), name.clone()));
            }
            stack.push((ts + dur, name));
        }
    }
    Ok((aggs, pairs))
}

fn fmt_us(us: f64) -> String {
    if us >= 1e6 {
        format!("{:.2}s", us / 1e6)
    } else if us >= 1e3 {
        format!("{:.2}ms", us / 1e3)
    } else {
        format!("{us:.1}us")
    }
}

/// Structurally diffs two rendered trace documents (`qres obstrace
/// --diff A.json B.json`): per-name span counts and total-duration
/// deltas, plus nesting pairs present in only one trace. `label_a` /
/// `label_b` name the two sides in the report (typically file names).
pub fn diff_traces(a: &Value, b: &Value, label_a: &str, label_b: &str) -> Result<String, String> {
    let (aggs_a, pairs_a) = collect_spans(a).map_err(|e| format!("{label_a}: {e}"))?;
    let (aggs_b, pairs_b) = collect_spans(b).map_err(|e| format!("{label_b}: {e}"))?;

    let mut out = format!("trace diff: {label_a} vs {label_b}\nspans:\n");
    let names: BTreeSet<&String> = aggs_a.keys().chain(aggs_b.keys()).collect();
    let mut unchanged = 0usize;
    for name in names {
        match (aggs_a.get(name), aggs_b.get(name)) {
            (Some(x), None) => {
                out.push_str(&format!(
                    "  - {name}: only in {label_a} (count {}, total {})\n",
                    x.count,
                    fmt_us(x.dur_us)
                ));
            }
            (None, Some(y)) => {
                out.push_str(&format!(
                    "  + {name}: only in {label_b} (count {}, total {})\n",
                    y.count,
                    fmt_us(y.dur_us)
                ));
            }
            (Some(x), Some(y)) => {
                let dur_delta_pct = if x.dur_us > 0.0 {
                    (y.dur_us - x.dur_us) / x.dur_us * 100.0
                } else {
                    0.0
                };
                if x.count == y.count && dur_delta_pct.abs() < 0.5 {
                    unchanged += 1;
                } else {
                    out.push_str(&format!(
                        "    {name}: count {} -> {} ({:+}), total {} -> {} ({dur_delta_pct:+.1}%)\n",
                        x.count,
                        y.count,
                        y.count as i64 - x.count as i64,
                        fmt_us(x.dur_us),
                        fmt_us(y.dur_us),
                    ));
                }
            }
            (None, None) => unreachable!("name came from one of the maps"),
        }
    }
    if unchanged > 0 {
        out.push_str(&format!("    ({unchanged} span names unchanged)\n"));
    }

    out.push_str("nesting:\n");
    let mut same_pairs = 0usize;
    for pair in pairs_a.union(&pairs_b) {
        match (pairs_a.contains(pair), pairs_b.contains(pair)) {
            (true, false) => out.push_str(&format!(
                "  - {} > {} (only in {label_a})\n",
                pair.0, pair.1
            )),
            (false, true) => out.push_str(&format!(
                "  + {} > {} (only in {label_b})\n",
                pair.0, pair.1
            )),
            _ => same_pairs += 1,
        }
    }
    out.push_str(&format!("    ({same_pairs} nesting pairs in both)\n"));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_events(doc: &Value) -> &[Value] {
        match doc.get("traceEvents") {
            Some(Value::Array(a)) => a,
            _ => panic!("no traceEvents array"),
        }
    }

    #[test]
    fn nests_children_inside_their_admission_span() {
        let jsonl = concat!(
            r#"{"type":"br_compute","t":1.0,"cell":7,"req":1,"memo_hits":0,"recomputed":2,"br":3.0,"dur_ns":400}"#,
            "\n",
            r#"{"type":"admission","t":1.0,"cell":7,"req":1,"scheme":"AC3","admitted":true,"blocked_by_neighbor":null,"br":3.0,"dur_ns":1000}"#,
            "\n",
        );
        let doc = perfetto_trace(jsonl).unwrap();
        let events = trace_events(&doc);
        // process_name + thread_name + 2 spans.
        assert_eq!(events.len(), 4);
        let spans: Vec<&Value> = events
            .iter()
            .filter(|e| matches!(e.get("ph"), Some(Value::Str(p)) if p == "X"))
            .collect();
        assert_eq!(spans.len(), 2);
        let parent = spans
            .iter()
            .find(|s| matches!(s.get("cat"), Some(Value::Str(c)) if c == "admission"))
            .unwrap();
        let child = spans
            .iter()
            .find(|s| matches!(s.get("cat"), Some(Value::Str(c)) if c == "br_compute"))
            .unwrap();
        // Same synthetic track, same start, child no longer than parent.
        assert_eq!(parent.get("tid"), child.get("tid"));
        assert_eq!(parent.get("ts"), child.get("ts"));
        let (Some(Value::Float(pd)), Some(Value::Float(cd))) =
            (parent.get("dur"), child.get("dur"))
        else {
            panic!("durations must be numbers")
        };
        assert!(cd <= pd);
        // The document serializes (what the CLI writes to disk).
        assert!(doc.to_compact_string().starts_with('{'));
    }

    #[test]
    fn cursors_advance_per_cell_and_parent_stretches_to_cover_children() {
        let jsonl = concat!(
            r#"{"type":"br_compute","t":1.0,"cell":2,"req":1,"dur_ns":900}"#,
            "\n",
            r#"{"type":"admission","t":1.0,"cell":2,"req":1,"scheme":"AC1","admitted":true,"br":0.0,"dur_ns":500}"#,
            "\n",
            r#"{"type":"admission","t":2.0,"cell":2,"req":2,"scheme":"AC1","admitted":true,"br":0.0,"dur_ns":100}"#,
            "\n",
        );
        let doc = perfetto_trace(jsonl).unwrap();
        let admissions: Vec<&Value> = trace_events(&doc)
            .iter()
            .filter(|e| matches!(e.get("cat"), Some(Value::Str(c)) if c == "admission"))
            .collect();
        assert_eq!(admissions.len(), 2);
        // First parent stretched to its 900 ns child.
        assert_eq!(admissions[0].get("dur"), Some(&Value::Float(0.9)));
        // Second admission starts after span (900) + gap (1000) = 1.9 µs.
        assert_eq!(admissions[1].get("ts"), Some(&Value::Float(1.9)));
    }

    #[test]
    fn diff_traces_reports_counts_durations_and_nesting() {
        let a = perfetto_trace(concat!(
            r#"{"type":"br_compute","t":1.0,"cell":7,"req":1,"memo_hits":0,"recomputed":2,"br":3.0,"dur_ns":400}"#,
            "\n",
            r#"{"type":"admission","t":1.0,"cell":7,"req":1,"scheme":"AC3","admitted":true,"blocked_by_neighbor":null,"br":3.0,"dur_ns":1000}"#,
            "\n",
        ))
        .unwrap();
        let b = perfetto_trace(concat!(
            r#"{"type":"admission","t":1.0,"cell":7,"req":1,"scheme":"AC1","admitted":true,"blocked_by_neighbor":null,"br":3.0,"dur_ns":2000}"#,
            "\n",
            r#"{"type":"admission","t":2.0,"cell":7,"req":2,"scheme":"AC1","admitted":true,"blocked_by_neighbor":null,"br":3.0,"dur_ns":500}"#,
            "\n",
        ))
        .unwrap();
        let report = diff_traces(&a, &b, "a.json", "b.json").unwrap();
        assert!(report.contains("trace diff: a.json vs b.json"));
        assert!(report.contains("- admission AC3: only in a.json (count 1"));
        assert!(report.contains("+ admission AC1: only in b.json (count 2"));
        assert!(report.contains("- br_compute cell 7: only in a.json"));
        // The nesting pair from trace a has no counterpart in trace b.
        assert!(report.contains("- admission AC3 > br_compute cell 7 (only in a.json)"));
        // Same trace on both sides: everything unchanged, nothing listed.
        let same = diff_traces(&a, &a, "a.json", "a.json").unwrap();
        assert!(same.contains("span names unchanged"));
        assert!(!same.contains("only in"));
        // Non-trace documents are rejected with the offending side named.
        let err = diff_traces(&Value::Object(vec![]), &b, "x.json", "b.json").unwrap_err();
        assert!(err.contains("x.json"), "err: {err}");
    }
}
