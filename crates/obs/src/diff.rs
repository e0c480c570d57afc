//! Cross-run metrics diffing: compares two `/metrics.json` snapshots
//! (same scenario, two schemes — or the same scheme before/after an
//! optimization) metric by metric, for `qres obs diff`.
//!
//! Accepts either a bare snapshot document (`{"counters":...}`) or a run
//! report embedding one under an `"obs"` key (`qres run --json --obs`),
//! so both scrape artifacts and report files diff directly.

use qres_json::Value;

/// Locates the metrics snapshot inside `doc`: the document itself, or its
/// `"obs"` sub-object (run reports embed the snapshot there).
fn snapshot_of(doc: &Value) -> Result<&Value, String> {
    if doc.get("counters").is_some() {
        return Ok(doc);
    }
    if let Some(obs) = doc.get("obs") {
        if obs.get("counters").is_some() {
            return Ok(obs);
        }
    }
    Err("not a metrics snapshot (no `counters` section, bare or under `obs`)".into())
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Int(n) => Some(*n as f64),
        Value::UInt(n) => Some(*n as f64),
        Value::Float(x) => Some(*x),
        _ => None,
    }
}

/// Union of keys of two JSON objects, in first-then-second order.
fn union_keys<'a>(a: &'a Value, b: &'a Value) -> Vec<&'a str> {
    let mut keys: Vec<&str> = Vec::new();
    for v in [a, b] {
        if let Value::Object(fields) = v {
            for (k, _) in fields {
                if !keys.contains(&k.as_str()) {
                    keys.push(k);
                }
            }
        }
    }
    keys
}

fn fmt_delta(a: f64, b: f64) -> String {
    let delta = b - a;
    if a != 0.0 {
        format!("{delta:+} ({:+.1}%)", delta / a * 100.0)
    } else {
        format!("{delta:+}")
    }
}

/// Renders a per-metric diff of two snapshots: counter and gauge deltas,
/// per-histogram count/p99 movement, per-cell QoS movement
/// (`p_hd`/`p_cb`/violation seconds), and the SLO watchdog's fired-counts
/// and transition tallies. Metrics present in only one snapshot are
/// marked. `label_a` / `label_b` name the columns (usually the file names).
pub fn diff_snapshots(
    a_doc: &Value,
    b_doc: &Value,
    label_a: &str,
    label_b: &str,
) -> Result<String, String> {
    use std::fmt::Write as _;
    let a = snapshot_of(a_doc)?;
    let b = snapshot_of(b_doc)?;

    let mut out = String::new();
    let _ = writeln!(out, "A = {label_a}");
    let _ = writeln!(out, "B = {label_b}");

    for section in ["counters", "gauges"] {
        let (sa, sb) = (a.get(section), b.get(section));
        let (Some(sa), Some(sb)) = (sa, sb) else {
            continue;
        };
        let _ = writeln!(out, "\n{section}:");
        let mut unchanged = 0u32;
        for key in union_keys(sa, sb) {
            match (sa.get(key).and_then(as_f64), sb.get(key).and_then(as_f64)) {
                (Some(va), Some(vb)) if va == vb => unchanged += 1,
                (Some(va), Some(vb)) => {
                    let _ = writeln!(
                        out,
                        "  {key:<44} {va:>14} -> {vb:<14} {}",
                        fmt_delta(va, vb)
                    );
                }
                (Some(va), None) => {
                    let _ = writeln!(out, "  {key:<44} {va:>14} -> (absent)");
                }
                (None, Some(vb)) => {
                    let _ = writeln!(out, "  {key:<44}       (absent) -> {vb}");
                }
                (None, None) => {}
            }
        }
        if unchanged > 0 {
            let _ = writeln!(out, "  ({unchanged} unchanged)");
        }
    }

    if let (Some(ha), Some(hb)) = (a.get("histograms"), b.get("histograms")) {
        let _ = writeln!(out, "\nhistograms (count, p99 ns):");
        for key in union_keys(ha, hb) {
            let (ma, mb) = (ha.get(key), hb.get(key));
            let stat = |m: Option<&Value>, field: &str| -> Option<f64> {
                m.and_then(|m| m.get(field)).and_then(as_f64)
            };
            let (ca, cb) = (stat(ma, "count"), stat(mb, "count"));
            let (pa, pb) = (stat(ma, "p99"), stat(mb, "p99"));
            let fmt_pair = |x: Option<f64>, y: Option<f64>| match (x, y) {
                (Some(x), Some(y)) => format!("{x} -> {y} [{}]", fmt_delta(x, y)),
                (Some(x), None) => format!("{x} -> (absent)"),
                (None, Some(y)) => format!("(absent) -> {y}"),
                (None, None) => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "  {key:<34} count {}  p99 {}",
                fmt_pair(ca, cb),
                fmt_pair(pa, pb)
            );
        }
    }

    diff_qos(&mut out, a.get("qos"), b.get("qos"));
    diff_alerts(&mut out, a.get("alerts"), b.get("alerts"));
    Ok(out)
}

/// Per-cell movement of the QoS-conformance section: `p_hd`, `p_cb`, and
/// the violation clock. Cells identical in both snapshots are folded into
/// an unchanged count; snapshots without a `qos` section skip silently
/// (older artifacts).
fn diff_qos(out: &mut String, a: Option<&Value>, b: Option<&Value>) {
    use std::fmt::Write as _;
    let (Some(ca), Some(cb)) = (
        a.and_then(|s| s.get("cells")),
        b.and_then(|s| s.get("cells")),
    ) else {
        return;
    };
    let _ = writeln!(out, "\nqos (per cell):");
    let mut unchanged = 0u32;
    for cell in union_keys(ca, cb) {
        let stat = |side: &Value, field: &str| -> Option<f64> {
            side.get(cell).and_then(|c| c.get(field)).and_then(as_f64)
        };
        let fields = ["p_hd", "p_cb", "violation_secs"];
        let mut moved = Vec::new();
        for field in fields {
            let (va, vb) = (stat(ca, field), stat(cb, field));
            if va != vb {
                let pair = match (va, vb) {
                    (Some(x), Some(y)) => format!("{field} {x} -> {y} [{}]", fmt_delta(x, y)),
                    (Some(x), None) => format!("{field} {x} -> (absent)"),
                    (None, Some(y)) => format!("{field} (absent) -> {y}"),
                    (None, None) => continue,
                };
                moved.push(pair);
            }
        }
        if moved.is_empty() {
            unchanged += 1;
        } else {
            let _ = writeln!(out, "  cell {cell:<10} {}", moved.join("  "));
        }
    }
    if unchanged > 0 {
        let _ = writeln!(out, "  ({unchanged} cells unchanged)");
    }
}

/// Movement of the SLO watchdog section: per-rule fired-count deltas and
/// the transition tally per `(rule, state)`. Snapshots without an
/// `alerts` section skip silently (older artifacts).
fn diff_alerts(out: &mut String, a: Option<&Value>, b: Option<&Value>) {
    use std::fmt::Write as _;
    let (Some(a), Some(b)) = (a, b) else {
        return;
    };
    let (Some(fa), Some(fb)) = (a.get("fired_total"), b.get("fired_total")) else {
        return;
    };
    let _ = writeln!(out, "\nalerts (fired_total):");
    let mut unchanged = 0u32;
    for rule in union_keys(fa, fb) {
        let (va, vb) = (
            fa.get(rule).and_then(as_f64).unwrap_or(0.0),
            fb.get(rule).and_then(as_f64).unwrap_or(0.0),
        );
        if va == vb {
            unchanged += 1;
        } else {
            let _ = writeln!(out, "  {rule:<20} {va} -> {vb} {}", fmt_delta(va, vb));
        }
    }
    if unchanged > 0 {
        let _ = writeln!(out, "  ({unchanged} unchanged)");
    }

    // Transition tallies per (rule, state): how often each rule went
    // pending/firing/resolved in each snapshot's retained log.
    let tally = |side: &Value| -> Vec<(String, f64)> {
        let mut rows: Vec<(String, f64)> = Vec::new();
        if let Some(Value::Array(transitions)) = side.get("transitions") {
            for tr in transitions {
                let (Some(Value::Str(rule)), Some(Value::Str(state))) =
                    (tr.get("rule"), tr.get("state"))
                else {
                    continue;
                };
                let key = format!("{rule}:{state}");
                match rows.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, n)) => *n += 1.0,
                    None => rows.push((key, 1.0)),
                }
            }
        }
        rows
    };
    let (ta, tb) = (tally(a), tally(b));
    let mut keys: Vec<&str> = ta.iter().map(|(k, _)| k.as_str()).collect();
    for (k, _) in &tb {
        if !keys.contains(&k.as_str()) {
            keys.push(k);
        }
    }
    if !keys.is_empty() {
        let _ = writeln!(out, "alerts (transitions by rule:state):");
        for key in keys {
            let of = |rows: &[(String, f64)]| {
                rows.iter()
                    .find(|(k, _)| k == key)
                    .map(|&(_, n)| n)
                    .unwrap_or(0.0)
            };
            let (va, vb) = (of(&ta), of(&tb));
            if va == vb {
                let _ = writeln!(out, "  {key:<30} {va} (unchanged)");
            } else {
                let _ = writeln!(out, "  {key:<30} {va} -> {vb} {}", fmt_delta(va, vb));
            }
        }
    }
}

/// Evaluates a `--fail-on` threshold spec against two snapshots and
/// returns the violated clauses (empty = gate passes), so CI can gate on
/// snapshot movement instead of grepping the rendered diff.
///
/// `spec` is a comma-separated list of clauses:
///
/// * `counters` — any counter delta at all;
/// * `qos` — any per-cell `p_hd`/`p_cb`/`violation_secs` movement;
/// * `alerts` — any per-rule `fired_total` delta;
/// * `NAME>X` — the named counter/gauge moved by more than `X`
///   (absolute delta, absent values read as 0);
/// * `p_hd>X` / `p_cb>X` / `violation_secs>X` — some cell's QoS field
///   moved by more than `X`.
pub fn check_fail_on(a_doc: &Value, b_doc: &Value, spec: &str) -> Result<Vec<String>, String> {
    let a = snapshot_of(a_doc)?;
    let b = snapshot_of(b_doc)?;
    let mut violations = Vec::new();
    for clause in spec.split(',').map(str::trim).filter(|c| !c.is_empty()) {
        match clause.split_once('>') {
            None => match clause {
                "counters" => {
                    let (sa, sb) = (a.get("counters"), b.get("counters"));
                    let (Some(sa), Some(sb)) = (sa, sb) else {
                        return Err("no `counters` section to gate on".into());
                    };
                    for key in union_keys(sa, sb) {
                        let va = sa.get(key).and_then(as_f64).unwrap_or(0.0);
                        let vb = sb.get(key).and_then(as_f64).unwrap_or(0.0);
                        if va != vb {
                            violations.push(format!("counters: {key} {va} -> {vb}"));
                        }
                    }
                }
                "qos" => {
                    for field in ["p_hd", "p_cb", "violation_secs"] {
                        for (cell, va, vb) in qos_field_deltas(a, b, field) {
                            if va != vb {
                                violations.push(format!("qos: cell {cell} {field} {va} -> {vb}"));
                            }
                        }
                    }
                }
                "alerts" => {
                    let (fa, fb) = (
                        a.get("alerts").and_then(|s| s.get("fired_total")),
                        b.get("alerts").and_then(|s| s.get("fired_total")),
                    );
                    let (Some(fa), Some(fb)) = (fa, fb) else {
                        return Err("no `alerts` section to gate on".into());
                    };
                    for rule in union_keys(fa, fb) {
                        let va = fa.get(rule).and_then(as_f64).unwrap_or(0.0);
                        let vb = fb.get(rule).and_then(as_f64).unwrap_or(0.0);
                        if va != vb {
                            violations.push(format!("alerts: {rule} fired {va} -> {vb}"));
                        }
                    }
                }
                other => {
                    return Err(format!(
                        "unknown --fail-on clause `{other}` (expected `counters`, `qos`, \
                         `alerts`, or `NAME>THRESHOLD`)"
                    ));
                }
            },
            Some((name, threshold)) => {
                let name = name.trim();
                let threshold: f64 = threshold
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad threshold in --fail-on clause `{clause}`"))?;
                if matches!(name, "p_hd" | "p_cb" | "violation_secs") {
                    for (cell, va, vb) in qos_field_deltas(a, b, name) {
                        if (vb - va).abs() > threshold {
                            violations.push(format!(
                                "qos: cell {cell} {name} {va} -> {vb} (|delta| > {threshold})"
                            ));
                        }
                    }
                } else {
                    let lookup = |side: &Value| {
                        ["counters", "gauges"]
                            .iter()
                            .find_map(|s| side.get(s).and_then(|s| s.get(name)))
                            .and_then(as_f64)
                            .unwrap_or(0.0)
                    };
                    let (va, vb) = (lookup(a), lookup(b));
                    if (vb - va).abs() > threshold {
                        violations.push(format!("{name} {va} -> {vb} (|delta| > {threshold})"));
                    }
                }
            }
        }
    }
    Ok(violations)
}

/// Per-cell `(cell, a_value, b_value)` rows of one QoS field, absent
/// values read as 0 (a cell present on one side only still gates).
fn qos_field_deltas(a: &Value, b: &Value, field: &str) -> Vec<(String, f64, f64)> {
    let (ca, cb) = (
        a.get("qos").and_then(|s| s.get("cells")),
        b.get("qos").and_then(|s| s.get("cells")),
    );
    let (Some(ca), Some(cb)) = (ca, cb) else {
        return Vec::new();
    };
    union_keys(ca, cb)
        .into_iter()
        .map(|cell| {
            let of = |side: &Value| {
                side.get(cell)
                    .and_then(|c| c.get(field))
                    .and_then(as_f64)
                    .unwrap_or(0.0)
            };
            (cell.to_string(), of(ca), of(cb))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(counter: u64, p99: u64) -> Value {
        Value::parse(&format!(
            r#"{{"counters":{{"qres_x_total":{counter},"qres_only_a_total":1}},
                "gauges":{{"qres_g":4}},
                "histograms":{{"qres_h_ns":{{"count":10,"p99":{p99}}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn diffs_counters_and_p99() {
        let a = snap(100, 1000);
        let b = Value::parse(
            r#"{"obs":{"counters":{"qres_x_total":150},
                "gauges":{"qres_g":4},
                "histograms":{"qres_h_ns":{"count":20,"p99":1200}}}}"#,
        )
        .unwrap();
        let report = diff_snapshots(&a, &b, "a.json", "b.json").unwrap();
        assert!(report.contains("qres_x_total"));
        assert!(report.contains("+50"));
        assert!(report.contains("+50.0%"));
        assert!(report.contains("(absent)"), "{report}");
        assert!(report.contains("p99 1000 -> 1200"));
        assert!(report.contains("(1 unchanged)"), "{report}");
    }

    #[test]
    fn diffs_qos_and_alert_sections() {
        let a = Value::parse(
            r#"{"counters":{},"gauges":{},"histograms":{},
                "qos":{"window_secs":3600.0,"target_p_hd":0.01,
                  "cells":{"7":{"p_hd":0.0,"p_cb":0.1,"violation_secs":0.0},
                           "8":{"p_hd":0.0,"p_cb":0.0,"violation_secs":0.0}}},
                "alerts":{"fired_total":{"p_hd_burn":0,"push_errors":0},
                  "alerts":[],"transitions":[]}}"#,
        )
        .unwrap();
        let b = Value::parse(
            r#"{"counters":{},"gauges":{},"histograms":{},
                "qos":{"window_secs":3600.0,"target_p_hd":0.01,
                  "cells":{"7":{"p_hd":0.5,"p_cb":0.1,"violation_secs":120.0},
                           "8":{"p_hd":0.0,"p_cb":0.0,"violation_secs":0.0}}},
                "alerts":{"fired_total":{"p_hd_burn":2,"push_errors":0},
                  "alerts":[{"rule":"p_hd_burn","cell":"7","state":"resolved"}],
                  "transitions":[
                    {"t":60.0,"rule":"p_hd_burn","cell":"7","state":"pending"},
                    {"t":60.0,"rule":"p_hd_burn","cell":"7","state":"firing"},
                    {"t":300.0,"rule":"p_hd_burn","cell":"7","state":"resolved"}]}}"#,
        )
        .unwrap();
        let report = diff_snapshots(&a, &b, "a.json", "b.json").unwrap();
        assert!(report.contains("qos (per cell):"), "{report}");
        assert!(report.contains("cell 7"), "{report}");
        assert!(report.contains("p_hd 0 -> 0.5"), "{report}");
        assert!(report.contains("violation_secs 0 -> 120"), "{report}");
        assert!(report.contains("(1 cells unchanged)"), "{report}");
        assert!(report.contains("alerts (fired_total):"), "{report}");
        assert!(
            report.contains("alerts (transitions by rule:state):"),
            "{report}"
        );
        assert!(report.contains("p_hd_burn:firing"), "{report}");
        assert!(report.contains("0 -> 2"), "{report}");
        assert!(report.contains("0 -> 1"), "{report}");
        // Snapshots without the new sections (older artifacts) still diff.
        let old = snap(100, 1000);
        let report = diff_snapshots(&old, &old, "a", "b").unwrap();
        assert!(!report.contains("qos (per cell)"), "{report}");
        assert!(!report.contains("alerts (fired_total)"), "{report}");
    }

    #[test]
    fn rejects_non_snapshots() {
        let junk = Value::parse(r#"{"hello":1}"#).unwrap();
        assert!(diff_snapshots(&junk, &junk, "a", "b").is_err());
        assert!(check_fail_on(&junk, &junk, "counters").is_err());
    }

    #[test]
    fn fail_on_gates_counters_gauges_and_qos() {
        let a = Value::parse(
            r#"{"counters":{"qres_x_total":100},"gauges":{"qres_g":4},
                "qos":{"cells":{"7":{"p_hd":0.01,"p_cb":0.1,"violation_secs":0.0}}},
                "alerts":{"fired_total":{"p_hd_burn":0},"alerts":[],"transitions":[]}}"#,
        )
        .unwrap();
        let b = Value::parse(
            r#"{"counters":{"qres_x_total":150},"gauges":{"qres_g":4},
                "qos":{"cells":{"7":{"p_hd":0.05,"p_cb":0.1,"violation_secs":0.0}}},
                "alerts":{"fired_total":{"p_hd_burn":2},"alerts":[],"transitions":[]}}"#,
        )
        .unwrap();
        // Identical snapshots pass every gate.
        assert_eq!(
            check_fail_on(&a, &a, "counters,qos,alerts").unwrap(),
            Vec::<String>::new()
        );
        // Any-movement gates flag each moved entry once.
        let v = check_fail_on(&a, &b, "counters").unwrap();
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("qres_x_total"), "{v:?}");
        let v = check_fail_on(&a, &b, "qos").unwrap();
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("p_hd"), "{v:?}");
        let v = check_fail_on(&a, &b, "alerts").unwrap();
        assert_eq!(v.len(), 1, "{v:?}");
        // Named thresholds: within tolerance passes, beyond fails.
        assert!(check_fail_on(&a, &b, "qres_x_total>60").unwrap().is_empty());
        assert_eq!(check_fail_on(&a, &b, "qres_x_total>10").unwrap().len(), 1);
        // Gauges resolve through the same NAME>X clause.
        assert!(check_fail_on(&a, &b, "qres_g>0").unwrap().is_empty());
        // QoS field thresholds are per-cell absolute deltas.
        assert!(check_fail_on(&a, &b, "p_hd>0.1").unwrap().is_empty());
        assert_eq!(check_fail_on(&a, &b, "p_hd>0.01").unwrap().len(), 1);
        // Clauses compose; whitespace tolerated.
        let v = check_fail_on(&a, &b, " counters , p_hd>0.01 ").unwrap();
        assert_eq!(v.len(), 2, "{v:?}");
        // Malformed specs are errors, not silent passes.
        assert!(check_fail_on(&a, &b, "bogus").is_err());
        assert!(check_fail_on(&a, &b, "qres_x_total>abc").is_err());
    }
}
