//! Cross-run metrics diffing: compares two `obs.json` snapshots (same
//! scenario, two schemes — or the same scheme before/after an
//! optimization) metric by metric, for `qres obs diff`.

use qres_json::Value;

/// `doc` itself, if it is a snapshot (has a `counters` section).
fn snapshot_of(doc: &Value) -> Result<&Value, String> {
    match doc.get("counters") {
        Some(_) => Ok(doc),
        None => Err("not a snapshot (no `counters` section)".into()),
    }
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
/// per-histogram count/p99 movement, and per-cell QoS movement
/// (`p_hd`/`p_cb`/violation seconds). Metrics present in only one
/// snapshot are marked. `label_a` / `label_b` name the columns (usually
/// the file names).
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

/// A parsed `--fail-on` spec: a gate on the movement between two
/// snapshots, so CI can gate on it instead of grepping the rendered diff.
#[derive(Debug, Clone, PartialEq)]
pub struct FailOn(Vec<Clause>);

#[derive(Debug, Clone, PartialEq)]
enum Clause {
    /// `counters`: any counter delta at all.
    Counters,
    /// `qos`: any per-cell `p_hd`/`p_cb`/`violation_secs` movement.
    Qos,
    /// `NAME>X`: the named counter or gauge (absent values read as 0), or
    /// for `p_hd`/`p_cb`/`violation_secs` some cell's QoS field, moved by
    /// more than `threshold` (absolute delta; finite and `>= 0`).
    Moved { name: String, threshold: f64 },
}

impl FailOn {
    /// Parses a comma-separated list of clauses: `counters`, `qos`,
    /// `NAME>X`, `p_hd>X`, `p_cb>X`, `violation_secs>X`. A spec with no
    /// clause, an unknown clause, and a threshold that is not a finite
    /// number `>= 0` (one no delta could ever exceed, or one every delta
    /// does) are errors, so a gate cannot silently pass.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let clauses: Vec<Clause> = (spec.split(',').map(str::trim).filter(|c| !c.is_empty()))
            .map(|clause| match clause.split_once('>') {
                None => match clause {
                    "counters" => Ok(Clause::Counters),
                    "qos" => Ok(Clause::Qos),
                    other => Err(format!(
                        "unknown --fail-on clause `{other}` (expected `counters`, `qos`, \
                         or `NAME>THRESHOLD`)"
                    )),
                },
                Some((name, threshold)) => match threshold.trim().parse::<f64>() {
                    Ok(threshold) if threshold.is_finite() && threshold >= 0.0 => {
                        Ok(Clause::Moved {
                            name: name.trim().to_string(),
                            threshold,
                        })
                    }
                    _ => Err(format!(
                        "bad threshold in --fail-on clause `{clause}` \
                         (expected a finite number >= 0)"
                    )),
                },
            })
            .collect::<Result<_, _>>()?;
        if clauses.is_empty() {
            return Err("no --fail-on clause".into());
        }
        Ok(FailOn(clauses))
    }

    /// Evaluates the gate against two snapshots and returns the violated
    /// clauses (empty = gate passes).
    pub fn check(&self, a_doc: &Value, b_doc: &Value) -> Result<Vec<String>, String> {
        let a = snapshot_of(a_doc)?;
        let b = snapshot_of(b_doc)?;
        let mut violations = Vec::new();
        for clause in &self.0 {
            match clause {
                Clause::Counters => {
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
                Clause::Qos => {
                    for field in ["p_hd", "p_cb", "violation_secs"] {
                        for (cell, va, vb) in qos_field_deltas(a, b, field) {
                            if va != vb {
                                violations.push(format!("qos: cell {cell} {field} {va} -> {vb}"));
                            }
                        }
                    }
                }
                Clause::Moved { name, threshold } => {
                    if matches!(name.as_str(), "p_hd" | "p_cb" | "violation_secs") {
                        for (cell, va, vb) in qos_field_deltas(a, b, name) {
                            if (vb - va).abs() > *threshold {
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
                        if (vb - va).abs() > *threshold {
                            violations.push(format!("{name} {va} -> {vb} (|delta| > {threshold})"));
                        }
                    }
                }
            }
        }
        Ok(violations)
    }
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
            r#"{"counters":{"qres_x_total":150},
                "gauges":{"qres_g":4},
                "histograms":{"qres_h_ns":{"count":20,"p99":1200}}}"#,
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
    fn diffs_qos_section() {
        let a = Value::parse(
            r#"{"counters":{},"gauges":{},"histograms":{},
                "qos":{"window_secs":3600.0,"target_p_hd":0.01,
                  "cells":{"7":{"p_hd":0.0,"p_cb":0.1,"violation_secs":0.0},
                           "8":{"p_hd":0.0,"p_cb":0.0,"violation_secs":0.0}}}}"#,
        )
        .unwrap();
        let b = Value::parse(
            r#"{"counters":{},"gauges":{},"histograms":{},
                "qos":{"window_secs":3600.0,"target_p_hd":0.01,
                  "cells":{"7":{"p_hd":0.5,"p_cb":0.1,"violation_secs":120.0},
                           "8":{"p_hd":0.0,"p_cb":0.0,"violation_secs":0.0}}}}"#,
        )
        .unwrap();
        let report = diff_snapshots(&a, &b, "a.json", "b.json").unwrap();
        assert!(report.contains("qos (per cell):"), "{report}");
        assert!(report.contains("cell 7"), "{report}");
        assert!(report.contains("p_hd 0 -> 0.5"), "{report}");
        assert!(report.contains("violation_secs 0 -> 120"), "{report}");
        assert!(report.contains("(1 cells unchanged)"), "{report}");
        // Snapshots without the section (older artifacts) still diff.
        let old = snap(100, 1000);
        let report = diff_snapshots(&old, &old, "a", "b").unwrap();
        assert!(!report.contains("qos (per cell)"), "{report}");
    }

    #[test]
    fn rejects_non_snapshots() {
        let junk = Value::parse(r#"{"hello":1}"#).unwrap();
        assert!(diff_snapshots(&junk, &junk, "a", "b").is_err());
        let gate = FailOn::parse("counters").unwrap();
        assert!(gate.check(&junk, &junk).is_err());
        // A snapshot nested under another key is not one.
        let nested = Value::parse(r#"{"obs":{"counters":{}}}"#).unwrap();
        assert!(diff_snapshots(&nested, &nested, "a", "b").is_err());
    }

    #[test]
    fn fail_on_gates_counters_gauges_and_qos() {
        let a = Value::parse(
            r#"{"counters":{"qres_x_total":100},"gauges":{"qres_g":4},
                "qos":{"cells":{"7":{"p_hd":0.01,"p_cb":0.1,"violation_secs":0.0}}}}"#,
        )
        .unwrap();
        let b = Value::parse(
            r#"{"counters":{"qres_x_total":150},"gauges":{"qres_g":4},
                "qos":{"cells":{"7":{"p_hd":0.05,"p_cb":0.1,"violation_secs":0.0}}}}"#,
        )
        .unwrap();
        let check =
            |a: &Value, b: &Value, spec: &str| FailOn::parse(spec).unwrap().check(a, b).unwrap();
        // Identical snapshots pass every gate.
        assert_eq!(check(&a, &a, "counters,qos"), Vec::<String>::new());
        // Any-movement gates flag each moved entry once.
        let v = check(&a, &b, "counters");
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("qres_x_total"), "{v:?}");
        let v = check(&a, &b, "qos");
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("p_hd"), "{v:?}");
        // Named thresholds: within tolerance passes, beyond fails.
        assert!(check(&a, &b, "qres_x_total>60").is_empty());
        assert_eq!(check(&a, &b, "qres_x_total>10").len(), 1);
        // Gauges resolve through the same NAME>X clause.
        assert!(check(&a, &b, "qres_g>0").is_empty());
        // QoS field thresholds are per-cell absolute deltas.
        assert!(check(&a, &b, "p_hd>0.1").is_empty());
        assert_eq!(check(&a, &b, "p_hd>0.01").len(), 1);
        // Clauses compose; whitespace tolerated.
        let v = check(&a, &b, " counters , p_hd>0.01 ");
        assert_eq!(v.len(), 2, "{v:?}");
        // Malformed specs are errors, not silent passes.
        assert!(FailOn::parse("bogus").is_err());
        assert!(FailOn::parse("qres_x_total>abc").is_err());
    }

    /// A spec whose threshold no delta can exceed (NaN, infinity), one
    /// every delta exceeds (negative), or one with no clause at all would
    /// gate nothing: each is rejected, as is the removed `alerts` clause.
    #[test]
    fn fail_on_rejects_specs_that_never_trip() {
        for spec in [
            "p_hd>nan",
            "p_hd>inf",
            "qres_backbone_msgs_total>NaN",
            "counters>-1",
            "",
            ",",
            " , ",
            "alerts",
        ] {
            assert!(FailOn::parse(spec).is_err(), "`{spec}` must be rejected");
        }
        assert_eq!(
            FailOn::parse(" p_hd>0 ,"),
            Ok(FailOn(vec![Clause::Moved {
                name: "p_hd".into(),
                threshold: 0.0
            }]))
        );
    }
}
