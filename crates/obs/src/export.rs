//! Exporters: Prometheus text exposition, a JSON snapshot for run
//! reports, and an in-repo exposition-format lint the tests run (no
//! external tooling available offline).

use qres_json::Value;

use crate::metrics::{counters, gauges, histograms, HistogramSnapshot};
use crate::recorder::sample_every;

/// Renders one histogram snapshot as exposition sample lines (no
/// `# HELP`/`# TYPE` header).
fn histogram_series(out: &mut String, s: &HistogramSnapshot) {
    let mut cumulative = 0u64;
    for &(lb, n) in &s.buckets {
        cumulative += n;
        // `le` is the bucket's upper bound: every sample in the bucket is
        // <= it, so the cumulative count up to and including this bucket
        // is exactly the count of samples <= that edge; the edges stay
        // stable and integral.
        out.push_str(&format!(
            "{}_bucket{{le=\"{}\"}} {}\n",
            s.name,
            crate::loglin::upper_bound(crate::loglin::bucket_index(lb)),
            cumulative
        ));
    }
    // Use the cumulative bucket total (not the count atomic) so a
    // snapshot taken while another thread records stays self-consistent.
    out.push_str(&format!(
        "{}_bucket{{le=\"+Inf\"}} {}\n",
        s.name, cumulative
    ));
    out.push_str(&format!("{}_sum {}\n", s.name, s.sum));
    out.push_str(&format!("{}_count {}\n", s.name, cumulative));
}

/// Renders the whole metrics registry in Prometheus text exposition
/// format (version 0.0.4): `# HELP`/`# TYPE` pairs, cumulative
/// `_bucket{le="..."}` series ending in `+Inf`, and `_sum`/`_count`.
pub fn prometheus_text() -> String {
    let mut out = String::new();
    for c in counters() {
        out.push_str(&format!("# HELP {} {}\n", c.name(), c.help()));
        out.push_str(&format!("# TYPE {} counter\n", c.name()));
        out.push_str(&format!("{} {}\n", c.name(), c.get()));
    }
    for g in gauges() {
        out.push_str(&format!("# HELP {} {}\n", g.name(), g.help()));
        out.push_str(&format!("# TYPE {} gauge\n", g.name()));
        out.push_str(&format!("{} {}\n", g.name(), g.get()));
    }
    // The debug-tier sampling rate, so scraped event rates can be
    // rescaled (a kept 1-in-N stream represents N times its count).
    out.push_str(&format!(
        "# HELP qres_obs_sample_rate 1-in-N sampling divisor applied to high-frequency debug events\n# TYPE qres_obs_sample_rate gauge\nqres_obs_sample_rate {}\n",
        sample_every()
    ));
    for h in histograms() {
        let s = h.snapshot();
        out.push_str(&format!("# HELP {} {}\n", s.name, s.help));
        out.push_str(&format!("# TYPE {} histogram\n", s.name));
        histogram_series(&mut out, &s);
    }
    // Model-quality families: live QoS estimators / efficiency integrals
    // (per-cell labelled series) and the Eq.-4 calibration summary.
    crate::qos::prometheus_fragment(&mut out);
    crate::calib::prometheus_fragment(&mut out);
    // SLO watchdog families: per-(rule, cell) alert state and per-rule
    // fired totals (empty until the watchdog transitions something).
    crate::alert::prometheus_fragment(&mut out);
    // Flight-recorder families: decision-record ring occupancy, eviction
    // total, and alert-triggered capture files written.
    crate::flight::prometheus_fragment(&mut out);
    out
}

/// A JSON object snapshot of the registry, merged into run reports by
/// `qres-sim` and printed by the `--obs` CLI path.
pub fn snapshot_json() -> Value {
    let counter_fields = counters()
        .iter()
        .map(|c| (c.name().to_string(), Value::UInt(c.get())))
        .collect();
    let mut gauge_fields: Vec<(String, Value)> = gauges()
        .iter()
        .map(|g| (g.name().to_string(), Value::UInt(g.get())))
        .collect();
    gauge_fields.push((
        "qres_obs_sample_rate".to_string(),
        Value::UInt(sample_every()),
    ));
    let histo_fields = histograms()
        .iter()
        .map(|h| {
            let s = h.snapshot();
            (h.name().to_string(), histogram_json(&s))
        })
        .collect();
    Value::Object(vec![
        ("counters".to_string(), Value::Object(counter_fields)),
        ("gauges".to_string(), Value::Object(gauge_fields)),
        ("histograms".to_string(), Value::Object(histo_fields)),
        // QoS-conformance view (windowed P_HD/P_CB estimators, violation
        // clocks, efficiency integrals, Eq.-4 calibration) — same document
        // the `/qos` route serves.
        ("qos".to_string(), crate::qos::qos_json()),
        // SLO watchdog view (burn-rate alert table, fired totals,
        // transition log) — same document the `/alerts` route serves.
        ("alerts".to_string(), crate::alert::alerts_json()),
        // Flight-recorder status (verdict/cause tallies, no record
        // bodies — those live in `obs_flight.json` and capture files).
        ("flight".to_string(), crate::flight::flight_summary_json()),
    ])
}

fn histogram_json(s: &HistogramSnapshot) -> Value {
    let q = |p: f64| match s.quantile(p) {
        Some(v) => Value::UInt(v),
        None => Value::Null,
    };
    Value::Object(vec![
        ("count".to_string(), Value::UInt(s.count)),
        ("sum".to_string(), Value::UInt(s.sum)),
        (
            "mean".to_string(),
            match s.mean() {
                Some(m) => Value::Float(m),
                None => Value::Null,
            },
        ),
        ("p50".to_string(), q(0.5)),
        ("p90".to_string(), q(0.9)),
        ("p99".to_string(), q(0.99)),
        ("max".to_string(), q(1.0)),
    ])
}

/// Per-series lint state for one histogram time series (one family ×
/// labelset-without-`le`).
struct SeriesState {
    family: String,
    /// Non-`le` labels, sorted and re-joined — the series key.
    label_key: String,
    last_le: f64,
    last_cumulative: u64,
    inf: Option<u64>,
}

/// Lints a Prometheus text exposition document.
///
/// Checks, per line: valid `# HELP` / `# TYPE` comments (known types
/// only), metric-name syntax, label syntax (quoted values, `\\`/`\"`/`\n`
/// escapes only), parsable sample values; and, per histogram *series*
/// (family × labelset without `le`): `le` edges strictly increasing
/// and cumulative counts non-decreasing, the series terminated by `+Inf`,
/// and the `+Inf` bucket equal to the matching `_count`. Returns the
/// first violation as `Err("line N: ...")`.
pub fn validate_prometheus_text(text: &str) -> Result<(), String> {
    let mut typed: Vec<(String, String)> = Vec::new(); // (family, type)
    let mut series: Vec<SeriesState> = Vec::new();
    let mut counts: Vec<(String, String, u64)> = Vec::new(); // (family, label key, value)

    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let keyword = parts.next().unwrap_or("");
            let name = parts.next().unwrap_or("");
            let payload = parts.next().unwrap_or("");
            match keyword {
                "HELP" => {
                    if !valid_metric_name(name) {
                        return Err(format!("line {n}: bad metric name in HELP: {name:?}"));
                    }
                    if payload.is_empty() {
                        return Err(format!("line {n}: HELP without text"));
                    }
                }
                "TYPE" => {
                    if !valid_metric_name(name) {
                        return Err(format!("line {n}: bad metric name in TYPE: {name:?}"));
                    }
                    if !matches!(payload, "counter" | "gauge" | "histogram" | "summary") {
                        return Err(format!("line {n}: unknown metric type {payload:?}"));
                    }
                    typed.push((name.to_string(), payload.to_string()));
                }
                _ => return Err(format!("line {n}: unknown comment keyword {keyword:?}")),
            }
            continue;
        }

        // Sample line: name[{labels}] value
        let (name_part, value_part) = match line.rsplit_once(' ') {
            Some(pair) => pair,
            None => return Err(format!("line {n}: sample line without value")),
        };
        let value: f64 = match value_part {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            v => v
                .parse()
                .map_err(|_| format!("line {n}: unparsable sample value {v:?}"))?,
        };
        let (name, labels) = match name_part.split_once('{') {
            Some((name, rest)) => {
                let labels = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {n}: unterminated label set"))?;
                (name, Some(labels))
            }
            None => (name_part, None),
        };
        if !valid_metric_name(name) {
            return Err(format!("line {n}: bad metric name {name:?}"));
        }
        let family = family_of(name);
        if !typed.iter().any(|(f, _)| f == family) {
            return Err(format!("line {n}: sample for {name:?} precedes its TYPE"));
        }

        let mut le: Option<f64> = None;
        let mut other_labels: Vec<String> = Vec::new();
        if let Some(labels) = labels {
            for pair in split_labels(labels).map_err(|e| format!("line {n}: {e}"))? {
                let (k, v) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("line {n}: malformed label {pair:?}"))?;
                let v = v
                    .strip_prefix('"')
                    .and_then(|v| v.strip_suffix('"'))
                    .ok_or_else(|| format!("line {n}: unquoted label value in {pair:?}"))?;
                validate_escapes(v).map_err(|e| format!("line {n}: {e}"))?;
                if k == "le" {
                    le = Some(if v == "+Inf" {
                        f64::INFINITY
                    } else {
                        v.parse()
                            .map_err(|_| format!("line {n}: unparsable le {v:?}"))?
                    });
                } else {
                    other_labels.push(pair.to_string());
                }
            }
        }
        other_labels.sort();
        let label_key = other_labels.join(",");

        if name.ends_with("_bucket") {
            let le = le.ok_or_else(|| format!("line {n}: histogram bucket without le"))?;
            let cumulative = value as u64;
            match series
                .iter_mut()
                .find(|s| s.family == family && s.label_key == label_key)
            {
                Some(s) => {
                    if le <= s.last_le {
                        return Err(format!(
                            "line {n}: le edges not increasing in {family}{{{label_key}}}"
                        ));
                    }
                    if cumulative < s.last_cumulative {
                        return Err(format!(
                            "line {n}: cumulative count decreased in {family}{{{label_key}}}"
                        ));
                    }
                    s.last_le = le;
                    s.last_cumulative = cumulative;
                    if le.is_infinite() {
                        s.inf = Some(cumulative);
                    }
                }
                None => series.push(SeriesState {
                    family: family.to_string(),
                    label_key,
                    last_le: le,
                    last_cumulative: cumulative,
                    inf: le.is_infinite().then_some(cumulative),
                }),
            }
        } else if let Some(fam) = name.strip_suffix("_count") {
            counts.push((fam.to_string(), label_key, value as u64));
        }
    }
    for s in &series {
        let inf = s.inf.ok_or_else(|| {
            format!(
                "histogram {}{{{}}} has no +Inf bucket",
                s.family, s.label_key
            )
        })?;
        if let Some((_, _, c)) = counts
            .iter()
            .find(|(f, k, _)| *f == s.family && *k == s.label_key)
        {
            if *c != inf {
                return Err(format!(
                    "histogram {}{{{}}}: +Inf bucket {inf} != _count {c}",
                    s.family, s.label_key
                ));
            }
        }
    }
    Ok(())
}

/// Splits a label body on commas that are outside quoted values (label
/// values may contain escaped quotes, never raw commas-in-quotes issues —
/// but be safe: a `,` inside `"` belongs to the value).
fn split_labels(labels: &str) -> Result<Vec<&str>, String> {
    let mut out = Vec::new();
    let mut start = 0;
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, c) in labels.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_quotes => escaped = true,
            '"' => in_quotes = !in_quotes,
            ',' if !in_quotes => {
                if i > start {
                    out.push(&labels[start..i]);
                }
                start = i + 1;
            }
            _ => {}
        }
    }
    if in_quotes {
        return Err("unterminated quoted label value".to_string());
    }
    if start < labels.len() {
        out.push(&labels[start..]);
    }
    Ok(out)
}

/// Rejects raw control characters and stray backslash escapes in a label
/// value (only `\\`, `\"`, and `\n` are legal escapes).
fn validate_escapes(v: &str) -> Result<(), String> {
    let mut chars = v.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => match chars.next() {
                Some('\\') | Some('"') | Some('n') => {}
                other => return Err(format!("bad escape \\{:?} in label value", other)),
            },
            '\n' | '\r' => return Err("raw newline in label value".to_string()),
            _ => {}
        }
    }
    Ok(())
}

fn family_of(name: &str) -> &str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(stripped) = name.strip_suffix(suffix) {
            return stripped;
        }
    }
    name
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ADMISSION_TEST_NS;

    #[test]
    fn exposition_passes_own_lint() {
        // Other obs tests may bump counters concurrently; recording here
        // only makes the document richer, never invalid.
        ADMISSION_TEST_NS.record(100);
        ADMISSION_TEST_NS.record(5_000);
        let text = prometheus_text();
        assert!(text.contains("# TYPE qres_admission_test_ns histogram"));
        assert!(text.contains("# TYPE qres_br_compute_ns histogram"));
        assert!(text.contains("qres_backbone_msgs_total"));
        assert!(text.contains("qres_obs_sample_rate"));
        assert!(text.contains("le=\"+Inf\""));
        assert!(
            !text.contains("_ns_bucket{cell="),
            "timing series carry no cell label"
        );
        validate_prometheus_text(&text).expect("own exposition must lint clean");
    }

    #[test]
    fn empty_histogram_renders_a_valid_zero_series() {
        // A histogram with no samples (a metric whose code path never ran)
        // must still render a complete, lintable series: bare `+Inf`
        // bucket, zero `_sum`/`_count`.
        let empty = HistogramSnapshot {
            name: "qres_test_empty_ns",
            help: "test",
            buckets: Vec::new(),
            sum: 0,
            count: 0,
        };
        let mut doc =
            String::from("# HELP qres_test_empty_ns test\n# TYPE qres_test_empty_ns histogram\n");
        histogram_series(&mut doc, &empty);
        assert!(doc.contains("le=\"+Inf\"} 0\n"));
        validate_prometheus_text(&doc).expect("empty series must lint clean");
    }

    #[test]
    fn lint_rejects_malformed_documents() {
        assert!(validate_prometheus_text("метрика 1\n").is_err());
        assert!(validate_prometheus_text("# FOO x y\n").is_err());
        assert!(validate_prometheus_text("x_total 1\n").is_err(), "no TYPE");
        let missing_inf =
            "# HELP h h\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n";
        assert!(validate_prometheus_text(missing_inf).is_err());
        let bad_order = "# HELP h h\n# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n";
        assert!(validate_prometheus_text(bad_order).is_err());
        let count_mismatch =
            "# HELP h h\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n";
        assert!(validate_prometheus_text(count_mismatch).is_err());
        let good = "# HELP h h\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 2\n";
        validate_prometheus_text(good).unwrap();
    }

    #[test]
    fn lint_tracks_labeled_series_independently() {
        // Two cell series plus the unlabeled global of one family, each
        // with its own le ladder and _count: all must validate.
        let doc = "\
# HELP h h
# TYPE h histogram
h_bucket{le=\"1\"} 1
h_bucket{le=\"+Inf\"} 2
h_sum 3
h_count 2
h_bucket{cell=\"0\",le=\"1\"} 1
h_bucket{cell=\"0\",le=\"+Inf\"} 1
h_sum{cell=\"0\"} 1
h_count{cell=\"0\"} 1
h_bucket{cell=\"3\",le=\"4\"} 1
h_bucket{cell=\"3\",le=\"+Inf\"} 1
h_sum{cell=\"3\"} 2
h_count{cell=\"3\"} 1
";
        validate_prometheus_text(doc).unwrap();
        // A per-cell +Inf/_count mismatch is caught per series.
        let bad = doc.replace("h_count{cell=\"3\"} 1", "h_count{cell=\"3\"} 9");
        assert!(validate_prometheus_text(&bad)
            .unwrap_err()
            .contains("cell=\"3\""));
    }

    #[test]
    fn label_value_escapes_lint() {
        let doc = "# HELP h h\n# TYPE h gauge\nh{k=\"quote\\\" slash\\\\ line\\nend\"} 1\n";
        validate_prometheus_text(doc).unwrap();
        // Raw (unescaped) backslash before a non-escape char is rejected.
        assert!(validate_prometheus_text("# HELP h h\n# TYPE h gauge\nh{k=\"a\\z\"} 1\n").is_err());
    }

    #[test]
    fn snapshot_json_shape() {
        let v = snapshot_json();
        let Value::Object(fields) = v else {
            panic!("snapshot must be an object")
        };
        let keys: Vec<_> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "counters",
                "gauges",
                "histograms",
                "qos",
                "alerts",
                "flight"
            ]
        );
        let Some((_, Value::Object(histos))) = fields.iter().find(|(k, _)| k == "histograms")
        else {
            panic!("no histograms section")
        };
        let Some((_, Value::Object(adm))) =
            histos.iter().find(|(k, _)| k == "qres_admission_test_ns")
        else {
            panic!("no admission histogram")
        };
        assert!(!adm.iter().any(|(k, _)| k == "cells"));
    }
}
