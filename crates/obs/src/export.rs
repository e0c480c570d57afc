//! The JSON snapshot of a run's telemetry, written at the end of the run
//! as `obs.json`.

use std::path::Path;

use qres_json::Value;

use crate::metrics::{counters, gauges, histograms, HistogramSnapshot};

/// File name of the end-of-run document [`write_obs_json`] writes.
pub const OBS_JSON_PATH: &str = "obs.json";

/// Finishes the run's telemetry and writes `obs.json` to `path`.
///
/// Forecasts whose deadline passed by the last recorded sim-time are
/// settled as expired; later deadlines stay `pending` (censored by the
/// end of the run, not scored). The document is [`snapshot_json`].
pub fn write_obs_json(path: &Path) -> std::io::Result<()> {
    crate::calib::sweep_expired(crate::sim_time());
    std::fs::write(path, snapshot_json().to_pretty_string() + "\n")
}

/// The registry plus the `qos` and `flight` sections, the flight tape's
/// `records` included.
pub fn snapshot_json() -> Value {
    let counter_fields = counters()
        .iter()
        .map(|c| (c.name().to_string(), Value::UInt(c.get())))
        .collect();
    let gauge_fields = gauges()
        .iter()
        .map(|g| (g.name().to_string(), Value::UInt(g.get())))
        .collect();
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
        // Windowed P_HD/P_CB estimators, violation clocks, efficiency
        // integrals and Eq.-4 calibration.
        ("qos".to_string(), crate::qos::qos_json()),
        ("flight".to_string(), crate::flight::flight_json()),
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_json_shape() {
        let v = snapshot_json();
        let Value::Object(fields) = v else {
            panic!("snapshot must be an object")
        };
        let keys: Vec<_> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["counters", "gauges", "histograms", "qos", "flight"]);
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
