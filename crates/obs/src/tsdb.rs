//! In-process metric retention: a zero-dependency ring-buffer time-series
//! store sampled on the *simulation* clock, so the SLO watchdog
//! ([`crate::alert`]) has history to compute burn rates over and
//! `qres obstop` has something to draw.
//!
//! At every watchdog tick (driven by the DES driver every 10 sim-seconds,
//! see `qres-sim`) the store samples a fixed family set — the per-cell QoS
//! estimators and efficiency integrals from [`crate::qos`] and a handful
//! of registry globals — into bounded [`VecDeque`] series: one point per
//! [`sample cadence`](DEFAULT_SAMPLE_SECS), at most
//! [`DEFAULT_RETENTION_POINTS`] points per series (~2 simulated hours at
//! the default cadence), and at most [`DEFAULT_CELL_SERIES`] per-cell
//! series per family with the excess folded into an `other` series — the
//! same bounded-attribution discipline as
//! [`ShardedHistogram`](crate::metrics::ShardedHistogram).
//!
//! Timestamps are quantized to the cadence grid and all values derive from
//! the deterministic event stream, so the stored series — and everything
//! the alert engine derives from them — are bit-identical across reruns.
//! Nothing here feeds back into the simulation:
//! watchdog on/off runs produce identical sim outputs.
//!
//! Queryable live at `GET /query?metric=...&cell=...`
//! ([`crate::serve::ObsServer`]) and rendered as unicode sparklines by
//! `qres obstop` ([`render_obstop`]).

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use qres_json::Value;

/// Default sampling cadence, in simulated seconds.
pub const DEFAULT_SAMPLE_SECS: f64 = 60.0;

/// Maximum retained points per series (~2 simulated hours at the default
/// cadence); older points fall off the front of the ring.
pub const DEFAULT_RETENTION_POINTS: usize = 120;

/// Maximum per-cell series per metric family; cells beyond the cap fold
/// into a single `other` series (per-tick max across the folded cells).
pub const DEFAULT_CELL_SERIES: usize = 64;

/// Series entity id for a global (unlabelled) series.
const ENTITY_GLOBAL: i64 = -1;
/// Series entity id for the fold of cells beyond the per-family cap.
const ENTITY_OTHER: i64 = i64::MAX;

/// One bounded time series: `(sim-time, value)` points in record order.
#[derive(Debug, Default)]
struct Series {
    points: VecDeque<(f64, f64)>,
}

/// The retention store: per-family entity-keyed series plus the sampling
/// schedule. Entities are cell ids, `-1` for globals, `i64::MAX` for the
/// fold.
#[derive(Debug)]
struct TsdbState {
    sample_secs: f64,
    retention_points: usize,
    cell_series_cap: usize,
    /// Next cadence boundary at which a sample is due.
    next_sample: f64,
    /// Samples taken since the last reset.
    samples: u64,
    families: BTreeMap<&'static str, BTreeMap<i64, Series>>,
}

impl TsdbState {
    fn new() -> Self {
        TsdbState {
            sample_secs: DEFAULT_SAMPLE_SECS,
            retention_points: DEFAULT_RETENTION_POINTS,
            cell_series_cap: DEFAULT_CELL_SERIES,
            next_sample: DEFAULT_SAMPLE_SECS,
            samples: 0,
            families: BTreeMap::new(),
        }
    }

    /// Appends one point, enforcing the per-family cell cap (fold into
    /// `other`, keeping the per-tick max) and the retention bound.
    fn push(&mut self, metric: &'static str, entity: i64, t: f64, v: f64) {
        let retention = self.retention_points;
        let cap = self.cell_series_cap;
        let family = self.families.entry(metric).or_default();
        let entity = if entity >= 0
            && entity != ENTITY_OTHER
            && !family.contains_key(&entity)
            && family
                .keys()
                .filter(|&&e| e >= 0 && e != ENTITY_OTHER)
                .count()
                >= cap
        {
            ENTITY_OTHER
        } else {
            entity
        };
        let series = family.entry(entity).or_default();
        match series.points.back_mut() {
            // Folded cells land on the same tick: keep the worst (max).
            Some(last) if entity == ENTITY_OTHER && last.0 == t => last.1 = last.1.max(v),
            _ => {
                series.points.push_back((t, v));
                while series.points.len() > retention {
                    series.points.pop_front();
                }
            }
        }
    }
}

static TSDB: Mutex<Option<TsdbState>> = Mutex::new(None);

fn with_state<R>(f: impl FnOnce(&mut TsdbState) -> R) -> R {
    let mut guard = TSDB.lock().unwrap();
    f(guard.get_or_insert_with(TsdbState::new))
}

/// Whether the SLO watchdog (tsdb sampling + alert evaluation) runs on
/// the driver's ticks. On by default; telemetry must also be enabled for the
/// engine to tick it at all.
static WATCHDOG_ON: AtomicBool = AtomicBool::new(true);

/// Enables or disables the SLO watchdog tick (sampling + alerting).
pub fn set_watchdog_enabled(on: bool) {
    WATCHDOG_ON.store(on, Ordering::Relaxed);
}

/// Whether the SLO watchdog is enabled.
pub fn watchdog_enabled() -> bool {
    WATCHDOG_ON.load(Ordering::Relaxed)
}

/// Sets the sampling cadence (simulated seconds, floored at 1). The
/// schedule restarts: the next watchdog tick samples immediately.
pub fn set_tsdb_sample_secs(secs: f64) {
    with_state(|s| {
        s.sample_secs = secs.max(1.0);
        s.next_sample = 0.0;
    });
}

/// Current sampling cadence (simulated seconds).
pub fn tsdb_sample_secs() -> f64 {
    with_state(|s| s.sample_secs)
}

/// The SLO watchdog tick, called by the DES driver every 10 sim-seconds
/// (telemetry on only). Takes a retention sample when a cadence boundary
/// has been crossed and, when it did, evaluates the alert rules on the
/// fresh window — both on the sim clock, so watchdog output is
/// deterministic across reruns.
pub fn watchdog_tick(now: f64) {
    if !watchdog_enabled() {
        return;
    }
    if maybe_sample(now) {
        crate::alert::evaluate(now);
    }
}

/// Samples every registered family if `now` has crossed the next cadence
/// boundary (timestamps quantized to the grid); returns whether a sample
/// was taken. A sim clock that restarted (a new run in the same process)
/// re-arms the schedule instead of waiting forever.
pub fn maybe_sample(now: f64) -> bool {
    let due = with_state(|s| {
        if now + s.sample_secs < s.next_sample {
            s.next_sample = 0.0;
        }
        if now < s.next_sample {
            return None;
        }
        let t = (now / s.sample_secs).floor() * s.sample_secs;
        s.next_sample = t + s.sample_secs;
        s.samples += 1;
        Some(t)
    });
    let Some(t) = due else {
        return false;
    };
    crate::metrics::TSDB_SAMPLES_TOTAL.add(1);
    collect(t);
    true
}

/// Registry globals sampled each tick, in export order.
const GLOBAL_FAMILIES: [&str; 4] = [
    "qres_obs_push_errors_total",
    "qres_obs_shard_overflow_total",
    "qres_active_mobiles_high_water",
    "qres_des_queue_high_water",
];

/// Gathers one sample of every family at quantized sim-time `t`. Source
/// state is read *before* taking the tsdb lock (no nested locking).
fn collect(t: f64) {
    let qos = crate::qos::qos_snapshot();
    let globals: [(&'static str, f64); 4] = [
        (
            GLOBAL_FAMILIES[0],
            crate::metrics::PUSH_ERRORS_TOTAL.get() as f64,
        ),
        (
            GLOBAL_FAMILIES[1],
            crate::metrics::SHARD_OVERFLOW_TOTAL.get() as f64,
        ),
        (
            GLOBAL_FAMILIES[2],
            crate::metrics::ACTIVE_MOBILES.get() as f64,
        ),
        (
            GLOBAL_FAMILIES[3],
            crate::metrics::QUEUE_HIGH_WATER.get() as f64,
        ),
    ];
    with_state(|s| {
        for (name, v) in globals {
            s.push(name, ENTITY_GLOBAL, t, v);
        }
        for c in &qos {
            let cell = i64::from(c.cell);
            if let Some(p) = c.p_hd {
                s.push("qres_qos_p_hd", cell, t, p);
            }
            if let Some(p) = c.p_cb {
                s.push("qres_qos_p_cb", cell, t, p);
            }
            s.push(
                "qres_qos_violation_seconds_total",
                cell,
                t,
                c.violation_secs,
            );
            if let Some(br) = c.br_reserved_bu {
                s.push("qres_eff_br_reserved_bu", cell, t, br);
            }
        }
    });
}

/// Windowed statistics over one series, for the burn-rate rules.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WindowStats {
    /// Mean of the points with `t > since` (gauge-style rules).
    pub mean: f64,
    /// Last value minus the value at-or-before `since` (counter deltas).
    pub delta: f64,
    /// Points inside the window.
    #[cfg_attr(not(test), allow(dead_code))]
    pub n: usize,
}

/// Entities (cells; `-1` global, `i64::MAX` fold) that
/// carry data for `metric`.
pub(crate) fn family_entities(metric: &str) -> Vec<i64> {
    with_state(|s| {
        s.families
            .get(metric)
            .map(|f| f.keys().copied().collect())
            .unwrap_or_default()
    })
}

/// Computes [`WindowStats`] for one series over `t > since`; `None` when
/// the series is absent or has no point inside the window.
pub(crate) fn window_stats(metric: &str, entity: i64, since: f64) -> Option<WindowStats> {
    with_state(|s| {
        let series = s.families.get(metric)?.get(&entity)?;
        let mut baseline: Option<f64> = None;
        let mut sum = 0.0;
        let mut n = 0usize;
        let mut last: Option<f64> = None;
        for &(t, v) in &series.points {
            if t <= since {
                baseline = Some(v);
            } else {
                sum += v;
                n += 1;
                last = Some(v);
            }
        }
        let last = last?;
        // With no point at-or-before the window edge, the first in-window
        // point anchors the delta (a series younger than the window).
        let base = baseline.unwrap_or_else(|| {
            series
                .points
                .iter()
                .find(|&&(t, _)| t > since)
                .map(|&(_, v)| v)
                .unwrap_or(last)
        });
        Some(WindowStats {
            mean: sum / n as f64,
            delta: last - base,
            n,
        })
    })
}

/// Clears all retained series and the sample schedule (between runs /
/// tests). Cadence, retention, and cap configuration are preserved.
pub fn reset_tsdb() {
    let mut guard = TSDB.lock().unwrap();
    if let Some(s) = guard.as_mut() {
        s.families.clear();
        s.samples = 0;
        s.next_sample = s.sample_secs;
    }
}

fn entity_label(entity: i64) -> Value {
    match entity {
        ENTITY_GLOBAL => Value::Null,
        ENTITY_OTHER => Value::Str("other".to_string()),
        e => Value::Str(e.to_string()),
    }
}

fn series_summary(entity: i64, series: &Series, with_points: bool, since: Option<f64>) -> Value {
    // `since` narrows the summary to points strictly newer than a prior
    // poll's timestamp, so incremental fetches stay cheap.
    let cut = since.unwrap_or(f64::NEG_INFINITY);
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut n = 0u64;
    let (mut last_t, mut last) = (0.0, 0.0);
    for &(t, v) in &series.points {
        if t <= cut {
            continue;
        }
        min = min.min(v);
        max = max.max(v);
        (last_t, last) = (t, v);
        n += 1;
    }
    let mut fields = vec![
        ("cell".to_string(), entity_label(entity)),
        ("n".to_string(), Value::UInt(n)),
        ("min".to_string(), Value::Float(min)),
        ("max".to_string(), Value::Float(max)),
        ("last".to_string(), Value::Float(last)),
        ("last_t".to_string(), Value::Float(last_t)),
    ];
    if with_points {
        fields.push((
            "points".to_string(),
            Value::Array(
                series
                    .points
                    .iter()
                    .filter(|&&(t, _)| t > cut)
                    .map(|&(t, v)| Value::Array(vec![Value::Float(t), Value::Float(v)]))
                    .collect(),
            ),
        ));
    }
    Value::Object(fields)
}

/// The `GET /query` document. Without `metric`, a catalog: store
/// configuration plus one `min`/`max`/`last` summary row per series. With
/// `metric` (and optionally `cell`, a cell id or `other`),
/// the matching series with their full retained point arrays. A `since`
/// sim-timestamp narrows every summary and point array to points strictly
/// newer than it, so pollers can fetch increments instead of the whole
/// retention window.
pub fn query_json(metric: Option<&str>, cell: Option<&str>, since: Option<f64>) -> Value {
    with_state(|s| {
        let header = |s: &TsdbState| {
            let mut fields = vec![
                ("sample_secs".to_string(), Value::Float(s.sample_secs)),
                (
                    "retention_points".to_string(),
                    Value::UInt(s.retention_points as u64),
                ),
                ("samples".to_string(), Value::UInt(s.samples)),
            ];
            if let Some(cut) = since {
                fields.push(("since".to_string(), Value::Float(cut)));
            }
            fields
        };
        match metric {
            None => {
                let mut rows = Vec::new();
                for (name, family) in &s.families {
                    for (&entity, series) in family {
                        let Value::Object(mut fields) =
                            series_summary(entity, series, false, since)
                        else {
                            unreachable!("series_summary returns an object")
                        };
                        fields.insert(0, ("metric".to_string(), Value::Str(name.to_string())));
                        rows.push(Value::Object(fields));
                    }
                }
                let mut fields = header(s);
                fields.push(("series".to_string(), Value::Array(rows)));
                Value::Object(fields)
            }
            Some(name) => {
                let want: Option<i64> = cell.and_then(|c| {
                    if c == "other" {
                        Some(ENTITY_OTHER)
                    } else {
                        c.parse::<i64>().ok()
                    }
                });
                let rows: Vec<Value> = s
                    .families
                    .get(name)
                    .map(|family| {
                        family
                            .iter()
                            .filter(|(&e, _)| match (cell, want) {
                                (None, _) => true,
                                (Some(_), Some(w)) => e == w,
                                (Some(_), None) => false,
                            })
                            .map(|(&e, series)| series_summary(e, series, true, since))
                            .collect()
                    })
                    .unwrap_or_default();
                let mut fields = header(s);
                fields.insert(0, ("metric".to_string(), Value::Str(name.to_string())));
                fields.push(("series".to_string(), Value::Array(rows)));
                Value::Object(fields)
            }
        }
    })
}

/// Renders `values` as a unicode sparkline (`▁▂▃▄▅▆▇█`), scaled to the
/// slice's own min/max; a flat series renders as the lowest bar.
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in values {
        min = min.min(v);
        max = max.max(v);
    }
    values
        .iter()
        .map(|&v| {
            let idx = if max > min {
                ((v - min) / (max - min) * 7.0).round() as usize
            } else {
                0
            };
            BARS[idx.min(7)]
        })
        .collect()
}

fn num(v: Option<&Value>) -> f64 {
    match v {
        Some(Value::Int(n)) => *n as f64,
        Some(Value::UInt(n)) => *n as f64,
        Some(Value::Float(f)) => *f,
        _ => 0.0,
    }
}

fn points_of(series: &Value) -> Vec<f64> {
    match series.get("points") {
        Some(Value::Array(pts)) => pts
            .iter()
            .filter_map(|p| match p {
                Value::Array(pair) if pair.len() == 2 => Some(num(pair.get(1))),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    }
}

fn cell_of(series: &Value) -> String {
    match series.get("cell") {
        Some(Value::Str(s)) => s.clone(),
        _ => "-".to_string(),
    }
}

/// Renders one `qres obstop` dashboard frame from live scrape documents:
/// `p_hd` is the `GET /query?metric=qres_qos_p_hd` body, `alerts` the
/// `GET /alerts` body. Shows the alert table and the top-`top_n` cells by
/// `P_HD` burn with sparklines.
pub fn render_obstop(p_hd: &Value, alerts: &Value, top_n: usize) -> Result<String, String> {
    let mut out = String::new();
    let config = alerts
        .get("config")
        .ok_or("not an /alerts document (no `config`)")?;
    let target = num(config.get("target_p_hd")).max(f64::MIN_POSITIVE);
    let samples = num(p_hd.get("samples")) as u64;
    let cadence = num(p_hd.get("sample_secs"));

    let (mut firing, mut pending) = (0u64, 0u64);
    let empty = Vec::new();
    let rows = match alerts.get("alerts") {
        Some(Value::Array(rows)) => rows,
        _ => &empty,
    };
    for a in rows {
        match a.get("state") {
            Some(Value::Str(s)) if s == "firing" => firing += 1,
            Some(Value::Str(s)) if s == "pending" => pending += 1,
            _ => {}
        }
    }
    out.push_str(&format!(
        "qres obstop — SLO watchdog (cadence {cadence} sim-s, {samples} samples)  \
         alerts: {firing} firing, {pending} pending\n"
    ));

    if rows.is_empty() {
        out.push_str("  (no alerts)\n");
    } else {
        // Firing first, then pending, then history; a metro-scale
        // incident can hold hundreds of entries, so the table is bounded
        // like the cell list below it.
        let order = |a: &&Value| match a.get("state") {
            Some(Value::Str(s)) if s == "firing" => 0u8,
            Some(Value::Str(s)) if s == "pending" => 1,
            _ => 2,
        };
        let mut sorted: Vec<&Value> = rows.iter().collect();
        sorted.sort_by_key(order);
        let shown = sorted.len().min(top_n.max(4) * 2);
        out.push_str("  rule              cell    state     since      fast_burn  slow_burn\n");
        for a in &sorted[..shown] {
            let s = |k: &str| match a.get(k) {
                Some(Value::Str(v)) => v.clone(),
                Some(Value::Null) | None => "-".to_string(),
                Some(v) => num(Some(v)).to_string(),
            };
            out.push_str(&format!(
                "  {:<17} {:<7} {:<9} {:<10.1} {:<10.2} {:<.2}\n",
                s("rule"),
                s("cell"),
                s("state"),
                num(a.get("since")),
                num(a.get("fast_burn")),
                num(a.get("slow_burn")),
            ));
        }
        if shown < sorted.len() {
            out.push_str(&format!("  … and {} more\n", sorted.len() - shown));
        }
    }

    if let Some(Value::Array(series)) = p_hd.get("series") {
        let mut ranked: Vec<(&Value, f64)> = series
            .iter()
            .map(|s| (s, num(s.get("last")) / target))
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        if !ranked.is_empty() {
            out.push_str(&format!("  top cells by P_HD burn (target {target}):\n"));
            for (s, burn) in ranked.into_iter().take(top_n) {
                let values = points_of(s);
                out.push_str(&format!(
                    "    cell {:<6} {:<24} last {:<8.4} burn {burn:.2}\n",
                    cell_of(s),
                    sparkline(&values),
                    num(s.get("last")),
                ));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests touching the process-global store (and the QoS
    /// tracker it samples from).
    static LOCK: Mutex<()> = Mutex::new(());

    const CELL: u32 = 9_101;

    #[test]
    fn samples_on_the_cadence_grid_and_rearms_on_restart() {
        let _g = LOCK.lock().unwrap();
        reset_tsdb();
        crate::qos::reset_qos();
        crate::qos::record_handoff_outcome(5.0, CELL, true);

        assert!(!maybe_sample(10.0), "before the first boundary");
        assert!(maybe_sample(61.0), "crossed t=60");
        assert!(!maybe_sample(70.0), "inside the cadence interval");
        assert!(maybe_sample(125.0), "crossed t=120");

        let doc = query_json(Some("qres_qos_p_hd"), Some(&CELL.to_string()), None);
        let Some(Value::Array(series)) = doc.get("series") else {
            panic!("no series: {doc:?}")
        };
        assert_eq!(series.len(), 1);
        // Quantized stamps: 60 and 120, not 61/125.
        let pts = points_of(&series[0]);
        assert_eq!(pts.len(), 2);
        assert_eq!(num(series[0].get("last_t")), 120.0);

        // `since` drops points at-or-before the poll edge.
        let doc = query_json(Some("qres_qos_p_hd"), Some(&CELL.to_string()), Some(60.0));
        assert_eq!(doc.get("since"), Some(&Value::Float(60.0)));
        let Some(Value::Array(series)) = doc.get("series") else {
            panic!("no series: {doc:?}")
        };
        assert_eq!(points_of(&series[0]).len(), 1, "only the t=120 sample");
        assert_eq!(num(series[0].get("n")), 1.0);
        assert_eq!(num(series[0].get("last_t")), 120.0);
        let doc = query_json(Some("qres_qos_p_hd"), Some(&CELL.to_string()), Some(120.0));
        let Some(Value::Array(series)) = doc.get("series") else {
            panic!("no series: {doc:?}")
        };
        assert_eq!(
            points_of(&series[0]).len(),
            0,
            "nothing newer than the last sample"
        );

        // A restarted sim clock re-arms instead of stalling.
        assert!(maybe_sample(62.0), "clock went backwards; re-armed");

        reset_tsdb();
        crate::qos::reset_qos();
    }

    #[test]
    fn cell_cap_folds_into_other_and_retention_bounds_series() {
        let _g = LOCK.lock().unwrap();
        reset_tsdb();
        with_state(|s| {
            s.cell_series_cap = 2;
            s.retention_points = 3;
            for tick in 0..5 {
                let t = tick as f64 * 60.0;
                s.push("t_fold", 1, t, 0.1);
                s.push("t_fold", 2, t, 0.2);
                s.push("t_fold", 3, t, 0.3); // beyond cap: folds
                s.push("t_fold", 4, t, 0.4); // folds; max kept per tick
            }
        });
        let doc = query_json(Some("t_fold"), None, None);
        let Some(Value::Array(series)) = doc.get("series") else {
            panic!("no series")
        };
        assert_eq!(series.len(), 3, "two exact cells + other: {doc:?}");
        let other = series
            .iter()
            .find(|s| cell_of(s) == "other")
            .expect("fold series");
        let pts = points_of(other);
        assert_eq!(pts.len(), 3, "retention bound");
        assert!(pts.iter().all(|&v| v == 0.4), "fold keeps the max");
        // Restore defaults for sibling tests.
        with_state(|s| {
            s.cell_series_cap = DEFAULT_CELL_SERIES;
            s.retention_points = DEFAULT_RETENTION_POINTS;
        });
        reset_tsdb();
    }

    #[test]
    fn window_stats_mean_and_delta() {
        let _g = LOCK.lock().unwrap();
        reset_tsdb();
        with_state(|s| {
            for (t, v) in [(60.0, 10.0), (120.0, 14.0), (180.0, 18.0)] {
                s.push("t_win", ENTITY_GLOBAL, t, v);
            }
        });
        let w = window_stats("t_win", ENTITY_GLOBAL, 60.0).expect("stats");
        assert_eq!(w.n, 2);
        assert!((w.mean - 16.0).abs() < 1e-12);
        // Baseline is the point at-or-before the edge: 18 - 10.
        assert!((w.delta - 8.0).abs() < 1e-12);
        // Window wider than the series: first in-window point anchors.
        let w = window_stats("t_win", ENTITY_GLOBAL, 0.0).expect("stats");
        assert_eq!(w.n, 3);
        assert!((w.delta - 8.0).abs() < 1e-12);
        assert!(window_stats("t_win", ENTITY_GLOBAL, 200.0).is_none());
        assert!(window_stats("t_missing", ENTITY_GLOBAL, 0.0).is_none());
        reset_tsdb();
    }

    #[test]
    fn sparkline_scales_and_handles_flat_series() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[1.0, 1.0, 1.0]), "▁▁▁");
        let line = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(line.chars().count(), 3);
        assert!(line.starts_with('▁') && line.ends_with('█'));
    }

    #[test]
    fn obstop_renders_from_query_and_alert_documents() {
        let p_hd = Value::parse(
            r#"{"metric":"qres_qos_p_hd","sample_secs":60.0,"retention_points":120,
                "samples":3,"series":[
                {"cell":"7","n":3,"min":0.0,"max":0.2,"last":0.2,"last_t":180.0,
                 "points":[[60.0,0.0],[120.0,0.1],[180.0,0.2]]}]}"#,
        )
        .unwrap();
        let alerts = Value::parse(
            r#"{"config":{"fast_window_secs":300.0,"slow_window_secs":3600.0,
                "burn_threshold":1.0,"target_p_hd":0.01},
                "fired_total":{"p_hd_burn":1},
                "alerts":[{"rule":"p_hd_burn","cell":"7","state":"firing",
                 "since":60.0,"fast_burn":20.0,"slow_burn":20.0}],
                "transitions":[]}"#,
        )
        .unwrap();
        let frame = render_obstop(&p_hd, &alerts, 5).unwrap();
        assert!(frame.contains("1 firing"), "{frame}");
        assert!(frame.contains("p_hd_burn"), "{frame}");
        assert!(frame.contains("cell 7"), "{frame}");
        assert!(frame.contains('█'), "sparkline rendered: {frame}");
        assert!(
            render_obstop(&p_hd, &Value::Object(vec![]), 5).is_err(),
            "alerts doc without config must be rejected"
        );
    }
}
