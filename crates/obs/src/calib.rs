//! Eq.-4 prediction calibration: does the Bayes hand-off probability
//! `p_h` actually predict hand-offs?
//!
//! Every per-connection probability emitted while computing `B_r`
//! (Eqs. 5–6) is a falsifiable forecast: *this connection, now in cell
//! `i`, hands into the target cell within `T_est` with probability `p`*.
//! This module records those forecasts, matches them against the realized
//! outcome, and aggregates the pairs into a 10-bin reliability diagram
//! plus a Brier score — globally and per `prev`-cell (the strongest
//! conditioning variable of the paper's quadruplet histories).
//!
//! ## Matching rules
//!
//! One pending forecast is kept per `(connection, target)` key:
//!
//! * A fresh forecast for the same key **supersedes** a live predecessor
//!   (only counted, not scored — the model refreshed its estimate before
//!   the outcome arrived); a predecessor whose deadline already passed is
//!   first resolved as a **miss** (the window elapsed without a hand-off).
//! * A hand-off *attempt* (admitted **or** dropped — the mobile moved
//!   either way) resolves every pending forecast of that connection:
//!   a **hit** iff it went to the forecast target at or before the
//!   deadline; an attempt to a *different* neighbor, or past the
//!   deadline, is a **miss**.
//! * Connection completion resolves all its pending forecasts as
//!   **misses** (it never handed into the target within the window).
//! * [`sweep_expired`] resolves any forecast whose deadline has passed —
//!   run it at end of simulation so dormant forecasts are scored.
//!
//! ## Hot-path staging
//!
//! Forecast capture happens inside `compute_br`, whose wall-clock cost is
//! a gated metric (`qres_br_compute_ns`) — and `compute_br` itself runs
//! inside the admission test's timed window (`qres_admission_test_ns`).
//! To keep the bookkeeping out of both measured windows, producers
//! *stage* forecasts into a thread-local buffer ([`stage_prediction`], a
//! plain `Vec` push) and the caller flushes them into its
//! [`crate::Obs`]'s store after the *admission* timing record
//! ([`flush_staged`], one mutex acquisition per admission).
//!
//! ## Store layout: sorted batches, one merge per evaluation
//!
//! Pending forecasts live in one batch per `(cell, target)` emission
//! site, indexed by the (dense) cell id, and each batch is kept sorted by
//! strictly ascending connection id. A `B_i,0` evaluation walks the
//! cell's connection registry (a `Vec` sorted by id), so it stages its
//! forecasts in ascending id too. [`flush_staged`] cuts the staged buffer
//! into runs of one `(cell, target)` with strictly rising ids and merges
//! each run into its batch in one linear pass, rebuilt into a reused
//! scratch `Vec` and swapped in. Most staged forecasts (about 86% on the
//! paper ring) only supersede a live one, so this pass is the store's
//! whole cost. Any staged order is still correct — an out-of-order or
//! repeated id just starts a new run — only slower. Resolution order is
//! fixed by construction: the flush resolves expired predecessors in
//! staged order, [`observe_attempt`] and [`observe_end`] (a binary search
//! per batch) in batch order, and [`sweep_expired`] in cell, batch and
//! connection order, so the floating-point sums of a run do not depend on
//! anything but its inputs.

use std::cell::RefCell;
use std::collections::BTreeMap;

use qres_json::Value;

/// Number of reliability-diagram bins over `[0, 1]`.
pub const CALIB_BINS: usize = 10;

/// One staged Eq.-4 forecast, waiting to be flushed into the store.
#[derive(Debug, Clone, Copy)]
struct Staged {
    cell: u32,
    target: u32,
    conn: u64,
    /// `prev` cell of the quadruplet conditioning the forecast
    /// (`-1` encodes "none": the connection started in `cell`).
    prev: i64,
    p: f64,
    deadline: f64,
}

thread_local! {
    static STAGING: RefCell<Vec<Staged>> = const { RefCell::new(Vec::new()) };
}

/// Stages one per-connection forecast: connection `conn`, currently in
/// `cell` (having previously been in `prev`), hands into `target` by
/// sim-time `deadline` with probability `p`. Thread-local, lock-free;
/// call [`flush_staged`] to publish.
#[inline]
pub fn stage_prediction(
    cell: u32,
    target: u32,
    conn: u64,
    prev: Option<u32>,
    p: f64,
    deadline: f64,
) {
    STAGING.with(|s| {
        s.borrow_mut().push(Staged {
            cell,
            target,
            conn,
            prev: prev.map(i64::from).unwrap_or(-1),
            p,
            deadline,
        })
    });
}

/// Reliability-diagram accumulator: per-bin forecast count, forecast-mass
/// sum and realized hits, plus the Brier sum over all resolved pairs.
#[derive(Debug, Clone, Default)]
pub struct CalibBins {
    /// Resolved forecasts per bin (`bin = floor(p * 10)`, clamped).
    pub n: [u64; CALIB_BINS],
    /// Sum of forecast probabilities per bin.
    pub sum_p: [f64; CALIB_BINS],
    /// Realized hand-offs (hits) per bin.
    pub hits: [u64; CALIB_BINS],
    /// Sum of `(p - outcome)^2` over all resolved forecasts.
    pub brier_sum: f64,
}

impl CalibBins {
    fn score(&mut self, p: f64, hit: bool) {
        let bin = ((p * CALIB_BINS as f64) as usize).min(CALIB_BINS - 1);
        self.n[bin] += 1;
        self.sum_p[bin] += p;
        if hit {
            self.hits[bin] += 1;
        }
        let outcome = if hit { 1.0 } else { 0.0 };
        self.brier_sum += (p - outcome) * (p - outcome);
    }

    /// Total resolved forecasts.
    pub fn count(&self) -> u64 {
        self.n.iter().sum()
    }

    /// Mean Brier score; `None` with nothing resolved.
    pub fn brier(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| self.brier_sum / n as f64)
    }

    fn to_json(&self) -> Value {
        let bins: Vec<Value> = (0..CALIB_BINS)
            .map(|b| {
                Value::Object(vec![
                    ("lo".into(), Value::Float(b as f64 / CALIB_BINS as f64)),
                    (
                        "hi".into(),
                        Value::Float((b + 1) as f64 / CALIB_BINS as f64),
                    ),
                    ("n".into(), Value::UInt(self.n[b])),
                    (
                        "mean_p".into(),
                        if self.n[b] > 0 {
                            Value::Float(self.sum_p[b] / self.n[b] as f64)
                        } else {
                            Value::Null
                        },
                    ),
                    (
                        "hit_rate".into(),
                        if self.n[b] > 0 {
                            Value::Float(self.hits[b] as f64 / self.n[b] as f64)
                        } else {
                            Value::Null
                        },
                    ),
                ])
            })
            .collect();
        Value::Object(vec![
            ("n".into(), Value::UInt(self.count())),
            (
                "brier".into(),
                self.brier().map(Value::Float).unwrap_or(Value::Null),
            ),
            ("bins".into(), Value::Array(bins)),
        ])
    }
}

/// How a pending forecast was resolved (for the outcome counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Hit,
    WrongTarget,
    Expired,
    Ended,
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    conn: u64,
    prev: i64,
    p: f64,
    deadline: f64,
}

/// Pending forecasts of one `(cell, target)` emission site, sorted by
/// strictly ascending connection id.
#[derive(Debug, Default)]
struct TargetBatch {
    target: u32,
    entries: Vec<Pending>,
}

/// Outcome counters and reliability diagrams of the resolved forecasts.
#[derive(Debug, Default)]
struct Tally {
    global: CalibBins,
    per_prev: BTreeMap<i64, CalibBins>,
    predictions: u64,
    superseded: u64,
    hits: u64,
    miss_wrong_target: u64,
    miss_expired: u64,
    miss_ended: u64,
}

impl Tally {
    fn resolve(&mut self, pend: Pending, outcome: Outcome) {
        let hit = outcome == Outcome::Hit;
        self.global.score(pend.p, hit);
        self.per_prev
            .entry(pend.prev)
            .or_default()
            .score(pend.p, hit);
        match outcome {
            Outcome::Hit => self.hits += 1,
            Outcome::WrongTarget => self.miss_wrong_target += 1,
            Outcome::Expired => self.miss_expired += 1,
            Outcome::Ended => self.miss_ended += 1,
        }
    }
}

/// The calibration store of an [`crate::Obs`].
#[derive(Debug, Default)]
pub(crate) struct CalibState {
    /// Pending forecasts, indexed by the (dense) id of the cell the
    /// forecast connection lives in, then grouped by target in first-seen
    /// order (a cell has few neighbors).
    by_cell: Vec<Vec<TargetBatch>>,
    /// Merge output buffer, swapped with the batch it rebuilds.
    scratch: Vec<Pending>,
    tally: Tally,
}

impl CalibState {
    fn pending(&self) -> u64 {
        self.by_cell
            .iter()
            .flatten()
            .map(|b| b.entries.len() as u64)
            .sum()
    }

    /// Merges one run of forecasts — same `(cell, target)`, strictly
    /// ascending connection ids — into its batch in one linear pass. A
    /// forecast whose connection already has one pending replaces it: the
    /// predecessor is an expired miss if its deadline passed before `now`,
    /// otherwise it is superseded. Predecessors the run does not mention
    /// are carried over.
    fn merge_run(&mut self, run: &[Staged], now: f64) {
        let (cell, target) = (run[0].cell as usize, run[0].target);
        if self.by_cell.len() <= cell {
            self.by_cell.resize_with(cell + 1, Vec::new);
        }
        let batches = &mut self.by_cell[cell];
        let i = match batches.iter().position(|b| b.target == target) {
            Some(i) => i,
            None => {
                batches.push(TargetBatch {
                    target,
                    entries: Vec::new(),
                });
                batches.len() - 1
            }
        };
        let batch = &mut batches[i];
        let merged = &mut self.scratch;
        merged.clear();
        let mut old = batch.entries.iter().copied().peekable();
        for f in run {
            while let Some(e) = old.next_if(|e| e.conn < f.conn) {
                merged.push(e);
            }
            if let Some(e) = old.next_if(|e| e.conn == f.conn) {
                if e.deadline < now {
                    self.tally.resolve(e, Outcome::Expired);
                } else {
                    self.tally.superseded += 1;
                }
            }
            merged.push(Pending {
                conn: f.conn,
                prev: f.prev,
                p: f.p,
                deadline: f.deadline,
            });
        }
        merged.extend(old);
        std::mem::swap(&mut batch.entries, merged);
    }

    /// Removes `conn`'s forecast from every batch of cell `from` and
    /// resolves each, in batch order, with the outcome `outcome` assigns
    /// to (forecast target, forecast).
    fn resolve_conn(&mut self, conn: u64, from: u32, outcome: impl Fn(u32, &Pending) -> Outcome) {
        let Some(batches) = self.by_cell.get_mut(from as usize) else {
            return;
        };
        for batch in batches {
            if let Ok(i) = batch.entries.binary_search_by_key(&conn, |e| e.conn) {
                let pend = batch.entries.remove(i);
                self.tally.resolve(pend, outcome(batch.target, &pend));
            }
        }
    }
}

fn with_state<R>(f: impl FnOnce(&mut CalibState) -> R) -> R {
    crate::with(|o| f(&mut crate::lock(&o.calib)))
}

/// Publishes every staged forecast into the store. `now` is the current
/// sim-time, used to decide whether a replaced predecessor expired.
/// One mutex acquisition regardless of batch size; no-op when nothing is
/// staged. Correct for any staged order, linear per `(cell, target)` when
/// each evaluation stages its forecasts in ascending connection id.
pub fn flush_staged(now: f64) {
    STAGING.with(|s| {
        let mut staged = s.borrow_mut();
        if staged.is_empty() {
            return;
        }
        with_state(|st| {
            st.tally.predictions += staged.len() as u64;
            let mut rest = &staged[..];
            while !rest.is_empty() {
                let len = 1 + rest
                    .windows(2)
                    .take_while(|w| {
                        (w[1].cell, w[1].target) == (w[0].cell, w[0].target)
                            && w[1].conn > w[0].conn
                    })
                    .count();
                let (run, tail) = rest.split_at(len);
                st.merge_run(run, now);
                rest = tail;
            }
        });
        staged.clear();
    });
}

/// Resolves every pending forecast of `conn` (living in cell `from`)
/// against a hand-off attempt to `to` at sim-time `t`. Admitted and
/// dropped attempts both count — the mobile moved either way.
pub fn observe_attempt(conn: u64, from: u32, to: u32, t: f64) {
    with_state(|st| {
        st.resolve_conn(conn, from, |target, pend| {
            if t > pend.deadline {
                Outcome::Expired
            } else if target == to {
                Outcome::Hit
            } else {
                Outcome::WrongTarget
            }
        })
    });
}

/// Resolves every pending forecast of `conn` (living in cell `from`) as a
/// miss: the connection completed without handing off.
pub fn observe_end(conn: u64, from: u32, t: f64) {
    with_state(|st| {
        st.resolve_conn(conn, from, |_, pend| {
            if t > pend.deadline {
                Outcome::Expired
            } else {
                Outcome::Ended
            }
        })
    });
}

/// Resolves every pending forecast whose deadline is strictly before
/// `now` as an expired miss, in cell, batch and connection order. Call at
/// end of run so forecasts for connections that neither moved nor
/// completed are still scored.
pub fn sweep_expired(now: f64) {
    with_state(|st| {
        let tally = &mut st.tally;
        for batch in st.by_cell.iter_mut().flatten() {
            batch.entries.retain(|&e| {
                let expired = e.deadline < now;
                if expired {
                    tally.resolve(e, Outcome::Expired);
                }
                !expired
            });
        }
    });
}

/// Clears all calibration state, including this thread's staging buffer.
pub fn reset_calib() {
    STAGING.with(|s| s.borrow_mut().clear());
    with_state(|st| *st = CalibState::default());
}

/// Point-in-time summary counts of the calibration store.
#[derive(Debug, Clone, Default)]
pub struct CalibSummary {
    /// Forecasts recorded (staged and flushed).
    pub predictions: u64,
    /// Forecasts still awaiting an outcome.
    pub pending: u64,
    /// Live forecasts replaced by a fresher emission (not scored).
    pub superseded: u64,
    /// Resolved as realized hand-offs into the forecast target in time.
    pub hits: u64,
    /// Resolved by a hand-off to a different neighbor.
    pub miss_wrong_target: u64,
    /// Resolved by deadline expiry.
    pub miss_expired: u64,
    /// Resolved by connection completion.
    pub miss_ended: u64,
    /// Mean Brier score over everything resolved.
    pub brier: Option<f64>,
}

/// Summary counts for quick assertions.
pub fn calib_summary() -> CalibSummary {
    with_state(|st| {
        let t = &st.tally;
        CalibSummary {
            predictions: t.predictions,
            pending: st.pending(),
            superseded: t.superseded,
            hits: t.hits,
            miss_wrong_target: t.miss_wrong_target,
            miss_expired: t.miss_expired,
            miss_ended: t.miss_ended,
            brier: t.global.brier(),
        }
    })
}

/// The calibration snapshot: summary counters, the global reliability
/// diagram, and one diagram per `prev`-cell (`"none"` for connections
/// that started in the forecast cell).
pub fn calib_json() -> Value {
    with_state(|st| {
        let t = &st.tally;
        let per_prev: Vec<(String, Value)> = t
            .per_prev
            .iter()
            .map(|(&prev, bins)| {
                let key = if prev < 0 {
                    "none".to_string()
                } else {
                    prev.to_string()
                };
                (key, bins.to_json())
            })
            .collect();
        Value::Object(vec![
            ("predictions".into(), Value::UInt(t.predictions)),
            ("pending".into(), Value::UInt(st.pending())),
            ("superseded".into(), Value::UInt(t.superseded)),
            ("hits".into(), Value::UInt(t.hits)),
            ("miss_wrong_target".into(), Value::UInt(t.miss_wrong_target)),
            ("miss_expired".into(), Value::UInt(t.miss_expired)),
            ("miss_ended".into(), Value::UInt(t.miss_ended)),
            ("global".into(), t.global.to_json()),
            ("per_prev".into(), Value::Object(per_prev)),
        ])
    })
}

/// Renders the calibration part (`qos.calib`) of an `obs.json` as the
/// human-readable report `qres obs calib` prints.
pub fn render_calib_report(doc: &Value) -> Result<String, String> {
    use std::fmt::Write as _;
    let v = doc
        .get("qos")
        .and_then(|q| q.get("calib"))
        .ok_or("no `qos.calib` section")?;

    let count = |key: &str| -> u64 {
        match v.get(key) {
            Some(Value::UInt(n)) => *n,
            Some(Value::Int(n)) => (*n).max(0) as u64,
            _ => 0,
        }
    };
    let num = |obj: &Value, key: &str| -> Option<f64> {
        match obj.get(key) {
            Some(Value::Float(x)) => Some(*x),
            Some(Value::Int(n)) => Some(*n as f64),
            Some(Value::UInt(n)) => Some(*n as f64),
            _ => None,
        }
    };

    let mut out = String::new();
    let resolved =
        count("hits") + count("miss_wrong_target") + count("miss_expired") + count("miss_ended");
    let _ = writeln!(
        out,
        "Eq.-4 calibration: {} predictions, {} resolved (hits {}, wrong-neighbor {}, expired {}, ended {}), {} superseded, {} pending",
        count("predictions"),
        resolved,
        count("hits"),
        count("miss_wrong_target"),
        count("miss_expired"),
        count("miss_ended"),
        count("superseded"),
        count("pending"),
    );

    let global = v.get("global").ok_or("missing `global` section")?;
    if let Some(b) = num(global, "brier") {
        let _ = writeln!(out, "Brier score: {b:.4}");
    }
    out.push('\n');

    let render_bins = |out: &mut String, diagram: &Value| -> Result<(), String> {
        let Some(Value::Array(bins)) = diagram.get("bins") else {
            return Err("missing `bins` array".into());
        };
        let _ = writeln!(out, "  p_h bin          n     mean_p   hit_rate        gap");
        for bin in bins {
            let n = num(bin, "n").unwrap_or(0.0) as u64;
            let lo = num(bin, "lo").unwrap_or(0.0);
            let hi = num(bin, "hi").unwrap_or(0.0);
            match (num(bin, "mean_p"), num(bin, "hit_rate")) {
                (Some(mp), Some(hr)) => {
                    let _ = writeln!(
                        out,
                        "  [{lo:.1},{hi:.1})  {n:>8}   {mp:>8.4}   {hr:>8.4}   {gap:>+8.4}",
                        gap = hr - mp
                    );
                }
                _ => {
                    let _ = writeln!(
                        out,
                        "  [{lo:.1},{hi:.1})  {n:>8}          -          -          -"
                    );
                }
            }
        }
        Ok(())
    };

    let _ = writeln!(out, "reliability diagram (global):");
    render_bins(&mut out, global)?;

    if let Some(Value::Object(per_prev)) = v.get("per_prev") {
        if !per_prev.is_empty() {
            out.push('\n');
            let _ = writeln!(out, "per prev-cell:");
            let _ = writeln!(out, "  prev           n      brier");
            for (key, diagram) in per_prev {
                let n = num(diagram, "n").unwrap_or(0.0) as u64;
                match num(diagram, "brier") {
                    Some(b) => {
                        let _ = writeln!(out, "  {key:<6} {n:>9}   {b:>8.4}");
                    }
                    None => {
                        let _ = writeln!(out, "  {key:<6} {n:>9}          -");
                    }
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage_and_flush(cell: u32, target: u32, conn: u64, p: f64, deadline: f64, now: f64) {
        stage_prediction(cell, target, conn, None, p, deadline);
        flush_staged(now);
    }

    #[test]
    fn handoff_to_target_within_window_is_a_hit() {
        stage_and_flush(1, 2, 100, 0.75, 30.0, 10.0);
        observe_attempt(100, 1, 2, 20.0);
        let s = calib_summary();
        assert_eq!((s.hits, s.pending), (1, 0));
        // Brier for one hit at p = 0.75: (0.75 - 1)^2.
        assert!((s.brier.unwrap() - 0.0625).abs() < 1e-12);
    }

    #[test]
    fn handoff_to_different_neighbor_is_a_miss() {
        // Forecasts toward both neighbors; the mobile goes to cell 2:
        // the cell-2 forecast hits, the cell-3 forecast misses.
        stage_and_flush(1, 2, 100, 0.6, 30.0, 10.0);
        stage_and_flush(1, 3, 100, 0.4, 30.0, 10.0);
        observe_attempt(100, 1, 2, 20.0);
        let s = calib_summary();
        assert_eq!((s.hits, s.miss_wrong_target, s.pending), (1, 1, 0));
    }

    #[test]
    fn prediction_expires_unmatched_at_t_est_boundary() {
        stage_and_flush(1, 2, 100, 0.9, 30.0, 10.0);
        // At exactly the deadline the forecast is still live (a hand-off
        // at t == deadline would count), so a sweep at 30.0 scores
        // nothing...
        sweep_expired(30.0);
        assert_eq!(calib_summary().pending, 1);
        // ...and one instant past it the forecast is an expired miss.
        sweep_expired(30.0 + 1e-9);
        let s = calib_summary();
        assert_eq!((s.miss_expired, s.pending), (1, 0));
        // Brier for one miss at p = 0.9: 0.81.
        assert!((s.brier.unwrap() - 0.81).abs() < 1e-12);
    }

    #[test]
    fn late_handoff_past_deadline_is_an_expired_miss() {
        stage_and_flush(1, 2, 100, 0.5, 30.0, 10.0);
        observe_attempt(100, 1, 2, 31.0);
        let s = calib_summary();
        assert_eq!((s.hits, s.miss_expired), (0, 1));
    }

    #[test]
    fn completion_resolves_as_miss() {
        stage_and_flush(1, 2, 100, 0.3, 30.0, 10.0);
        observe_end(100, 1, 15.0);
        let s = calib_summary();
        assert_eq!((s.miss_ended, s.pending), (1, 0));
    }

    #[test]
    fn fresh_emission_supersedes_live_and_expires_stale() {
        stage_and_flush(1, 2, 100, 0.5, 30.0, 10.0);
        // Re-emitted while live: superseded, not scored.
        stage_and_flush(1, 2, 100, 0.6, 40.0, 20.0);
        let s = calib_summary();
        assert_eq!((s.superseded, s.pending, s.predictions), (1, 1, 2));
        // Re-emitted after the 40.0 deadline passed: predecessor is an
        // expired miss.
        stage_and_flush(1, 2, 100, 0.7, 80.0, 50.0);
        let s = calib_summary();
        assert_eq!((s.superseded, s.miss_expired, s.pending), (1, 1, 1));
    }

    #[test]
    fn per_prev_diagrams_split_by_conditioning_cell() {
        stage_prediction(1, 2, 100, Some(5), 0.8, 30.0);
        stage_prediction(1, 2, 101, None, 0.2, 30.0);
        flush_staged(10.0);
        observe_attempt(100, 1, 2, 20.0);
        observe_end(101, 1, 25.0);
        let json = calib_json();
        let per_prev = json.get("per_prev").unwrap();
        assert!(per_prev.get("5").is_some());
        assert!(per_prev.get("none").is_some());
        let doc = Value::Object(vec![(
            "qos".into(),
            Value::Object(vec![("calib".into(), json)]),
        )]);
        let report = render_calib_report(&doc).unwrap();
        assert!(report.contains("2 predictions"));
        assert!(report.contains("reliability diagram"));
        assert!(report.contains("per prev-cell:"));
    }

    #[test]
    fn report_rejects_non_calibration_documents() {
        let doc = Value::Object(vec![("x".into(), Value::Null)]);
        assert!(render_calib_report(&doc).is_err());
        // A bare calibration document is not an `obs.json`.
        let bare = Value::parse(r#"{"predictions":0,"global":{"bins":[]}}"#).unwrap();
        assert!(render_calib_report(&bare).is_err());
    }

    /// SplitMix64: a seeded stream for the differential test.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// The reference store: one map keyed by `(cell, target, conn)`, each
    /// rule applied forecast by forecast exactly as the module docs state.
    #[derive(Default)]
    struct Model {
        pending: BTreeMap<(u32, u32, u64), Pending>,
        tally: Tally,
    }

    impl Model {
        fn flush(&mut self, staged: &[Staged], now: f64) {
            self.tally.predictions += staged.len() as u64;
            for f in staged {
                let new = Pending {
                    conn: f.conn,
                    prev: f.prev,
                    p: f.p,
                    deadline: f.deadline,
                };
                match self.pending.insert((f.cell, f.target, f.conn), new) {
                    Some(old) if old.deadline < now => self.tally.resolve(old, Outcome::Expired),
                    Some(_) => self.tally.superseded += 1,
                    None => {}
                }
            }
        }

        fn resolve_conn(
            &mut self,
            conn: u64,
            from: u32,
            outcome: impl Fn(u32, &Pending) -> Outcome,
        ) {
            let tally = &mut self.tally;
            self.pending.retain(|&(cell, target, id), pend| {
                let resolved = cell == from && id == conn;
                if resolved {
                    tally.resolve(*pend, outcome(target, pend));
                }
                !resolved
            });
        }

        fn sweep(&mut self, now: f64) {
            let tally = &mut self.tally;
            self.pending.retain(|_, pend| {
                let expired = pend.deadline < now;
                if expired {
                    tally.resolve(*pend, Outcome::Expired);
                }
                !expired
            });
        }
    }

    fn assert_bins_match(store: &CalibBins, model: &CalibBins, what: &str) {
        assert_eq!(store.n, model.n, "{what}: per-bin n");
        assert_eq!(store.hits, model.hits, "{what}: per-bin hits");
        // Resolution order differs between the two (the model walks its
        // keys in order), so the sums may differ in the last bits.
        let (got, want) = (store.brier().unwrap(), model.brier().unwrap());
        assert!((got - want).abs() < 1e-12, "{what}: Brier {got} vs {want}");
    }

    /// The merging store agrees with the one-forecast-at-a-time model on
    /// random stage/flush/attempt/end/sweep sequences: out-of-order and
    /// repeated ids within an evaluation, the same `(cell, target)`
    /// evaluated twice in one flush, connections missing from a
    /// re-evaluation, and deadlines landing exactly on `now` (times and
    /// deadlines are whole seconds, so ties are common).
    #[test]
    fn merging_store_matches_forecast_at_a_time_model() {
        for seed in 1..=8 {
            reset_calib();
            let mut rng = Rng(seed);
            let mut model = Model::default();
            let mut now = 0.0;
            for _ in 0..3_000 {
                now += rng.below(2) as f64;
                match rng.below(10) {
                    0..=4 => {
                        let mut staged = Vec::new();
                        for _ in 0..1 + rng.below(3) {
                            let cell = rng.below(4) as u32;
                            let target = rng.below(3) as u32;
                            // Each connection of the cell has a 3-in-4
                            // chance of being in the evaluation.
                            let mut conns: Vec<u64> =
                                (0..24).filter(|_| rng.below(4) != 0).collect();
                            match rng.below(6) {
                                0 => conns.reverse(),
                                1 if !conns.is_empty() => {
                                    let i = rng.below(conns.len() as u64) as usize;
                                    conns.insert(i, conns[i]);
                                }
                                2 => {
                                    for i in (1..conns.len()).rev() {
                                        conns.swap(i, rng.below(i as u64 + 1) as usize);
                                    }
                                }
                                _ => {}
                            }
                            // A repeated evaluation stages the same run twice.
                            for _ in 0..1 + (rng.below(5) == 0) as usize {
                                for &conn in &conns {
                                    let prev = rng.below(3) as i64 - 1;
                                    staged.push(Staged {
                                        cell,
                                        target,
                                        conn,
                                        prev,
                                        p: rng.below(1_001) as f64 / 1_000.0,
                                        deadline: now + rng.below(4) as f64,
                                    });
                                }
                            }
                        }
                        for f in &staged {
                            let prev = (f.prev >= 0).then_some(f.prev as u32);
                            stage_prediction(f.cell, f.target, f.conn, prev, f.p, f.deadline);
                        }
                        flush_staged(now);
                        model.flush(&staged, now);
                    }
                    5..=6 => {
                        let (conn, from) = (rng.below(24), rng.below(4) as u32);
                        let (to, t) = (rng.below(3) as u32, now);
                        observe_attempt(conn, from, to, t);
                        model.resolve_conn(conn, from, |target, pend| {
                            if t > pend.deadline {
                                Outcome::Expired
                            } else if target == to {
                                Outcome::Hit
                            } else {
                                Outcome::WrongTarget
                            }
                        });
                    }
                    7..=8 => {
                        let (conn, from, t) = (rng.below(24), rng.below(4) as u32, now);
                        observe_end(conn, from, t);
                        model.resolve_conn(conn, from, |_, pend| {
                            if t > pend.deadline {
                                Outcome::Expired
                            } else {
                                Outcome::Ended
                            }
                        });
                    }
                    _ => {
                        sweep_expired(now);
                        model.sweep(now);
                    }
                }
            }
            let got = calib_summary();
            let (global, per_prev, sorted) = with_state(|st| {
                let sorted = st
                    .by_cell
                    .iter()
                    .flatten()
                    .all(|b| b.entries.windows(2).all(|w| w[0].conn < w[1].conn));
                let t = &st.tally;
                (t.global.clone(), t.per_prev.clone(), sorted)
            });
            let want = &model.tally;
            assert_eq!(
                [got.predictions, got.superseded, got.hits, got.pending],
                [
                    want.predictions,
                    want.superseded,
                    want.hits,
                    model.pending.len() as u64
                ],
                "seed {seed}"
            );
            assert_eq!(
                [got.miss_wrong_target, got.miss_expired, got.miss_ended],
                [want.miss_wrong_target, want.miss_expired, want.miss_ended],
                "seed {seed}"
            );
            assert!(got.superseded > 0 && got.miss_expired > 0 && got.hits > 0);
            assert!(sorted, "seed {seed}: a batch lost its id order");
            assert_bins_match(&global, &want.global, "global");
            assert_eq!(
                per_prev.keys().collect::<Vec<_>>(),
                want.per_prev.keys().collect::<Vec<_>>()
            );
            for (prev, bins) in &per_prev {
                assert_bins_match(bins, &want.per_prev[prev], "per prev");
            }
        }
    }
}
