//! Eq.-4 prediction calibration: does the Bayes hand-off probability
//! `p_h` actually predict hand-offs?
//!
//! Every per-connection probability emitted while computing `B_r`
//! (Eqs. 5–6) is a falsifiable forecast: *this connection, now in cell
//! `i`, hands into the target cell within `T_est` with probability `p`*.
//! This module scores those forecasts against the realized hand-offs and
//! aggregates them into a 10-bin reliability diagram, a Brier score and
//! its skill over climatology — globally and per `prev`-cell (the
//! strongest conditioning variable of the paper's quadruplet histories).
//!
//! ## Scoring rule
//!
//! A forecast made at sim-time `s` with window `T_est` is scored against
//! its own window `(s, s + T_est]`: it is a **hit** iff the connection's
//! next hand-off attempt (admitted or dropped — the mobile moved either
//! way) goes from the forecast cell to the target inside that window, and
//! a **miss** otherwise. Every forecast is scored, so this is a proper
//! scoring rule: a forecaster that states the true probability reads flat
//! on the diagram.
//!
//! * A hit is scored at the hand-off attempt that makes it.
//! * A miss is scored when its window closes (the first flush of its
//!   `(cell, target)` after the deadline, or [`sweep_expired`]): a
//!   connection that ends, or hands off elsewhere or too late, needs no
//!   store work at that moment.
//! * A forecast whose window is still open at the end of the run is
//!   **pending** (censored): counted, not scored.
//!
//! A forecast made at the instant its connection entered the cell is not
//! the connection's: the simulator evaluates a cell at that instant only
//! inside the connection's own admission test, before registering it.
//!
//! ## Zero forecasts are counts
//!
//! Most forecasts are exactly `0` (the connection cannot hand into the
//! target within `T_est`), and a zero forecast adds nothing to the Brier
//! sum unless its connection hands into the target after all. So an
//! evaluation stores its nonzero forecasts only, plus one *stamp*: its
//! time, its deadline and its zero forecasts counted per `prev`. A hand-off
//! attempt `i → 0` walks the stamps of `(i, 0)` made since the connection
//! entered `i`. In each stamp whose window holds the attempt, it scores
//! the connection's nonzero forecast as a hit, or, when the connection has
//! none there, one of the stamp's zero forecasts of its `prev`.
//!
//! ## Hot-path staging
//!
//! Forecasts are captured inside the timed `compute_br` and admission
//! windows, so producers *stage* each evaluation in the admission's
//! [`crate::Staging`] buffer: per arrival group only its zero count
//! ([`StagedForecasts::group`]), then the evaluation's nonzero forecasts
//! once, already in connection-id order ([`StagedForecasts::nonzero`]).
//! The buffer publishes them after the admission timing record, in one
//! borrow of the telemetry stores.
//!
//! ## Store layout
//!
//! Each `(cell, target)` lane keeps its stamps in evaluation order. A
//! stamp points at two runs in an arena that all lanes share: its nonzero
//! forecasts (sorted by connection id, 16 bytes an entry) and its
//! per-`prev` zero counts, each one slice, so expiry scores a run in one
//! loop and a hand-off binary-searches it in place. A flush first settles
//! the lane's leading stamps whose window closed, so a lane holds the
//! forecasts of about the last `T_est`; before the arena would grow, it
//! moves the live runs down over the settled ones, so it holds about the
//! live forecasts of all lanes together. Lanes and the arena outlive
//! [`reset_calib`], so a run allocates only past its predecessor's peak.
//! Scoring order is fixed by construction (flush order, then lane and
//! stamp order in the sweep), so the floating-point sums of a run depend
//! on nothing but its inputs.

use std::collections::VecDeque;
use std::ops::Range;

use qres_json::Value;

/// Number of reliability-diagram bins over `[0, 1]`.
pub const CALIB_BINS: usize = 10;

/// The `prev` code of a connection that started in its cell.
const NO_PREV: u32 = u32::MAX;

/// The `prev` code a staged forecast carries: the `prev` cell's id, or
/// `u32::MAX` for a connection that started in its cell.
pub fn prev_code(prev: Option<u32>) -> u32 {
    prev.unwrap_or(NO_PREV)
}

/// The [`Tally`] slot of a `prev` code: 0 for [`NO_PREV`], `c + 1` for
/// cell `c`.
fn slot(prev: u32) -> usize {
    prev.wrapping_add(1) as usize
}

/// One nonzero forecast, staged and then stored in its evaluation's run:
/// 16 bytes.
#[derive(Debug, Clone, Copy, Default)]
struct Forecast {
    /// The forecast, negated once it is scored as a hit (a miss is scored
    /// when the window closes). A stored forecast is never zero.
    p: f64,
    /// The connection id modulo 2^32: the connections in one cell at one
    /// time never span 2^32 ids.
    conn: u32,
    prev: u32,
}

/// An evaluation's zero forecasts of one `prev`.
#[derive(Debug, Clone, Copy, Default)]
struct Zeros {
    prev: u32,
    n: u32,
}

/// One staged evaluation; its forecasts and zero counts run from these
/// offsets to the next evaluation's.
#[derive(Debug, Clone, Copy)]
struct StagedEval {
    cell: u32,
    target: u32,
    s: f64,
    deadline: f64,
    forecasts: usize,
    zeros: usize,
    /// The nonzero forecasts its groups declared: what
    /// [`StagedForecasts::nonzero`] must stage for it.
    nonzero: usize,
}

/// One admission's Eq.-4 evaluations, staged in the order they were made:
/// the calibration part of a [`crate::Staging`] buffer.
#[derive(Debug, Default)]
pub struct StagedForecasts {
    evals: Vec<StagedEval>,
    forecasts: Vec<Forecast>,
    zeros: Vec<Zeros>,
}

impl StagedForecasts {
    /// Stages the start of one Eq.-4 evaluation: the connections of `cell`
    /// forecast toward `target` at sim-time `s`, with window deadline
    /// `deadline`. Its forecasts follow through [`StagedForecasts::group`]
    /// and [`StagedForecasts::nonzero`].
    #[inline]
    pub fn evaluation(&mut self, cell: u32, target: u32, s: f64, deadline: f64) {
        self.evals.push(StagedEval {
            cell,
            target,
            s,
            deadline,
            forecasts: self.forecasts.len(),
            zeros: self.zeros.len(),
            nonzero: 0,
        });
    }

    /// Stages one arrival group of the current evaluation: `len`
    /// connections that came from `prev`, of which `nonzero` have a
    /// forecast that is not zero (staged through
    /// [`StagedForecasts::nonzero`]). The rest are zero forecasts.
    pub fn group(&mut self, prev: Option<u32>, len: usize, nonzero: usize) {
        debug_assert!(
            nonzero <= len,
            "{nonzero} nonzero forecasts in a group of {len}"
        );
        let Some(eval) = self.evals.last_mut() else {
            return;
        };
        eval.nonzero += nonzero;
        let prev = prev_code(prev);
        let n = (len - nonzero) as u32;
        if n == 0 {
            return;
        }
        match self.zeros[eval.zeros..].iter_mut().find(|z| z.prev == prev) {
            Some(z) => z.n += n,
            None => self.zeros.push(Zeros { prev, n }),
        }
    }

    /// Stages the current evaluation's nonzero forecasts, as many as its
    /// groups declared, as `(connection, p_h, prev)` with `prev` a
    /// [`prev_code`], in ascending
    /// connection id: the store keeps each evaluation's run sorted by id
    /// modulo 2^32, and sorts only a run that is not (ids that straddle a
    /// multiple of 2^32).
    pub fn nonzero(&mut self, forecasts: impl IntoIterator<Item = (u64, f64, u32)>) {
        if self.evals.is_empty() {
            return;
        }
        self.forecasts
            .extend(forecasts.into_iter().map(|(conn, p, prev)| Forecast {
                p,
                conn: conn as u32,
                prev,
            }));
    }

    /// Stores every staged evaluation in `st` and clears the buffer. `now`
    /// is the current sim-time: each lane stored into first scores its
    /// windows that closed before it.
    pub(crate) fn publish(&mut self, st: &mut CalibState, now: f64) {
        let StagedForecasts {
            evals,
            forecasts,
            zeros,
        } = self;
        for (k, eval) in evals.iter().enumerate() {
            let next = evals.get(k + 1);
            let f_end = next.map_or(forecasts.len(), |e| e.forecasts);
            let z_end = next.map_or(zeros.len(), |e| e.zeros);
            debug_assert_eq!(
                f_end - eval.forecasts,
                eval.nonzero,
                "the nonzero forecasts staged are not the ones the groups declared"
            );
            st.push(
                eval,
                &mut forecasts[eval.forecasts..f_end],
                &zeros[eval.zeros..z_end],
                now,
            );
        }
        self.clear();
    }

    /// [`StagedForecasts::publish`] into this thread's store.
    #[cfg(test)]
    fn flush(&mut self, now: f64) {
        with_state(|st| self.publish(st, now));
    }

    /// Whether nothing is staged.
    pub(crate) fn is_empty(&self) -> bool {
        self.evals.is_empty()
    }

    /// Drops everything staged.
    pub(crate) fn clear(&mut self) {
        self.evals.clear();
        self.forecasts.clear();
        self.zeros.clear();
    }
}

/// Reliability-diagram accumulator: per-bin forecast count, forecast-mass
/// sum and realized hits, plus the Brier sum over all scored forecasts.
#[derive(Debug, Clone, Default)]
pub struct CalibBins {
    /// Scored forecasts per bin (`bin = floor(p * 10)`, clamped).
    pub n: [u64; CALIB_BINS],
    /// Sum of forecast probabilities per bin.
    pub sum_p: [f64; CALIB_BINS],
    /// Realized hand-offs (hits) per bin.
    pub hits: [u64; CALIB_BINS],
    /// Sum of `(p - outcome)^2` over all scored forecasts.
    pub brier_sum: f64,
}

impl CalibBins {
    /// `floor(p * 10)` clamped to the bins (0 for NaN): one signed
    /// conversion, where `as usize` takes two.
    fn bin(p: f64) -> usize {
        ((p * CALIB_BINS as f64) as i32).clamp(0, CALIB_BINS as i32 - 1) as usize
    }

    fn score(&mut self, p: f64, hit: bool) {
        let bin = Self::bin(p);
        self.n[bin] += 1;
        self.sum_p[bin] += p;
        if hit {
            self.hits[bin] += 1;
        }
        let outcome = if hit { 1.0 } else { 0.0 };
        self.brier_sum += (p - outcome) * (p - outcome);
    }

    /// Total scored forecasts.
    pub fn count(&self) -> u64 {
        self.n.iter().sum()
    }

    /// Mean Brier score; `None` with nothing scored.
    pub fn brier(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| self.brier_sum / n as f64)
    }

    /// Brier skill score over climatology, `1 − BS / (ō (1 − ō))` with `ō`
    /// the scored hit rate: 1 for a perfect forecaster, 0 for one that
    /// always states the base rate. `None` when nothing is scored or every
    /// outcome is the same.
    pub fn brier_skill(&self) -> Option<f64> {
        let n = self.count();
        let base = self.hits.iter().sum::<u64>() as f64 / n as f64;
        let climatology = base * (1.0 - base);
        (n > 0 && climatology > 0.0).then(|| 1.0 - self.brier_sum / n as f64 / climatology)
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
        let float = |x: Option<f64>| x.map(Value::Float).unwrap_or(Value::Null);
        Value::Object(vec![
            ("n".into(), Value::UInt(self.count())),
            ("brier".into(), float(self.brier())),
            ("brier_skill".into(), float(self.brier_skill())),
            ("bins".into(), Value::Array(bins)),
        ])
    }
}

/// The per-`prev` reliability diagrams of the scored forecasts and the
/// run's counts.
#[derive(Debug, Default)]
struct Tally {
    /// Indexed by [`slot`]; a slot with nothing scored is not a diagram.
    /// Every stored forecast's slot exists (see [`CalibState::push`]).
    per_prev: Vec<CalibBins>,
    predictions: u64,
    zero_forecasts: u64,
    hits: u64,
}

impl Tally {
    fn bins(&mut self, prev: u32) -> &mut CalibBins {
        let slot = slot(prev);
        if self.per_prev.len() <= slot {
            self.per_prev.resize_with(slot + 1, CalibBins::default);
        }
        &mut self.per_prev[slot]
    }

    fn score(&mut self, p: f64, hit: bool, prev: u32) {
        self.bins(prev).score(p, hit);
        self.hits += u64::from(hit);
    }

    /// Scores the forecasts and zero counts of closed windows as misses, in
    /// order, skipping the forecasts already scored as hits (negated). A
    /// zero count adds to bin 0's count and nothing to any sum.
    fn score_misses(&mut self, forecasts: &[Forecast], zeros: &[Zeros]) {
        for f in forecasts.iter().filter(|f| f.p > 0.0) {
            self.per_prev[slot(f.prev)].score(f.p, false);
        }
        for z in zeros {
            self.per_prev[slot(z.prev)].n[0] += u64::from(z.n);
        }
    }

    /// Zeroes every count and sum, keeping the slots.
    fn reset(&mut self) {
        self.per_prev.fill_with(CalibBins::default);
        (self.predictions, self.zero_forecasts, self.hits) = (0, 0, 0);
    }

    /// The per-`prev` diagrams, `"none"` first, then by `prev` cell.
    fn diagrams(&self) -> impl Iterator<Item = (String, &CalibBins)> {
        self.per_prev
            .iter()
            .enumerate()
            .filter(|(_, bins)| bins.count() > 0)
            .map(|(slot, bins)| match slot {
                0 => ("none".to_string(), bins),
                _ => ((slot - 1).to_string(), bins),
            })
    }

    /// The global diagram: the per-`prev` ones summed in slot order.
    fn global(&self) -> CalibBins {
        let mut global = CalibBins::default();
        for bins in &self.per_prev {
            for b in 0..CALIB_BINS {
                global.n[b] += bins.n[b];
                global.sum_p[b] += bins.sum_p[b];
                global.hits[b] += bins.hits[b];
            }
            global.brier_sum += bins.brier_sum;
        }
        global
    }
}

/// One evaluation in a lane: its window and where its runs of nonzero
/// forecasts and zero counts lie in the [`Arena`].
#[derive(Debug, Clone, Copy)]
struct Stamp {
    s: f64,
    deadline: f64,
    forecasts: u32,
    n_forecasts: u32,
    zeros: u32,
    n_zeros: u32,
}

impl Stamp {
    fn forecasts(&self) -> Range<usize> {
        let at = self.forecasts as usize;
        at..at + self.n_forecasts as usize
    }

    fn zeros(&self) -> Range<usize> {
        let at = self.zeros as usize;
        at..at + self.n_zeros as usize
    }
}

/// The runs of every lane's stamps, in push order: each stamp's nonzero
/// forecasts are one slice of `forecasts`, its zero counts one slice of
/// `zeros`. A run whose stamp is settled becomes dead space, which
/// [`CalibState::compact`] reclaims before a `Vec` would grow, so the
/// arena holds about the live forecasts of all lanes together.
#[derive(Debug, Default)]
struct Arena {
    forecasts: Vec<Forecast>,
    zeros: Vec<Zeros>,
    dead_forecasts: usize,
    dead_zeros: usize,
}

impl Arena {
    fn clear(&mut self) {
        self.forecasts.clear();
        self.zeros.clear();
        (self.dead_forecasts, self.dead_zeros) = (0, 0);
    }

    /// Scores what `stamp`'s runs still hold as misses; the runs are dead.
    fn expire(&mut self, stamp: &Stamp, tally: &mut Tally) {
        tally.score_misses(
            &self.forecasts[stamp.forecasts()],
            &self.zeros[stamp.zeros()],
        );
        self.dead_forecasts += stamp.n_forecasts as usize;
        self.dead_zeros += stamp.n_zeros as usize;
    }

    /// Whether appending `forecasts` and `zeros` entries would grow a
    /// `Vec` that is at least half dead space: compacting then frees at
    /// least that half, so an entry is moved at most once per entry
    /// appended, on average.
    fn compact_first(&self, forecasts: usize, zeros: usize) -> bool {
        fn due<T>(v: &Vec<T>, dead: usize, more: usize) -> bool {
            v.len() + more > v.capacity() && 2 * dead >= v.len()
        }
        due(&self.forecasts, self.dead_forecasts, forecasts)
            || due(&self.zeros, self.dead_zeros, zeros)
    }
}

/// The open forecasts of one `(cell, target)`: its stamps in evaluation
/// order.
#[derive(Debug, Default)]
struct Lane {
    target: u32,
    stamps: VecDeque<Stamp>,
}

impl Lane {
    /// Scores the leading stamps whose window closed before `now`.
    /// Deadlines need not rise along the lane (`T_est` moves), so the
    /// rest wait for a later flush or [`sweep_expired`].
    fn expire_closed(&mut self, now: f64, arena: &mut Arena, tally: &mut Tally) {
        while let Some(stamp) = self.stamps.front().filter(|s| s.deadline < now) {
            arena.expire(stamp, tally);
            self.stamps.pop_front();
        }
    }

    /// Scores every stamp whose window closed before `now`, keeping the
    /// rest in order.
    fn expire_all(&mut self, now: f64, arena: &mut Arena, tally: &mut Tally) {
        for _ in 0..self.stamps.len() {
            let Some(stamp) = self.stamps.pop_front() else {
                break;
            };
            if stamp.deadline < now {
                arena.expire(&stamp, tally);
            } else {
                self.stamps.push_back(stamp);
            }
        }
    }

    /// Scores connection `conn`'s forecasts that its hand-off attempt
    /// into the target at `t` makes hits: those of the stamps made after
    /// it entered the cell (`entered`) whose window holds `t`.
    fn score_attempt(
        &self,
        conn: u32,
        prev: u32,
        entered: f64,
        t: f64,
        arena: &mut Arena,
        tally: &mut Tally,
    ) {
        for stamp in self.stamps.iter().rev() {
            if stamp.s <= entered {
                break;
            }
            if !(stamp.s < t && t <= stamp.deadline) {
                continue;
            }
            // The evaluation's run is sorted by connection id.
            let run = &mut arena.forecasts[stamp.forecasts()];
            let i = run.partition_point(|f| f.conn < conn);
            if let Some(f) = run.get_mut(i).filter(|f| f.conn == conn) {
                if f.p > 0.0 {
                    tally.score(f.p, true, f.prev);
                    f.p = -f.p;
                }
            } else if let Some(z) = arena.zeros[stamp.zeros()]
                .iter_mut()
                .find(|z| z.prev == prev && z.n > 0)
            {
                z.n -= 1;
                tally.score(0.0, true, prev);
            }
        }
    }

    /// Forecasts not scored yet.
    fn pending(&self, arena: &Arena) -> u64 {
        let stamps = self.stamps.iter();
        stamps
            .map(|s| {
                let open = arena.forecasts[s.forecasts()]
                    .iter()
                    .filter(|f| f.p > 0.0)
                    .count() as u64;
                open + arena.zeros[s.zeros()]
                    .iter()
                    .map(|z| u64::from(z.n))
                    .sum::<u64>()
            })
            .sum()
    }
}

/// The calibration store of an [`crate::Obs`].
#[derive(Debug, Default)]
pub(crate) struct CalibState {
    /// Lanes indexed by the (dense) id of the forecast cell, then by
    /// target in first-seen order (a cell has few neighbors).
    by_cell: Vec<Vec<Lane>>,
    arena: Arena,
    tally: Tally,
    /// Compaction's scratch: every live stamp's run offsets and place.
    order: Vec<(u32, u32, u32, u32, u32)>,
}

impl CalibState {
    fn pending(&self) -> u64 {
        let lanes = self.by_cell.iter().flatten();
        lanes.map(|lane| lane.pending(&self.arena)).sum()
    }

    /// Stores one staged evaluation at flush time `now`, after settling
    /// its lane's closed windows. `forecasts` is sorted by connection id
    /// here only if it is not already.
    fn push(&mut self, eval: &StagedEval, forecasts: &mut [Forecast], zeros: &[Zeros], now: f64) {
        if !forecasts.is_sorted_by_key(|f| f.conn) {
            forecasts.sort_unstable_by_key(|f| f.conn);
        }
        let n_zero: u64 = zeros.iter().map(|z| u64::from(z.n)).sum();
        self.tally.predictions += forecasts.len() as u64 + n_zero;
        self.tally.zero_forecasts += n_zero;
        // Every slot this evaluation can score into exists from here on.
        let prevs = forecasts
            .iter()
            .map(|f| f.prev)
            .chain(zeros.iter().map(|z| z.prev));
        let slots = prevs.map(|prev| slot(prev) + 1).max().unwrap_or(0);
        if self.tally.per_prev.len() < slots {
            self.tally.per_prev.resize_with(slots, CalibBins::default);
        }
        if self.arena.compact_first(forecasts.len(), zeros.len()) {
            self.compact();
        }
        let arena = &mut self.arena;
        let lane = lane_mut(&mut self.by_cell, eval.cell, eval.target);
        lane.expire_closed(now, arena, &mut self.tally);
        let offset = |len: usize| u32::try_from(len).expect("under 2^32 open forecasts");
        lane.stamps.push_back(Stamp {
            s: eval.s,
            deadline: eval.deadline,
            forecasts: offset(arena.forecasts.len()),
            n_forecasts: offset(forecasts.len()),
            zeros: offset(arena.zeros.len()),
            n_zeros: offset(zeros.len()),
        });
        arena.forecasts.extend_from_slice(forecasts);
        arena.zeros.extend_from_slice(zeros);
    }

    /// Moves every live run down over the dead space, in push order, and
    /// points the stamps at their new places. Runs were pushed with both
    /// offsets rising, so sorting by the offsets restores push order, and
    /// each run moves to an offset at or below its own.
    fn compact(&mut self) {
        let order = &mut self.order;
        order.clear();
        for (c, lanes) in self.by_cell.iter().enumerate() {
            for (l, lane) in lanes.iter().enumerate() {
                for (k, s) in lane.stamps.iter().enumerate() {
                    order.push((s.forecasts, s.zeros, c as u32, l as u32, k as u32));
                }
            }
        }
        order.sort_unstable();
        let arena = &mut self.arena;
        let (mut f, mut z) = (0, 0);
        for &(_, _, c, l, k) in order.iter() {
            let stamp = &mut self.by_cell[c as usize][l as usize].stamps[k as usize];
            arena.forecasts.copy_within(stamp.forecasts(), f);
            arena.zeros.copy_within(stamp.zeros(), z);
            (stamp.forecasts, stamp.zeros) = (f as u32, z as u32);
            f += stamp.n_forecasts as usize;
            z += stamp.n_zeros as usize;
        }
        arena.forecasts.truncate(f);
        arena.zeros.truncate(z);
        (arena.dead_forecasts, arena.dead_zeros) = (0, 0);
    }

    /// [`observe_attempt`] on this store, for a connection not declared
    /// toward another cell.
    pub(crate) fn observe_attempt(
        &mut self,
        conn: u64,
        from: u32,
        to: u32,
        t: f64,
        entered: f64,
        prev: Option<u32>,
    ) {
        let lanes = self.by_cell.get(from as usize);
        let Some(lane) = lanes.and_then(|lanes| lanes.iter().find(|l| l.target == to)) else {
            return;
        };
        let (conn, prev) = (conn as u32, prev_code(prev));
        lane.score_attempt(conn, prev, entered, t, &mut self.arena, &mut self.tally);
    }
}

/// The lane of `(cell, target)`, created on first use.
fn lane_mut(by_cell: &mut Vec<Vec<Lane>>, cell: u32, target: u32) -> &mut Lane {
    let cell = cell as usize;
    if by_cell.len() <= cell {
        by_cell.resize_with(cell + 1, Vec::new);
    }
    let lanes = &mut by_cell[cell];
    let i = match lanes.iter().position(|l| l.target == target) {
        Some(i) => i,
        None => {
            lanes.push(Lane {
                target,
                ..Lane::default()
            });
            lanes.len() - 1
        }
    };
    &mut lanes[i]
}

fn with_state<R>(f: impl FnOnce(&mut CalibState) -> R) -> R {
    crate::with_stores(|s| f(&mut s.calib))
}

/// Scores connection `conn`'s hand-off attempt from cell `from` to `to`
/// at sim-time `t`: each of its forecasts toward `to` made after it
/// entered `from` (at `entered`, coming from `prev`) whose window holds
/// `t` is a hit. Admitted and dropped attempts both count — the mobile
/// moved either way. A connection declared toward another cell
/// (`declared`) made no forecast toward `to`. Its other forecasts are
/// misses, scored when their windows close. The simulator reaches this
/// through [`crate::observe_handoff`].
pub fn observe_attempt(
    conn: u64,
    from: u32,
    to: u32,
    t: f64,
    entered: f64,
    prev: Option<u32>,
    declared: Option<u32>,
) {
    if declared.is_some_and(|d| d != to) {
        return;
    }
    with_state(|st| st.observe_attempt(conn, from, to, t, entered, prev));
}

/// Scores every forecast whose window closed strictly before `now` as a
/// miss, in cell, lane and stamp order. Call at end of run so forecasts
/// for connections that neither moved nor completed are still scored;
/// later windows stay pending.
pub fn sweep_expired(now: f64) {
    with_state(|st| {
        for lane in st.by_cell.iter_mut().flatten() {
            lane.expire_all(now, &mut st.arena, &mut st.tally);
        }
    });
}

/// Clears all calibration state. The lanes and the arena keep their
/// storage for the next run, which then allocates only past this one's
/// peak.
pub fn reset_calib() {
    with_state(|st| {
        st.by_cell
            .iter_mut()
            .flatten()
            .for_each(|l| l.stamps.clear());
        st.arena.clear();
        st.tally.reset();
    });
}

/// Point-in-time summary counts of the calibration store.
#[derive(Debug, Clone, Default)]
pub struct CalibSummary {
    /// Forecasts recorded (flushed), zero forecasts included.
    pub predictions: u64,
    /// Forecasts that were exactly zero.
    pub zero_forecasts: u64,
    /// Forecasts whose window is still open and that have not hit.
    pub pending: u64,
    /// Forecasts scored: hits plus misses.
    pub scored: u64,
    /// Forecasts scored as hits.
    pub hits: u64,
    /// Mean Brier score over everything scored.
    pub brier: Option<f64>,
    /// Brier skill score over climatology ([`CalibBins::brier_skill`]).
    pub brier_skill: Option<f64>,
}

/// Summary counts for quick assertions.
pub fn calib_summary() -> CalibSummary {
    with_state(|st| {
        let t = &st.tally;
        let global = t.global();
        CalibSummary {
            predictions: t.predictions,
            zero_forecasts: t.zero_forecasts,
            pending: st.pending(),
            scored: global.count(),
            hits: t.hits,
            brier: global.brier(),
            brier_skill: global.brier_skill(),
        }
    })
}

/// The calibration snapshot: summary counters, the global reliability
/// diagram, and one diagram per `prev`-cell (`"none"` for connections
/// that started in the forecast cell).
pub fn calib_json() -> Value {
    with_state(|st| {
        let t = &st.tally;
        let per_prev = t
            .diagrams()
            .map(|(key, bins)| (key, bins.to_json()))
            .collect();
        let pending = st.pending();
        Value::Object(vec![
            ("predictions".into(), Value::UInt(t.predictions)),
            ("zero_forecasts".into(), Value::UInt(t.zero_forecasts)),
            ("pending".into(), Value::UInt(pending)),
            ("hits".into(), Value::UInt(t.hits)),
            ("global".into(), t.global().to_json()),
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

    let num = |obj: &Value, key: &str| -> Option<f64> {
        match obj.get(key) {
            Some(Value::Float(x)) => Some(*x),
            Some(Value::Int(n)) => Some(*n as f64),
            Some(Value::UInt(n)) => Some(*n as f64),
            _ => None,
        }
    };
    let count = |key: &str| num(v, key).unwrap_or(0.0) as u64;
    let skill = |diagram: &Value| match num(diagram, "brier_skill") {
        Some(s) => format!("{s:>+8.4}"),
        None => format!("{:>8}", "-"),
    };

    let mut out = String::new();
    let global = v.get("global").ok_or("missing `global` section")?;
    let scored = num(global, "n").unwrap_or(0.0) as u64;
    let _ = writeln!(
        out,
        "Eq.-4 calibration: {} forecasts ({} zero), {} scored (hits {}, misses {}), {} pending (window open at the end)",
        count("predictions"),
        count("zero_forecasts"),
        scored,
        count("hits"),
        scored.saturating_sub(count("hits")),
        count("pending"),
    );
    if let Some(b) = num(global, "brier") {
        let _ = writeln!(
            out,
            "Brier score: {b:.4}, skill over climatology: {}",
            skill(global).trim_start()
        );
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
            let _ = writeln!(out, "  prev           n      brier      skill");
            for (key, diagram) in per_prev {
                let n = num(diagram, "n").unwrap_or(0.0) as u64;
                let brier = match num(diagram, "brier") {
                    Some(b) => format!("{b:>8.4}"),
                    None => format!("{:>8}", "-"),
                };
                let _ = writeln!(out, "  {key:<6} {n:>9}   {brier}   {}", skill(diagram));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// An arrival group: its `prev`, its length and its nonzero forecasts.
    type Group<'a> = (Option<u32>, usize, &'a [(u64, f64)]);

    /// Stages the arrival groups of the current evaluation the way
    /// `neighbor_contribution` does: each group's zero count, then every
    /// nonzero forecast, in ascending connection id when `sorted`.
    fn stage_groups(staged: &mut StagedForecasts, groups: &[Group<'_>], sorted: bool) {
        let mut nonzero = Vec::new();
        for &(prev, len, group) in groups {
            staged.group(prev, len, group.len());
            nonzero.extend(group.iter().map(|&(c, p)| (c, p, prev_code(prev))));
        }
        if sorted {
            nonzero.sort_unstable_by_key(|f| f.0);
        }
        staged.nonzero(nonzero);
    }

    /// One evaluation of `cell` toward `target` at `s` with window `t_est`,
    /// over groups of `(prev, len, nonzero forecasts)`, flushed at `s`.
    fn evaluate(cell: u32, target: u32, s: f64, t_est: f64, groups: &[Group<'_>]) {
        let mut staged = StagedForecasts::default();
        staged.evaluation(cell, target, s, s + t_est);
        stage_groups(&mut staged, groups, true);
        staged.flush(s);
    }

    fn hit_rates() -> Vec<(u64, u64)> {
        with_state(|st| {
            (0..CALIB_BINS)
                .map(|b| {
                    let global = st.tally.global();
                    (global.n[b], global.hits[b])
                })
                .collect()
        })
    }

    #[test]
    fn handoff_to_target_within_window_is_a_hit() {
        evaluate(1, 2, 10.0, 20.0, &[(None, 1, &[(100, 0.75)])]);
        observe_attempt(100, 1, 2, 20.0, 0.0, None, None);
        let s = calib_summary();
        assert_eq!((s.hits, s.scored, s.pending), (1, 1, 0));
        // Brier for one hit at p = 0.75: (0.75 - 1)^2.
        assert!((s.brier.unwrap() - 0.0625).abs() < 1e-12);
    }

    #[test]
    fn handoff_to_different_neighbor_is_a_miss() {
        // Forecasts toward both neighbors; the mobile goes to cell 2:
        // the cell-2 forecast hits at once, the cell-3 forecast stays
        // pending until its window closes.
        evaluate(1, 2, 10.0, 20.0, &[(None, 1, &[(100, 0.6)])]);
        evaluate(1, 3, 10.0, 20.0, &[(None, 1, &[(100, 0.4)])]);
        observe_attempt(100, 1, 2, 20.0, 0.0, None, None);
        let s = calib_summary();
        assert_eq!((s.hits, s.scored, s.pending), (1, 1, 1));
        sweep_expired(30.0 + 1e-9);
        let s = calib_summary();
        assert_eq!((s.hits, s.scored, s.pending), (1, 2, 0));
    }

    #[test]
    fn prediction_expires_unmatched_at_t_est_boundary() {
        evaluate(1, 2, 10.0, 20.0, &[(None, 1, &[(100, 0.9)])]);
        // At exactly the deadline the window is still open (a hand-off at
        // t == deadline would hit), so a sweep at 30.0 scores nothing...
        sweep_expired(30.0);
        assert_eq!(calib_summary().pending, 1);
        // ...and one instant past it the forecast is a miss.
        sweep_expired(30.0 + 1e-9);
        let s = calib_summary();
        assert_eq!((s.scored, s.hits, s.pending), (1, 0, 0));
        // Brier for one miss at p = 0.9: 0.81.
        assert!((s.brier.unwrap() - 0.81).abs() < 1e-12);
    }

    #[test]
    fn late_handoff_past_deadline_is_an_expired_miss() {
        evaluate(1, 2, 10.0, 20.0, &[(None, 1, &[(100, 0.5)])]);
        observe_attempt(100, 1, 2, 31.0, 0.0, None, None);
        assert_eq!(calib_summary().hits, 0);
        sweep_expired(31.0);
        let s = calib_summary();
        assert_eq!((s.scored, s.hits, s.pending), (1, 0, 0));
    }

    /// A connection that completes needs no call: its forecasts are
    /// misses, scored when their windows close.
    #[test]
    fn completion_resolves_as_miss() {
        evaluate(1, 2, 10.0, 20.0, &[(None, 2, &[(100, 0.3)])]);
        sweep_expired(30.0 + 1e-9);
        let s = calib_summary();
        assert_eq!((s.scored, s.hits, s.pending), (2, 0, 0));
    }

    #[test]
    fn each_forecast_is_scored_against_its_own_window() {
        // Three evaluations of the same connection; the hand-off at 35
        // lies in the windows of the last two only, (20, 40] and (30, 50].
        for (s, p) in [(10.0, 0.2), (20.0, 0.5), (30.0, 0.7)] {
            evaluate(1, 2, s, 20.0, &[(Some(4), 1, &[(100, p)])]);
        }
        observe_attempt(100, 1, 2, 35.0, 5.0, Some(4), None);
        sweep_expired(100.0);
        let s = calib_summary();
        assert_eq!((s.predictions, s.scored, s.hits), (3, 3, 2));
        let bins = hit_rates();
        assert_eq!((bins[2], bins[5], bins[7]), ((1, 0), (1, 1), (1, 1)));
    }

    #[test]
    fn zero_forecasts_are_counted_and_can_hit() {
        // Two connections from cell 4 forecast zero, one forecast 0.5;
        // one zero-forecast connection hands into the target in time.
        evaluate(1, 2, 10.0, 20.0, &[(Some(4), 3, &[(101, 0.5)])]);
        let s = calib_summary();
        assert_eq!((s.predictions, s.zero_forecasts, s.pending), (3, 2, 3));
        observe_attempt(100, 1, 2, 15.0, 5.0, Some(4), None);
        sweep_expired(100.0);
        let s = calib_summary();
        assert_eq!((s.scored, s.hits, s.pending), (3, 1, 0));
        // Bin 0: two zero forecasts, one hit; bin 5: the 0.5 miss.
        let bins = hit_rates();
        assert_eq!((bins[0], bins[5]), ((2, 1), (1, 0)));
        // Brier: one zero hit (1) and one 0.5 miss (0.25) over three.
        assert!((s.brier.unwrap() - 1.25 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn forecasts_before_the_entry_do_not_score_a_later_residence() {
        // Connection 100 is forecast in cell 1 at 10 and 20, leaves for
        // cell 3 at 25, comes back at 28 and hands into cell 2 at 29: the
        // earlier forecasts' next attempt was the one to cell 3.
        evaluate(1, 2, 10.0, 30.0, &[(None, 1, &[(100, 0.4)])]);
        evaluate(1, 2, 20.0, 30.0, &[(None, 2, &[])]);
        observe_attempt(100, 1, 3, 25.0, 0.0, None, None);
        observe_attempt(100, 1, 2, 29.0, 28.0, Some(3), None);
        sweep_expired(100.0);
        let s = calib_summary();
        assert_eq!((s.scored, s.hits), (3, 0));
    }

    #[test]
    fn an_evaluation_at_the_entry_instant_precedes_the_entry() {
        // An admission at 10 evaluates cell 1 toward cell 2 before it
        // registers connection 100 in cell 1: the zero forecast at 10 is
        // another connection's.
        evaluate(1, 2, 10.0, 20.0, &[(None, 1, &[])]);
        observe_attempt(100, 1, 2, 15.0, 10.0, None, None);
        sweep_expired(100.0);
        assert_eq!(calib_summary().hits, 0);
    }

    #[test]
    fn a_connection_declared_elsewhere_forecast_nothing_toward_the_target() {
        evaluate(1, 2, 10.0, 20.0, &[(None, 1, &[])]);
        // Connection 100 declared cell 3 (and so was not in the
        // evaluation toward cell 2); it turns into cell 2 anyway.
        observe_attempt(100, 1, 2, 15.0, 0.0, None, Some(3));
        sweep_expired(100.0);
        let s = calib_summary();
        assert_eq!((s.scored, s.hits), (1, 0));
    }

    #[test]
    fn per_prev_diagrams_split_by_conditioning_cell() {
        evaluate(
            1,
            2,
            10.0,
            20.0,
            &[(Some(5), 1, &[(100, 0.8)]), (None, 1, &[(101, 0.2)])],
        );
        observe_attempt(100, 1, 2, 20.0, 0.0, Some(5), None);
        sweep_expired(100.0);
        let json = calib_json();
        let per_prev = json.get("per_prev").unwrap();
        assert!(per_prev.get("5").is_some());
        assert!(per_prev.get("none").is_some());
        let doc = Value::Object(vec![(
            "qos".into(),
            Value::Object(vec![("calib".into(), json)]),
        )]);
        let report = render_calib_report(&doc).unwrap();
        assert!(report.contains("2 forecasts (0 zero)"), "{report}");
        assert!(report.contains("skill over climatology"), "{report}");
        assert!(report.contains("reliability diagram"));
        assert!(report.contains("per prev-cell:"));
    }

    /// A run after `reset_calib` reuses the storage of the run before it:
    /// the same run again grows no lane, no arena and no diagram table.
    #[test]
    fn storage_is_reused_after_a_reset() {
        let run = || {
            for k in 0..400u64 {
                let s = k as f64;
                let nonzero: Vec<(u64, f64)> = (k..k + 20).map(|c| (c, 0.5)).collect();
                evaluate(1, 2, s, 30.0, &[(Some(4), 25, &nonzero)]);
                observe_attempt(k, 1, 2, s + 0.5, s - 1.0, Some(4), None);
            }
        };
        let capacities = || {
            with_state(|st| {
                [
                    st.by_cell[1][0].stamps.capacity(),
                    st.arena.forecasts.capacity(),
                    st.arena.zeros.capacity(),
                    st.tally.per_prev.capacity(),
                ]
            })
        };
        run();
        let first = capacities();
        // About 31 windows of 20 forecasts are open at a time; compaction
        // keeps the arena well below the 8,000 forecasts pushed.
        assert!((30 * 20..4_000).contains(&first[1]), "{first:?}");
        reset_calib();
        assert_eq!(calib_summary().predictions, 0);
        assert_eq!(capacities(), first, "the reset kept the storage");
        run();
        assert_eq!(capacities(), first, "the second run grew nothing");
    }

    /// Connection ids that straddle 2^32 wrap in the store's `u32` key,
    /// so an evaluation staged in ascending id is not ascending there:
    /// the store sorts that run, and each connection's hand-off still
    /// finds its own forecast.
    #[test]
    fn ids_straddling_2_pow_32_score_their_own_forecasts() {
        let ids = [(1u64 << 32) - 2, (1 << 32) - 1, 1 << 32, (1 << 32) + 1];
        let forecasts: Vec<(u64, f64)> = ids
            .iter()
            .zip([0.15, 0.35, 0.55, 0.75])
            .map(|(&c, p)| (c, p))
            .collect();
        evaluate(1, 2, 10.0, 20.0, &[(Some(3), 4, &forecasts)]);
        for (k, &(conn, _)) in forecasts.iter().enumerate() {
            observe_attempt(conn, 1, 2, 11.0 + k as f64, 5.0, Some(3), None);
        }
        let s = calib_summary();
        assert_eq!((s.predictions, s.hits, s.scored, s.pending), (4, 4, 4, 0));
        // Each hit lands in its own forecast's bin.
        let bins = hit_rates();
        for b in [1, 3, 5, 7] {
            assert_eq!(bins[b], (1, 1), "bin {b}");
        }
    }

    /// Groups that declare fewer nonzero forecasts than the evaluation
    /// stages would leave the zero counts, and so `predictions`, wrong.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "the nonzero forecasts staged are not the ones")]
    fn nonzero_forecasts_must_match_their_groups() {
        let mut staged = StagedForecasts::default();
        staged.evaluation(1, 2, 10.0, 30.0);
        staged.group(Some(3), 4, 1);
        staged.nonzero([(7, 0.5, 3), (8, 0.25, 3)]);
        staged.flush(10.0);
    }

    /// Brier skill: 0 for a forecaster that always states the base rate,
    /// 1 for a perfect one.
    #[test]
    fn brier_skill_is_relative_to_climatology() {
        let mut climatology = CalibBins::default();
        let mut perfect = CalibBins::default();
        for k in 0..4 {
            climatology.score(0.25, k == 0);
            perfect.score(if k == 0 { 1.0 } else { 0.0 }, k == 0);
        }
        assert!(climatology.brier_skill().unwrap().abs() < 1e-12);
        assert_eq!(perfect.brier_skill(), Some(1.0));
        assert_eq!(CalibBins::default().brier_skill(), None);
    }

    #[test]
    fn report_rejects_non_calibration_documents() {
        let doc = Value::Object(vec![("x".into(), Value::Null)]);
        assert!(render_calib_report(&doc).is_err());
        // A bare calibration document is not an `obs.json`.
        let bare = Value::parse(r#"{"predictions":0,"global":{"bins":[]}}"#).unwrap();
        assert!(render_calib_report(&bare).is_err());
    }

    /// SplitMix64: a seeded stream for the randomized tests.
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

        /// Uniform on `[0, 1)`.
        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// One forecast as the reference keeps it.
    struct Kept {
        conn: u64,
        cell: u32,
        target: u32,
        prev: u32,
        p: f64,
        s: f64,
        deadline: f64,
        /// Scored already (a hit, or a miss whose window closed).
        scored: bool,
        /// Its next hand-off attempt happened and was not a hit.
        missed: bool,
    }

    /// The reference: every forecast kept and scored one at a time
    /// against its own window, exactly as the module docs state.
    #[derive(Default)]
    struct Reference {
        kept: Vec<Kept>,
        tally: Tally,
    }

    impl Reference {
        fn attempt(&mut self, conn: u64, from: u32, to: u32, t: f64) {
            for k in self.kept.iter_mut() {
                if k.conn != conn || k.cell != from || k.scored || k.missed {
                    continue;
                }
                if k.target == to && k.s < t && t <= k.deadline {
                    k.scored = true;
                    self.tally.score(k.p, true, k.prev);
                } else {
                    k.missed = true;
                }
            }
        }

        fn sweep(&mut self, now: f64) {
            for k in self.kept.iter_mut() {
                if !k.scored && k.deadline < now {
                    k.scored = true;
                    self.tally.score(k.p, false, k.prev);
                }
            }
        }
    }

    #[derive(Clone, Copy)]
    struct Conn {
        id: u64,
        cell: u32,
        prev: Option<u32>,
        entered: f64,
        declared: Option<u32>,
    }

    fn assert_bins_match(store: &CalibBins, reference: &CalibBins, what: &str) {
        assert_eq!(store.n, reference.n, "{what}: per-bin n");
        assert_eq!(store.hits, reference.hits, "{what}: per-bin hits");
        // Scoring order differs between the two, so the sums may differ
        // in the last bits.
        for b in 0..CALIB_BINS {
            let (got, want) = (store.sum_p[b], reference.sum_p[b]);
            assert!(
                (got - want).abs() < 1e-9,
                "{what}: sum_p[{b}] {got} vs {want}"
            );
        }
        let (got, want) = (store.brier_sum, reference.brier_sum);
        assert!(
            (got - want).abs() < 1e-9,
            "{what}: Brier sum {got} vs {want}"
        );
    }

    /// The store agrees with the forecast-at-a-time reference on random
    /// runs of four mutually adjacent cells: evaluations staged several
    /// to a flush, admissions registered right after their own
    /// evaluations (at the same instant), hand-offs (often straight back
    /// into the cell just left, within `T_est`), declared next cells,
    /// ends, sweeps, and `T_est` changing between evaluations, with
    /// whole-second times so evaluations, hand-offs and deadlines tie.
    /// Time moves on after a connection enters a cell, so a cell is never
    /// evaluated at that instant after the entry: the one tie the store
    /// cannot see, and one the simulator's continuous clock does not make
    /// (see the module docs).
    #[test]
    fn store_matches_forecast_at_a_time_reference() {
        const CELLS: u32 = 4;
        let mut pending_seen = false;
        for seed in 1..=8 {
            reset_calib();
            let mut rng = Rng(seed);
            let mut reference = Reference::default();
            let mut conns: Vec<Conn> = Vec::new();
            let mut next_id = 0u64;
            let mut now = 0.0;
            let mut reentries = 0u64;
            for _ in 0..4_000 {
                now += rng.below(2) as f64;
                match rng.below(10) {
                    0..=4 => {
                        // An admission test: one to three evaluations,
                        // one flush, then maybe a new connection.
                        let mut staged = StagedForecasts::default();
                        for _ in 0..1 + rng.below(3) {
                            let cell = rng.below(u64::from(CELLS)) as u32;
                            let target =
                                (cell + 1 + rng.below(u64::from(CELLS) - 1) as u32) % CELLS;
                            let t_est = rng.below(6) as f64;
                            staged.evaluation(cell, target, now, now + t_est);
                            let mut groups: BTreeMap<_, (usize, Vec<(u64, f64)>)> = BTreeMap::new();
                            for c in conns.iter().filter(|c| c.cell == cell) {
                                if c.declared.is_some_and(|d| d != target) {
                                    continue;
                                }
                                let p = match rng.below(3) {
                                    0 => (1 + rng.below(1_000)) as f64 / 1_000.0,
                                    _ => 0.0,
                                };
                                let group = groups.entry((c.prev, c.declared)).or_default();
                                group.0 += 1;
                                if p > 0.0 {
                                    group.1.push((c.id, p));
                                }
                                reference.kept.push(Kept {
                                    conn: c.id,
                                    cell,
                                    target,
                                    prev: prev_code(c.prev),
                                    p,
                                    s: now,
                                    deadline: now + t_est,
                                    scored: false,
                                    missed: false,
                                });
                                reference.tally.predictions += 1;
                                reference.tally.zero_forecasts += u64::from(p == 0.0);
                            }
                            let groups: Vec<Group<'_>> = (groups.iter())
                                .map(|((prev, _), (len, nonzero))| (*prev, *len, &nonzero[..]))
                                .collect();
                            // Odd seeds stage each group's forecasts in turn,
                            // so the store sorts the run itself.
                            stage_groups(&mut staged, &groups, seed.is_multiple_of(2));
                        }
                        staged.flush(now);
                        if rng.below(2) == 0 {
                            let cell = rng.below(u64::from(CELLS)) as u32;
                            let declared = (rng.below(3) == 0).then(|| (cell + 1) % CELLS);
                            conns.push(Conn {
                                id: next_id,
                                cell,
                                prev: None,
                                entered: now,
                                declared,
                            });
                            next_id += 1;
                            now += 1.0;
                        }
                    }
                    5..=7 if !conns.is_empty() => {
                        // Half the time, the connection that moved last
                        // moves again.
                        let i = match conns.len() - 1 {
                            last if rng.below(2) == 0 => last,
                            _ => rng.below(conns.len() as u64) as usize,
                        };
                        let c = conns[i];
                        let to = match (c.declared, c.prev) {
                            (Some(d), _) if rng.below(4) != 0 => d,
                            (None, Some(prev)) if rng.below(2) == 0 => prev,
                            _ => (c.cell + 1 + rng.below(u64::from(CELLS) - 1) as u32) % CELLS,
                        };
                        // Straight back into the cell it came from, inside
                        // the longest window (5 s).
                        reentries += u64::from(Some(to) == c.prev && now - c.entered <= 5.0);
                        observe_attempt(c.id, c.cell, to, now, c.entered, c.prev, c.declared);
                        reference.attempt(c.id, c.cell, to, now);
                        if rng.below(5) == 0 {
                            conns.swap_remove(i);
                        } else {
                            conns.remove(i);
                            conns.push(Conn {
                                cell: to,
                                prev: Some(c.cell),
                                entered: now,
                                declared: (rng.below(3) == 0).then(|| (to + 1) % CELLS),
                                ..c
                            });
                        }
                        now += 1.0;
                    }
                    8 if !conns.is_empty() => {
                        conns.swap_remove(rng.below(conns.len() as u64) as usize);
                    }
                    _ => {
                        sweep_expired(now);
                        reference.sweep(now);
                    }
                }
            }
            sweep_expired(now);
            reference.sweep(now);
            let got = calib_summary();
            let want = &reference.tally;
            let pending = reference.kept.iter().filter(|k| !k.scored).count() as u64;
            assert_eq!(
                [got.predictions, got.zero_forecasts, got.hits, got.pending],
                [want.predictions, want.zero_forecasts, want.hits, pending],
                "seed {seed}"
            );
            assert!(
                got.hits > 100 && got.zero_forecasts > 1_000,
                "seed {seed}: {got:?}"
            );
            pending_seen |= got.pending > 0;
            let stored = with_state(|st| st.arena.forecasts.len() as u64);
            assert!(
                stored < got.predictions - got.zero_forecasts,
                "seed {seed}: the arena never compacted"
            );
            assert!(reentries > 100, "seed {seed}: {reentries} quick re-entries");
            let zero_hits = with_state(|st| st.tally.global().hits[0]);
            assert!(zero_hits > 10, "seed {seed}: zero forecasts that hit");
            let (global, per_prev) = with_state(|st| {
                let diagrams = st.tally.diagrams();
                let per_prev: Vec<(String, CalibBins)> =
                    diagrams.map(|(k, b)| (k, b.clone())).collect();
                (st.tally.global(), per_prev)
            });
            assert_bins_match(&global, &want.global(), "global");
            let wanted: Vec<(String, &CalibBins)> = want.diagrams().collect();
            assert_eq!(
                per_prev.iter().map(|(k, _)| k).collect::<Vec<_>>(),
                wanted.iter().map(|(k, _)| k).collect::<Vec<_>>()
            );
            for ((_, bins), (_, want)) in per_prev.iter().zip(&wanted) {
                assert_bins_match(bins, want, "per prev");
            }
        }
        assert!(pending_seen, "no run ended with a window open");
    }

    /// The forecaster of a memoryless mobile states the true hand-off
    /// probability, so the store must read it flat. Mobiles in cell 1
    /// leave through one exit neighbor, cell 0, after an exponential
    /// sojourn of hazard λ and are replaced at once; each evaluation (at
    /// Poisson instants, mostly closer together than the windows are
    /// long) draws a `T_est` and forecasts `p = 1 − e^(−λ T_est)` for
    /// every one of them. Beside them sit parked connections that never hand off,
    /// each forecast exactly 0. Every bin with n ≥ 200 must hold its hit
    /// rate within 3 binomial σ of its mean forecast.
    #[test]
    fn exact_forecaster_reads_flat() {
        const LAMBDA: f64 = 1.0 / 40.0;
        const MOVING: usize = 100;
        const PARKED: usize = 20;
        const EVAL_RATE: f64 = 1.0 / 15.0;
        const HORIZON: f64 = 45_000.0;
        let mut rng = Rng(29);
        let exp = |rate: f64, rng: &mut Rng| -(1.0 - rng.unit()).ln() / rate;
        // (connection, entered, leaves)
        let mut moving: Vec<(u64, f64, f64)> = (0..MOVING as u64)
            .map(|id| (id, 0.0, exp(LAMBDA, &mut rng)))
            .collect();
        let mut next_id = MOVING as u64 + PARKED as u64;
        let mut next_eval = exp(EVAL_RATE, &mut rng);
        loop {
            let (i, leave) = moving
                .iter()
                .enumerate()
                .map(|(i, m)| (i, m.2))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap();
            let now = leave.min(next_eval);
            if now > HORIZON {
                break;
            }
            if leave < next_eval {
                let (id, entered, _) = moving[i];
                observe_attempt(id, 1, 0, now, entered, Some(2), None);
                moving[i] = (next_id, now, now + exp(LAMBDA, &mut rng));
                next_id += 1;
            } else {
                // `T_est` drawn so that `p` is uniform over (0.01, 0.99).
                let t_est = -(0.99 - 0.98 * rng.unit()).ln() / LAMBDA;
                let p = 1.0 - (-LAMBDA * t_est).exp();
                let mut ids: Vec<(u64, f64)> = moving.iter().map(|m| (m.0, p)).collect();
                ids.sort_unstable_by_key(|f| f.0);
                let mut staged = StagedForecasts::default();
                staged.evaluation(1, 0, now, now + t_est);
                staged.group(Some(2), MOVING, MOVING);
                staged.group(None, PARKED, 0);
                staged.nonzero(ids.into_iter().map(|(c, p)| (c, p, 2)));
                staged.flush(now);
                next_eval = now + exp(EVAL_RATE, &mut rng);
            }
        }
        sweep_expired(HORIZON);
        let bins = with_state(|st| st.tally.global());
        let mut checked = 0;
        for b in 0..CALIB_BINS {
            let n = bins.n[b];
            if n < 200 {
                continue;
            }
            let mean_p = bins.sum_p[b] / n as f64;
            let hit_rate = bins.hits[b] as f64 / n as f64;
            let sigma = (mean_p * (1.0 - mean_p) / n as f64).sqrt();
            assert!(
                (hit_rate - mean_p).abs() <= 3.0 * sigma,
                "bin {b}: n {n}, mean_p {mean_p:.4}, hit_rate {hit_rate:.4}, 3σ {:.4}",
                3.0 * sigma
            );
            checked += 1;
        }
        assert!(checked >= 9, "only {checked} bins reached n = 200");
    }
}
