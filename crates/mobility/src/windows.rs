//! Periodic estimation windows (Eq. 2) and window weights.
//!
//! The hand-off estimation function at current time `t_o` uses a quadruplet
//! with event time `T_event` iff there is an integer `n ≥ 0` with
//!
//! ```text
//! t_o − T_int − n·T_period  ≤  T_event  <  t_o + T_int − n·T_period
//! ```
//!
//! and the quadruplet then carries weight `w_n`, where
//! `1 ≥ w_0 ≥ w_1 ≥ … ` and `w_n = 0` for `n > N_win_periods` (Eq. 3).
//! `T_period` is a day for the regular pattern and a week for the
//! weekend/holiday pattern (Section 3.1). `T_int = ∞` (the paper's
//! stationary-scenario setting) makes every past event an `n = 0` member.

use std::ops::Range;

use qres_des::{Duration, SimTime};

/// A quadruplet's window membership: which window it falls in and its weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowMembership {
    /// The window index `n` (0 = the current period's window).
    pub n: u32,
    /// The weight `w_n`.
    pub weight: f64,
    /// Selection priority *within* windows: distance of the period-shifted
    /// event time from `t_o` (smaller = higher priority). Ties in `n` break
    /// on this per the paper's second priority rule.
    pub distance: f64,
}

/// Configuration of the periodic window structure.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowConfig {
    /// The estimation interval `T_int` (half-width of each window).
    /// [`Duration::INFINITE`] reproduces the stationary-case setting.
    pub t_int: Duration,
    /// The pattern period (`T_day` for weekdays, `T_week` for weekends).
    pub period: Duration,
    /// `w_0, w_1, …, w_{N_win}` — non-increasing weights in `(0, 1]`;
    /// the vector length is `N_win_periods + 1`.
    pub weights: Vec<f64>,
}

impl WindowConfig {
    /// The stationary-scenario configuration: `T_int = ∞`, weight 1.
    pub fn stationary() -> Self {
        WindowConfig {
            t_int: Duration::INFINITE,
            period: Duration::DAY,
            weights: vec![1.0],
        }
    }

    /// The paper's time-varying configuration: `T_int = 1 h`,
    /// `N_win_days = 1`, `w_0 = w_1 = 1`.
    pub fn paper_time_varying() -> Self {
        WindowConfig {
            t_int: Duration::from_hours(1.0),
            period: Duration::DAY,
            weights: vec![1.0, 1.0],
        }
    }

    /// Validates the invariants of Eq. 3. Panics on violation.
    pub fn validate(&self) {
        assert!(
            self.t_int.is_positive() || self.t_int.is_infinite(),
            "T_int must be positive"
        );
        assert!(self.period.is_positive(), "period must be positive");
        assert!(!self.weights.is_empty(), "need at least w_0");
        let mut last = 1.0 + 1e-12;
        for (n, &w) in self.weights.iter().enumerate() {
            assert!(
                w > 0.0 && w <= last,
                "weights must be non-increasing in (0,1]: w_{n} = {w}"
            );
            last = w;
        }
    }

    /// Number of usable windows (`N_win_periods + 1`).
    pub fn num_windows(&self) -> u32 {
        self.weights.len() as u32
    }

    /// Events older than this many seconds before `t_o` can never re-enter
    /// any window and may be pruned. `None` for the infinite-`T_int` mode
    /// (where recency-capped storage replaces time-based pruning).
    pub fn retention(&self) -> Option<Duration> {
        if self.t_int.is_infinite() {
            None
        } else {
            // The oldest usable event satisfies
            // T_event >= t_o - T_int - N_win * period.
            Some(self.t_int + self.period * (self.num_windows() as f64 - 1.0))
        }
    }

    /// Evaluates window membership of an event at `t_event` as seen from
    /// `t_o` (Eq. 2). Returns `None` if the event falls in no usable window
    /// (including future events, which precede every window).
    pub fn membership(&self, t_o: SimTime, t_event: SimTime) -> Option<WindowMembership> {
        let delta = (t_o - t_event).as_secs(); // ≥ 0 for past events
        let (n, inside) = self.locate(delta);
        if !inside {
            return None;
        }
        let n = n as u32;
        let weight = *self.weights.get(n as usize)?;
        Some(WindowMembership {
            n,
            weight,
            distance: self.offset(delta, n).abs(),
        })
    }

    /// Where an event `delta` seconds before `t_o` falls: `(n, inside)`,
    /// where `n` is the smallest window index whose lower edge the event
    /// does not precede (`−1` for a future event: the paper notes the
    /// duration `[t_o, t_o + T_int]` is "missing" from Fig. 3) and `inside`
    /// whether it also precedes window `n`'s upper edge. The smallest `n`
    /// has the highest priority when windows overlap (`2·T_int > period`).
    /// As `delta` shrinks `n` never grows, and among the events of one `n`
    /// the inside ones are the older: the order [`Self::span`] searches.
    fn locate(&self, delta: f64) -> (f64, bool) {
        if delta < 0.0 {
            return (-1.0, false);
        }
        if self.t_int.is_infinite() {
            return (0.0, true);
        }
        let t_int = self.t_int.as_secs();
        let period = self.period.as_secs();
        //   t_event >= t_o - t_int - n*P  <=>  n >= (delta - t_int)/P
        //   t_event <  t_o + t_int - n*P  <=>  n <  (delta + t_int)/P
        let n = ((delta - t_int) / period).ceil().max(0.0);
        (n, n < (delta + t_int) / period)
    }

    /// `n` periods before `t_o`, in seconds.
    fn shift(&self, n: u32) -> f64 {
        // n = 0 keeps an infinite period out of the product.
        if n == 0 {
            0.0
        } else {
            f64::from(n) * self.period.as_secs()
        }
    }

    /// The signed distance of an event `delta` seconds before `t_o` from
    /// window `n`'s centre `t_o − n·period`, positive before it; its
    /// magnitude is [`WindowMembership::distance`].
    pub(crate) fn offset(&self, delta: f64, n: u32) -> f64 {
        delta - self.shift(n)
    }

    /// The members of window `n` among the indices `range` of a sequence of
    /// event times that never decreases, `time(i)` the `i`-th: exactly the
    /// events whose [`Self::membership`] at `t_o` has index `n`, which are
    /// contiguous. The window's edges in time place two binary searches;
    /// the exact test of `membership` settles each.
    pub(crate) fn span(
        &self,
        t_o: SimTime,
        n: u32,
        range: Range<usize>,
        time: impl Fn(usize) -> SimTime,
    ) -> Range<usize> {
        let k = f64::from(n);
        let locate = |i: usize| self.locate((t_o - time(i)).as_secs());
        let centre = t_o.as_secs() - self.shift(n);
        let t_int = self.t_int.as_secs();
        let secs = |i: usize| time(i).as_secs();
        // Older than the window: a smallest admissible index above n.
        let older = |i: usize| locate(i).0 > k;
        let start = settle(
            partition(range.clone(), |i| secs(i) < centre - t_int),
            range.clone(),
            older,
        );
        // Older than the window or inside it.
        let not_after = |i: usize| {
            let (m, inside) = locate(i);
            m > k || (m == k && inside)
        };
        let upper = (centre + t_int).min(t_o.as_secs());
        let end = settle(
            partition(start..range.end, |i| secs(i) < upper),
            start..range.end,
            not_after,
        );
        start..end
    }
}

/// The first index of `range` at which `pred` fails; `pred` must hold on
/// a prefix of `range` and fail on the rest.
pub(crate) fn partition(range: Range<usize>, pred: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (range.start, range.end);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// [`partition`] of `range` by `pred`, stepping from `guess`, an index
/// near it.
fn settle(guess: usize, range: Range<usize>, pred: impl Fn(usize) -> bool) -> usize {
    let mut i = guess;
    while i > range.start && !pred(i - 1) {
        i -= 1;
    }
    while i < range.end && pred(i) {
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hours(h: f64) -> SimTime {
        SimTime::from_hours(h)
    }

    #[test]
    fn stationary_accepts_all_past() {
        let w = WindowConfig::stationary();
        w.validate();
        let m = w.membership(hours(100.0), hours(0.5)).unwrap();
        assert_eq!(m.n, 0);
        assert_eq!(m.weight, 1.0);
        assert!(w.membership(hours(1.0), hours(2.0)).is_none(), "future");
        assert_eq!(w.retention(), None);
    }

    #[test]
    fn stationary_distance_prefers_recent() {
        let w = WindowConfig::stationary();
        let now = hours(10.0);
        let recent = w.membership(now, hours(9.0)).unwrap();
        let old = w.membership(now, hours(1.0)).unwrap();
        assert!(recent.distance < old.distance);
    }

    #[test]
    fn current_window_matches_eq2_n0() {
        let w = WindowConfig::paper_time_varying();
        w.validate();
        let now = hours(12.0);
        // In [now - 1h, now): n = 0.
        let m = w.membership(now, hours(11.5)).unwrap();
        assert_eq!(m.n, 0);
        // Exactly at now - T_int.
        let m = w.membership(now, hours(11.0)).unwrap();
        assert_eq!(m.n, 0);
        // Older than T_int but not near yesterday's window: none.
        assert!(w.membership(now, hours(9.0)).is_none());
    }

    #[test]
    fn yesterday_window_matches_eq2_n1() {
        let w = WindowConfig::paper_time_varying();
        let now = hours(36.0); // day 1, 12:00
                               // Yesterday 11:30 (t = 11.5 h): inside [now - 1h - 24h, now + 1h - 24h).
        let m = w.membership(now, hours(11.5)).unwrap();
        assert_eq!(m.n, 1);
        assert_eq!(m.weight, 1.0);
        // Yesterday 12:59 also in window (upper side).
        let m = w.membership(now, hours(12.9)).unwrap();
        assert_eq!(m.n, 1);
        // Two days back would be n = 2 > N_win: none.
        let now2 = hours(60.0);
        assert!(w.membership(now2, hours(11.5)).is_none());
    }

    #[test]
    fn future_half_window_is_excluded() {
        // The paper notes [t_o, t_o + T_int] is "missing" — future times
        // are meaningless for already-observed quadruplets.
        let w = WindowConfig::paper_time_varying();
        assert!(w.membership(hours(12.0), hours(12.5)).is_none());
    }

    #[test]
    fn yesterdays_window_upper_edge_exclusive() {
        let w = WindowConfig::paper_time_varying();
        let now = hours(36.0);
        // t_event = now + T_int − T_day exactly → excluded (strict <).
        assert!(w.membership(now, hours(13.0)).is_none());
        // Just inside.
        assert!(w.membership(now, hours(12.999)).is_some());
    }

    #[test]
    fn decaying_weights() {
        let w = WindowConfig {
            t_int: Duration::from_hours(1.0),
            period: Duration::DAY,
            weights: vec![1.0, 0.5],
        };
        w.validate();
        let now = hours(30.0);
        assert_eq!(w.membership(now, hours(29.5)).unwrap().weight, 1.0);
        assert_eq!(w.membership(now, hours(5.5)).unwrap().weight, 0.5);
    }

    #[test]
    fn retention_covers_all_windows() {
        let w = WindowConfig::paper_time_varying();
        let r = w.retention().unwrap();
        assert_eq!(r.as_secs(), 3_600.0 + 86_400.0);
    }

    #[test]
    fn weekly_period() {
        let w = WindowConfig {
            t_int: Duration::from_hours(1.0),
            period: Duration::WEEK,
            weights: vec![1.0, 1.0],
        };
        let now = SimTime::from_days(7.5);
        // Same time last week.
        let m = w.membership(now, SimTime::from_days(0.5)).unwrap();
        assert_eq!(m.n, 1);
    }

    #[test]
    fn distance_within_same_window() {
        let w = WindowConfig::paper_time_varying();
        let now = hours(36.0);
        let near = w.membership(now, hours(11.9)).unwrap(); // 0.1h from now-24h
        let far = w.membership(now, hours(11.2)).unwrap(); // 0.8h from now-24h
        assert_eq!(near.n, far.n);
        assert!(near.distance < far.distance);
    }

    #[test]
    #[should_panic(expected = "non-increasing")]
    fn increasing_weights_rejected() {
        WindowConfig {
            t_int: Duration::from_hours(1.0),
            period: Duration::DAY,
            weights: vec![0.5, 1.0],
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "w_0")]
    fn empty_weights_rejected() {
        WindowConfig {
            t_int: Duration::from_hours(1.0),
            period: Duration::DAY,
            weights: vec![],
        }
        .validate();
    }

    /// `span` finds exactly the events `membership` puts in each window,
    /// on sorted times with repeats, across disjoint, overlapping and
    /// infinite windows, with `t_o` on the event grid and off it.
    #[test]
    fn span_matches_membership() {
        let mut rng = qres_des::StreamRng::seed_from_u64(0x5A11);
        let configs = [
            WindowConfig::paper_time_varying(),
            WindowConfig::stationary(),
            WindowConfig {
                t_int: Duration::from_secs(1_200.0),
                period: Duration::from_hours(1.0),
                weights: vec![1.0, 0.8, 0.5],
            },
            WindowConfig {
                t_int: Duration::from_secs(2_400.0),
                period: Duration::from_hours(1.0),
                weights: vec![1.0, 0.7, 0.7, 0.2],
            },
        ];
        for case in 0..400 {
            let w = &configs[case % configs.len()];
            let mut t = 0.0;
            let times: Vec<SimTime> = (0..rng.gen_range(0usize..120))
                .map(|_| {
                    t += 60.0 * f64::from(rng.gen_range(0u32..40));
                    SimTime::from_secs(t)
                })
                .collect();
            let t_o = SimTime::from_secs(if rng.gen_bool(0.5) {
                60.0 * f64::from(rng.gen_range(0u32..(t / 60.0) as u32 + 2))
            } else {
                rng.gen_range_f64(0.0, t + 100.0)
            });
            for n in 0..w.num_windows() {
                let want: Vec<usize> = (0..times.len())
                    .filter(|&i| w.membership(t_o, times[i]).is_some_and(|m| m.n == n))
                    .collect();
                let got = w.span(t_o, n, 0..times.len(), |i| times[i]);
                assert_eq!(got.collect::<Vec<_>>(), want, "case {case}, n = {n}");
            }
        }
    }

    #[test]
    fn overlapping_windows_pick_smallest_n() {
        // 2*T_int > period: windows overlap; the smaller n wins (rule 1).
        let w = WindowConfig {
            t_int: Duration::from_hours(20.0),
            period: Duration::DAY,
            weights: vec![1.0, 0.9],
        };
        let now = hours(48.0);
        // t_event = 30h: delta=18h. n=0 window is [28h, 68h) → inside.
        let m = w.membership(now, hours(30.0)).unwrap();
        assert_eq!(m.n, 0);
    }
}
