//! Time-varying workload: the diurnal schedule and retrying users of the
//! Fig. 14 experiment.
//!
//! The paper varies the connection-generation rate λ and the speed range
//! over a two-day run: "the offered load peaks during rush hours (e.g.,
//! around 9 a.m., 1 p.m., and 5–6 p.m.) at low speeds". The exact curve of
//! Fig. 14(a) is only approximately readable from the plot, so
//! [`DiurnalSchedule::paper_like`] encodes a documented schedule with the
//! same qualitative shape (see DESIGN.md §3); the claims reproduced from
//! Fig. 14(b) depend only on that shape.
//!
//! Blocked users retry: "a blocked connection request will be re-requested
//! with probability `1 − 0.1·N_ret` after waiting 5 seconds, where `N_ret`
//! is the number of times a connection request has been made" —
//! [`RetryPolicy`]. Retries inflate the *actual* offered load `L_a` beyond
//! the original `L_o`, the positive-feedback effect that amplifies the
//! `P_CB` differences between schemes.

use crate::scenario::{positive, violations};

/// One hour's workload parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HourEntry {
    /// Original offered load `L_o` for this hour (Eq. 7 units).
    pub offered_load: f64,
    /// Mean mobile speed `S` (km/h); the sampling range is `[S−20, S+20]`.
    pub mean_speed_kmh: f64,
}

/// A 24-hour cyclic schedule of `(L_o, S)` pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct DiurnalSchedule {
    hours: Vec<HourEntry>,
}

impl DiurnalSchedule {
    /// Builds a schedule from 24 hourly entries.
    pub fn from_hours(hours: Vec<HourEntry>) -> Self {
        assert_eq!(hours.len(), 24, "a diurnal schedule has 24 hourly entries");
        DiurnalSchedule { hours }
    }

    /// The documented approximation of the paper's Fig. 14(a): base load 60
    /// at 100 km/h mean speed; rush-hour peaks around 9:00 (load 180),
    /// 13:00 (load 140) and 17:00–18:00 (load 200) with mean speeds dropping
    /// to 40–60 km/h; shoulders on both sides of each peak; light night
    /// traffic (load 20–40) at high speed.
    pub fn paper_like() -> Self {
        let mut hours = Vec::with_capacity(24);
        for h in 0..24 {
            let (load, speed) = match h {
                0..=5 => (20.0, 110.0), // night
                6 => (40.0, 100.0),     // early morning
                7 => (80.0, 90.0),      // morning shoulder
                8 => (140.0, 70.0),     // building rush
                9 => (180.0, 40.0),     // morning peak
                10 => (120.0, 70.0),    // decaying
                11 => (80.0, 90.0),
                12 => (100.0, 80.0), // lunch build-up
                13 => (140.0, 60.0), // lunch peak
                14 => (100.0, 80.0),
                15 => (80.0, 90.0),
                16 => (120.0, 70.0),      // evening shoulder
                17 | 18 => (200.0, 40.0), // evening peak
                19 => (120.0, 70.0),
                20 => (80.0, 90.0),
                21 => (60.0, 100.0),
                22..=23 => (40.0, 110.0),
                _ => unreachable!(),
            };
            hours.push(HourEntry {
                offered_load: load,
                mean_speed_kmh: speed,
            });
        }
        Self::from_hours(hours)
    }

    /// The entry in effect at a given hour of day (`[0, 24)`).
    pub fn at_hour(&self, hour_of_day: f64) -> HourEntry {
        assert!(
            (0.0..24.0).contains(&hour_of_day),
            "hour of day must be in [0,24)"
        );
        self.hours[hour_of_day.floor() as usize]
    }

    /// The speed sampling range `[S−20, S+20]` at a given hour, clamped to
    /// stay positive.
    pub fn speed_range_at(&self, hour_of_day: f64) -> (f64, f64) {
        let s = self.at_hour(hour_of_day).mean_speed_kmh;
        ((s - 20.0).max(5.0), s + 20.0)
    }

    /// Peak offered load across the day.
    pub fn peak_load(&self) -> f64 {
        self.hours
            .iter()
            .map(|h| h.offered_load)
            .fold(f64::MIN, f64::max)
    }

    /// All 24 entries.
    pub fn hours(&self) -> &[HourEntry] {
        &self.hours
    }
}

/// The blocked-request retry model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Wait before re-requesting (paper: 5 s).
    pub wait_secs: f64,
    /// Per-attempt decay `d` in `P(retry) = max(0, 1 − d·N_ret)`
    /// (paper: 0.1).
    pub decay: f64,
}

impl RetryPolicy {
    /// The paper's retry model.
    pub fn paper() -> Self {
        RetryPolicy {
            wait_secs: 5.0,
            decay: 0.1,
        }
    }

    /// Probability of retrying after the `n_ret`-th request was blocked
    /// (`n_ret ≥ 1` counts all requests made so far).
    pub fn retry_probability(&self, n_ret: u32) -> f64 {
        (1.0 - self.decay * f64::from(n_ret)).max(0.0)
    }
}

/// The full time-varying experiment configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeVaryingConfig {
    /// The daily schedule (cycled every 24 h).
    pub schedule: DiurnalSchedule,
    /// The retry model.
    pub retry: RetryPolicy,
    /// Number of simulated days (paper: 2).
    pub days: u32,
}

impl TimeVaryingConfig {
    /// The Fig. 14 configuration: paper-like schedule, paper retry model,
    /// two days.
    pub fn paper_like() -> Self {
        TimeVaryingConfig {
            schedule: DiurnalSchedule::paper_like(),
            retry: RetryPolicy::paper(),
            days: 2,
        }
    }

    /// Total run length in seconds.
    pub fn total_secs(&self) -> f64 {
        f64::from(self.days) * 24.0 * 3_600.0
    }

    /// Total run length in hours.
    pub fn total_hours(&self) -> usize {
        self.days as usize * 24
    }

    /// Checks every field against its valid range. The error names each
    /// violated field (as a path under the scenario's `time_varying`) with
    /// its value, `; `-separated.
    pub fn validate(&self) -> Result<(), String> {
        let mut violations = violations(&[
            (
                self.days >= 1,
                "time_varying.days",
                &self.days,
                "need at least one day",
            ),
            (
                self.schedule.hours().len() == 24,
                "time_varying.schedule.hours.len()",
                &self.schedule.hours().len(),
                "need 24 hourly entries",
            ),
            (
                self.retry.wait_secs >= 0.0 && self.retry.wait_secs.is_finite(),
                "time_varying.retry.wait_secs",
                &self.retry.wait_secs,
                "must be nonnegative and finite",
            ),
            (
                (0.0..=1.0).contains(&self.retry.decay),
                "time_varying.retry.decay",
                &self.retry.decay,
                "must be in [0, 1]",
            ),
        ]);
        for (h, e) in self.schedule.hours().iter().enumerate() {
            let load_ok = positive(e.offered_load);
            let speed_ok = e.mean_speed_kmh > 20.0 && e.mean_speed_kmh.is_finite();
            if !(load_ok && speed_ok) {
                violations.push(format!(
                    "time_varying.schedule.hours[{h}] = {e:?}: load must be positive and \
                     finite, and mean speed finite and above the ±20 sampling half-width"
                ));
            }
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations.join("; "))
        }
    }
}

qres_json::json_struct!(HourEntry {
    offered_load,
    mean_speed_kmh
});
qres_json::json_struct!(DiurnalSchedule { hours });
qres_json::json_struct!(RetryPolicy { wait_secs, decay });
qres_json::json_struct!(TimeVaryingConfig {
    schedule,
    retry,
    days
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_like_shape() {
        let s = DiurnalSchedule::paper_like();
        // Peaks at 9, 13, 17–18 as the paper describes.
        assert_eq!(s.at_hour(9.5).offered_load, 180.0);
        assert_eq!(s.at_hour(13.2).offered_load, 140.0);
        assert_eq!(s.at_hour(17.0).offered_load, 200.0);
        assert_eq!(s.at_hour(18.9).offered_load, 200.0);
        // Peaks are slow, nights are fast.
        assert!(s.at_hour(9.5).mean_speed_kmh < s.at_hour(3.0).mean_speed_kmh);
        assert_eq!(s.peak_load(), 200.0);
        // Night load is light.
        assert!(s.at_hour(2.0).offered_load <= 40.0);
    }

    #[test]
    fn speed_range_is_plus_minus_twenty() {
        let s = DiurnalSchedule::paper_like();
        let (lo, hi) = s.speed_range_at(9.5);
        assert_eq!((lo, hi), (20.0, 60.0));
        let (lo, hi) = s.speed_range_at(3.0);
        assert_eq!((lo, hi), (90.0, 130.0));
    }

    #[test]
    fn retry_probability_decays_to_zero() {
        let r = RetryPolicy::paper();
        assert!((r.retry_probability(1) - 0.9).abs() < 1e-12);
        assert!((r.retry_probability(5) - 0.5).abs() < 1e-12);
        assert_eq!(r.retry_probability(10), 0.0);
        assert_eq!(r.retry_probability(15), 0.0);
    }

    #[test]
    fn config_totals() {
        let tv = TimeVaryingConfig::paper_like();
        tv.validate().unwrap();
        assert_eq!(tv.total_secs(), 172_800.0);
        assert_eq!(tv.total_hours(), 48);
    }

    #[test]
    #[should_panic(expected = "24 hourly entries")]
    fn wrong_length_schedule_rejected() {
        let _ = DiurnalSchedule::from_hours(vec![
            HourEntry {
                offered_load: 1.0,
                mean_speed_kmh: 100.0
            };
            23
        ]);
    }

    #[test]
    fn wrong_length_schedule_from_json_fails_validation() {
        let mut tv = TimeVaryingConfig::paper_like();
        tv.schedule.hours.pop();
        let parsed: TimeVaryingConfig = qres_json::from_str(&qres_json::to_string(&tv)).unwrap();
        let err = parsed.validate().unwrap_err();
        assert!(
            err.contains("time_varying.schedule.hours.len() = 23"),
            "{err}"
        );
    }

    #[test]
    #[should_panic(expected = "hour of day")]
    fn out_of_range_hour_rejected() {
        DiurnalSchedule::paper_like().at_hour(24.0);
    }
}
