//! Time-series recording for trace figures.

use qres_des::SimTime;

/// A recorded `(time, value)` trace.
///
/// Figs. 10 and 11 of the paper plot `T_est`, `B_r`, and the running `P_HD`
/// of individual cells against simulation time; this recorder captures such
/// signals with optional down-sampling (a minimum spacing between points) so
/// long runs do not accumulate unbounded points.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    name: String,
    min_spacing_secs: f64,
    points: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// Creates a recorder that keeps every pushed point.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            min_spacing_secs: 0.0,
            points: Vec::new(),
        }
    }

    /// Creates a recorder that skips points closer than `min_spacing_secs`
    /// to the previously kept one (the most recent value in a burst wins
    /// only if pushed after the spacing elapses).
    pub fn with_min_spacing(name: impl Into<String>, min_spacing_secs: f64) -> Self {
        assert!(min_spacing_secs >= 0.0);
        TimeSeries {
            name: name.into(),
            min_spacing_secs,
            points: Vec::new(),
        }
    }

    /// The series label.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Records `(now, value)`, honouring the down-sampling spacing.
    /// Returns `true` if the point was kept.
    pub fn push(&mut self, now: SimTime, value: f64) -> bool {
        let t = now.as_secs();
        if let Some(&(last_t, _)) = self.points.last() {
            assert!(t >= last_t, "TimeSeries points must be time-ordered");
            if self.min_spacing_secs > 0.0 && t - last_t < self.min_spacing_secs {
                return false;
            }
        }
        self.points.push((t, value));
        true
    }

    /// The recorded points as `(seconds, value)` pairs.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of kept points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Writes the series as `time,value` CSV lines (with a header).
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(16 * self.points.len() + 32);
        out.push_str("time_s,");
        out.push_str(&self.name);
        out.push('\n');
        for &(t, v) in &self.points {
            out.push_str(&format!("{t},{v}\n"));
        }
        out
    }
}

qres_json::json_struct!(TimeSeries {
    name,
    min_spacing_secs,
    points
});

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn records_in_order() {
        let mut s = TimeSeries::new("x");
        assert!(s.push(t(0.0), 1.0));
        assert!(s.push(t(1.0), 2.0));
        assert_eq!(s.points(), &[(0.0, 1.0), (1.0, 2.0)]);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }

    #[test]
    fn spacing_downsamples() {
        let mut s = TimeSeries::with_min_spacing("x", 10.0);
        assert!(s.push(t(0.0), 1.0));
        assert!(!s.push(t(5.0), 2.0)); // too close, dropped
        assert!(s.push(t(10.0), 3.0));
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_panics() {
        let mut s = TimeSeries::new("x");
        s.push(t(5.0), 1.0);
        s.push(t(1.0), 2.0);
    }

    #[test]
    fn csv_format() {
        let mut s = TimeSeries::new("b_r");
        s.push(t(0.0), 1.5);
        s.push(t(2.0), 2.5);
        let csv = s.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("time_s,b_r"));
        assert_eq!(lines.next(), Some("0,1.5"));
        assert_eq!(lines.next(), Some("2,2.5"));
    }
}
