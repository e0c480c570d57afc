//! One admission's telemetry, staged while its admission test runs.
//!
//! The admission test (`qres_admission_test_ns`) and each `B_r` computation
//! in it (`qres_br_compute_ns`) are timed, so inside them the producer only
//! pushes onto the [`Staging`] buffer its caller owns. After the admission
//! timing record, [`Staging::publish`] empties it into the stores under
//! their one lock. The buffer's `Vec`s are reused from admission to
//! admission, and once the flight ring is full the staged terms and checks
//! trade places with the evicted record's, so a steady-state admission
//! allocates nothing.

use std::sync::atomic::Ordering;

use crate::calib;
use crate::flight::{FlightCheck, FlightRecord, FlightTerm};

/// A per-admission telemetry buffer: the switches read when the admission
/// began, and what it staged since.
#[derive(Debug, Default)]
pub struct Staging {
    on: bool,
    flight: bool,
    /// The Eq.-4 forecasts, for the calibration store.
    pub forecasts: calib::StagedForecasts,
    br: Vec<(u32, f64)>,
    terms: Vec<FlightTerm>,
    checks: Vec<FlightCheck>,
}

impl Staging {
    /// Starts an admission: reads this thread's telemetry and flight
    /// switches, which hold until the next `begin`, and drops whatever was
    /// staged since the last [`Staging::publish`].
    #[inline]
    pub fn begin(&mut self) {
        (self.on, self.flight) = crate::with(|o| {
            let on = o.on.load(Ordering::Relaxed);
            (on, on && !o.flight_off.load(Ordering::Relaxed))
        });
        self.clear();
    }

    /// Whether telemetry was on when the admission began.
    #[inline]
    pub fn on(&self) -> bool {
        self.on
    }

    /// Whether the flight recorder was on when the admission began.
    #[inline]
    pub fn flight(&self) -> bool {
        self.flight
    }

    /// Stages `cell`'s newly computed `B_r` target.
    #[inline]
    pub fn br_update(&mut self, cell: u32, br: f64) {
        self.br.push((cell, br));
    }

    /// Stages one term of the requesting cell's `B_r` for its flight
    /// record.
    #[inline]
    pub fn term(&mut self, term: FlightTerm) {
        self.terms.push(term);
    }

    /// Stages one AC2/AC3 neighbor feasibility check for the flight record.
    #[inline]
    pub fn check(&mut self, check: FlightCheck) {
        self.checks.push(check);
    }

    /// Publishes the admission at sim-time `now` and empties the buffer:
    /// the staged evaluations into the calibration store, the `B_r`
    /// updates into the QoS tracker, and `record`, given the staged terms
    /// and checks (its own are replaced), into the flight ring. One lock,
    /// none when nothing is staged.
    pub fn publish(&mut self, now: f64, record: Option<FlightRecord>) {
        if !self.forecasts.is_empty() || !self.br.is_empty() || record.is_some() {
            crate::with_stores(|s| {
                self.forecasts.publish(&mut s.calib, now);
                s.qos.record_br_updates(now, &self.br);
                if let Some(mut record) = record {
                    std::mem::swap(&mut record.terms, &mut self.terms);
                    std::mem::swap(&mut record.checks, &mut self.checks);
                    if let Some(evicted) = s.flight.push(record) {
                        (self.terms, self.checks) = (evicted.terms, evicted.checks);
                    }
                }
            });
        }
        self.clear();
    }

    fn clear(&mut self) {
        self.forecasts.clear();
        self.br.clear();
        self.terms.clear();
        self.checks.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What an earlier call staged and never published (a contribution
    /// evaluated outside an admission) is gone once the next admission
    /// begins.
    #[test]
    fn begin_drops_what_an_earlier_call_staged() {
        let mut st = Staging::default();
        st.forecasts.evaluation(3, 4, 5.0, 25.0);
        st.forecasts.group(Some(2), 3, 1);
        st.forecasts.nonzero([(7, 0.5, 2)]);
        st.br_update(4, 1.5);
        let term = FlightTerm {
            neighbor: 3,
            value: 1.5,
            p_h_sum: Some(0.5),
            conns: Some(3),
        };
        st.term(term);
        st.begin();
        assert!(!st.on(), "a fresh thread's telemetry is off");
        st.publish(
            6.0,
            Some(FlightRecord {
                req: 1,
                t: 6.0,
                cell: 4,
                scheme: "AC1".into(),
                bu: 1.0,
                used: 10.0,
                capacity: 30.0,
                reserve: 1.5,
                t_est_secs: 20.0,
                terms: Vec::new(),
                checks: Vec::new(),
                admitted: true,
                blocked_rank: None,
            }),
        );
        assert_eq!(crate::calib_summary().predictions, 0);
        assert!(crate::qos_snapshot().is_empty());
        let records = crate::records_from_doc(&crate::flight_json()).unwrap();
        assert!(records[0].terms.is_empty());
    }
}
