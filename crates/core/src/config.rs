//! Configuration of the reservation system.

use qres_cellnet::Bandwidth;
use qres_mobility::HoeConfig;

use crate::admission::SchemeConfig;
use crate::window_control::StepPolicy;

/// Full configuration of one cell network's reservation machinery.
#[derive(Debug, Clone)]
pub struct QresConfig {
    /// The hand-off dropping probability target `P_HD,target`.
    pub p_hd_target: f64,
    /// Initial estimation window `T_start` in whole seconds.
    pub t_start_secs: u64,
    /// `T_est` adjustment step policy (the paper uses fixed ±1).
    pub step_policy: StepPolicy,
    /// Per-cell hand-off estimation function configuration.
    pub hoe: HoeConfig,
    /// The admission-control scheme to run.
    pub scheme: SchemeConfig,
    /// Wireless link capacity per cell, `C(i)` (the paper uses a uniform
    /// 100 BU; per-cell capacities can be overridden at system
    /// construction).
    pub capacity: Bandwidth,
}

impl QresConfig {
    /// The paper's Section 5.1 parameters with the given scheme:
    /// `P_HD,target = 0.01`, `T_start = 1 s`, `N_quad = 100`, fixed steps,
    /// `C = 100` BU, stationary (`T_int = ∞`) estimation windows.
    pub fn paper_stationary(scheme: SchemeConfig) -> Self {
        QresConfig {
            p_hd_target: 0.01,
            t_start_secs: 1,
            step_policy: StepPolicy::Fixed,
            hoe: HoeConfig::stationary(),
            scheme,
            capacity: Bandwidth::from_bus(100),
        }
    }

    /// The paper's time-varying parameters (`T_int = 1 h`,
    /// `N_win-days = 1`, `w_0 = w_1 = 1`) with the given scheme.
    pub fn paper_time_varying(scheme: SchemeConfig) -> Self {
        QresConfig {
            hoe: HoeConfig::paper_time_varying(),
            ..Self::paper_stationary(scheme)
        }
    }

    /// Validates all sub-configurations. Panics on violation.
    pub fn validate(&self) {
        assert!(
            self.p_hd_target > 0.0 && self.p_hd_target < 1.0,
            "P_HD,target must be in (0,1)"
        );
        assert!(self.t_start_secs >= 1, "T_start must be >= 1 s");
        assert!(!self.capacity.is_zero(), "cell capacity must be positive");
        self.hoe.validate();
        self.scheme.validate(self.capacity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AcKind;

    #[test]
    fn paper_defaults() {
        let c = QresConfig::paper_stationary(SchemeConfig::Predictive { kind: AcKind::Ac3 });
        c.validate();
        assert_eq!(c.p_hd_target, 0.01);
        assert_eq!(c.t_start_secs, 1);
        assert_eq!(c.capacity.as_bus(), 100);
        assert_eq!(c.hoe.n_quad, 100);
        assert!(c.hoe.weekday_window.t_int.is_infinite());
    }

    #[test]
    fn time_varying_uses_finite_window() {
        let c = QresConfig::paper_time_varying(SchemeConfig::Predictive { kind: AcKind::Ac1 });
        c.validate();
        assert_eq!(c.hoe.weekday_window.t_int.as_hours(), 1.0);
        assert_eq!(c.hoe.weekday_window.weights, vec![1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "P_HD,target")]
    fn invalid_target_rejected() {
        let mut c = QresConfig::paper_stationary(SchemeConfig::Predictive { kind: AcKind::Ac3 });
        c.p_hd_target = 1.0;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "guard")]
    fn oversized_guard_rejected() {
        let c = QresConfig::paper_stationary(SchemeConfig::Static {
            guard: Bandwidth::from_bus(101),
        });
        c.validate();
    }
}
