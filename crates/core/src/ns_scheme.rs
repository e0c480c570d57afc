//! The Naghshineh–Schwartz distributed admission-control baseline.
//!
//! Section 6 of Choi & Shin discusses the rival scheme of
//! *M. Naghshineh and M. Schwartz, "Distributed call admission control in
//! mobile/wireless networks", IEEE JSAC 14(4), 1996* — reference \[10\] —
//! and their follow-up \[4\] compares against it quantitatively. Choi & Shin
//! describe it as: "the BS obtains the required bandwidth for both the
//! existing and hand-off connections after a certain time interval, then
//! performs admission control so that the required bandwidth may not
//! exceed the cell capacity", and criticize two assumptions:
//!
//! 1. mobile sojourn times are **exponentially distributed** (impractical —
//!    road traffic crossing times are not memoryless), and
//! 2. there is **no mechanism to predict direction**: a neighbor's mobile
//!    is assumed equally likely to exit toward each of its neighbors.
//!
//! This module reconstructs that scheme from the description (the original
//! closed-form bound is simplified to its expected-load form; the paper's
//! text is the spec we reproduce against — see DESIGN.md §3). Admission
//! test for a new connection in cell 0:
//!
//! ```text
//! Σ_j b(C_0,j) + b_new + B_ns,0 ≤ C(0)
//! B_ns,0 = Σ_{i∈A_0} [ Σ_j b(C_i,j) ] · (1 − e^{−T_ns/τ}) / |A_i|
//! ```
//!
//! where `T_ns` is the (fixed, non-adaptive) estimation interval and `τ`
//! the assumed mean sojourn time. Unlike the paper's scheme, neither
//! parameter adapts, and the per-connection residence history is ignored —
//! which is exactly what the comparison experiment demonstrates.

/// Parameters of the reconstructed Naghshineh–Schwartz baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NsParams {
    /// The estimation interval `T_ns` (seconds). NS fix this a priori;
    /// there is no drop-driven adaptation.
    pub window_secs: f64,
    /// The assumed mean sojourn time `τ` (seconds) of the exponential
    /// residence model.
    pub mean_sojourn_secs: f64,
}

impl NsParams {
    /// A configuration tuned for the paper's high-mobility road: cells are
    /// crossed in 30–45 s, so `τ = 36 s` (1 km at 100 km/h) with a 30 s
    /// window.
    pub fn tuned_for_highway() -> Self {
        NsParams {
            window_secs: 30.0,
            mean_sojourn_secs: 36.0,
        }
    }

    /// Validates the parameters. Panics on violation.
    pub fn validate(&self) {
        assert!(self.window_secs > 0.0, "NS window must be positive");
        assert!(
            self.mean_sojourn_secs > 0.0,
            "NS mean sojourn must be positive"
        );
    }

    /// The per-connection hand-in probability the exponential model
    /// assigns: `P(sojourn ends within T_ns) / fan-out`.
    pub fn hand_in_probability(&self, neighbor_fanout: usize) -> f64 {
        assert!(neighbor_fanout > 0, "fan-out must be positive");
        let p_leave = 1.0 - (-self.window_secs / self.mean_sojourn_secs).exp();
        p_leave / neighbor_fanout as f64
    }

    /// The expected hand-in bandwidth contributed by one neighbor cell
    /// carrying `used_bus` BUs with `neighbor_fanout` exits.
    pub fn neighbor_contribution(&self, used_bus: u32, neighbor_fanout: usize) -> f64 {
        f64::from(used_bus) * self.hand_in_probability(neighbor_fanout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hand_in_probability_shape() {
        let ns = NsParams {
            window_secs: 36.0,
            mean_sojourn_secs: 36.0,
        };
        // P(leave within one mean) = 1 - 1/e ≈ 0.632; split over 2 exits.
        let p = ns.hand_in_probability(2);
        assert!((p - (1.0 - (-1.0f64).exp()) / 2.0).abs() < 1e-12);
        // Larger fan-out dilutes the per-direction probability.
        assert!(ns.hand_in_probability(6) < ns.hand_in_probability(2));
    }

    #[test]
    fn probability_monotone_in_window() {
        let mk = |w: f64| NsParams {
            window_secs: w,
            mean_sojourn_secs: 36.0,
        };
        let mut last = 0.0;
        for w in [1.0, 10.0, 36.0, 100.0, 1_000.0] {
            let p = mk(w).hand_in_probability(2);
            assert!(p > last);
            assert!(p <= 0.5);
            last = p;
        }
    }

    #[test]
    fn contribution_scales_with_usage() {
        let ns = NsParams::tuned_for_highway();
        ns.validate();
        assert_eq!(ns.neighbor_contribution(0, 2), 0.0);
        let b50 = ns.neighbor_contribution(50, 2);
        let b100 = ns.neighbor_contribution(100, 2);
        assert!((b100 - 2.0 * b50).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_rejected() {
        NsParams {
            window_secs: 0.0,
            mean_sojourn_secs: 1.0,
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "fan-out")]
    fn zero_fanout_rejected() {
        NsParams::tuned_for_highway().hand_in_probability(0);
    }
}
