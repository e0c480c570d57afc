//! Adaptive control of the mobility-estimation time window (Fig. 6).
//!
//! `T_est` sizes the prediction horizon: too large over-reserves (high
//! `P_CB`), too small under-reserves (hand-off drops). The optimum depends
//! on traffic and mobility, which vary, and on estimation accuracy, which
//! is imperfect — so the paper controls `T_est` from the one signal that
//! matters: observed hand-off drops in the cell.
//!
//! The algorithm (pseudocode of Fig. 6), with `w = ⌈1 / P_HD,target⌉`:
//!
//! ```text
//! W_obs := w;  T_est := T_start;  n_H := 0;  n_HD := 0
//! on each hand-off attempt into the cell:
//!     n_H += 1
//!     if it was dropped:
//!         n_HD += 1
//!         if n_HD > W_obs / w:              // quota exceeded
//!             W_obs += w                    // extend the observation window
//!             if T_est < T_soj,max: T_est += 1
//!     else if n_H > W_obs:                  // window complete
//!         if n_HD <= W_obs / w and T_est > 1: T_est -= 1
//!         W_obs := w;  n_H := 0;  n_HD := 0
//! ```
//!
//! Keeping `n_HD ≤ W_obs / w` over windows of `W_obs` hand-offs is the
//! paper's translation of the `P_HD < P_HD,target` constraint. The ±1
//! fixed step is deliberate: the paper reports that additive and
//! multiplicative step growth "cause over-reactions, and make the reserved
//! bandwidth fluctuate severely"; both are implemented here as
//! [`StepPolicy`] variants so the ablation bench can reproduce that
//! finding.

use qres_des::Duration;

/// How consecutive same-direction adjustments scale the `T_est` step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepPolicy {
    /// ±1 s always — the paper's chosen policy.
    Fixed,
    /// 1, 2, 3, … s for consecutive increments (and decrements) — the
    /// paper's rejected additive variant.
    Additive,
    /// 1, 2, 4, … s for consecutive increments (and decrements) — the
    /// paper's rejected multiplicative variant.
    Multiplicative,
}

impl StepPolicy {
    fn step(self, consecutive: u32) -> u64 {
        match self {
            StepPolicy::Fixed => 1,
            StepPolicy::Additive => u64::from(consecutive) + 1,
            StepPolicy::Multiplicative => 1u64 << consecutive.min(20),
        }
    }
}

/// What a hand-off observation did to the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowEvent {
    /// Nothing changed.
    None,
    /// `T_est` was increased (a drop exceeded the quota).
    Increased,
    /// A drop exceeded the quota but `T_est` was already at its cap.
    IncreaseCapped,
    /// The observation window completed and `T_est` was decreased.
    Decreased,
    /// The observation window completed with `T_est` at the floor (1 s).
    DecreaseFloored,
}

impl WindowEvent {
    /// True for the upward branches of Fig. 6 (including the capped one).
    pub fn is_increase(self) -> bool {
        matches!(self, WindowEvent::Increased | WindowEvent::IncreaseCapped)
    }
}

/// Per-cell adaptive `T_est` controller (paper Fig. 6).
#[derive(Debug, Clone)]
pub struct WindowController {
    /// `w = ⌈1 / P_HD,target⌉` — the reference window size.
    w: u64,
    /// `W_obs` — the current observation-window size.
    w_obs: u64,
    /// `T_est` in whole seconds (the paper steps it by 1 s).
    t_est_secs: u64,
    /// Hand-offs observed in the current window.
    n_h: u64,
    /// Hand-off drops observed in the current window.
    n_hd: u64,
    policy: StepPolicy,
    /// Consecutive same-direction adjustments (for non-fixed policies).
    consecutive_up: u32,
    consecutive_down: u32,
}

impl WindowController {
    /// Creates a controller for the given drop-probability target and
    /// initial window `T_start` (whole seconds, ≥ 1).
    pub fn new(p_hd_target: f64, t_start_secs: u64, policy: StepPolicy) -> Self {
        assert!(
            p_hd_target > 0.0 && p_hd_target < 1.0,
            "P_HD,target must be in (0,1)"
        );
        assert!(t_start_secs >= 1, "T_start must be at least 1 s");
        let w = (1.0 / p_hd_target).ceil() as u64;
        WindowController {
            w,
            w_obs: w,
            t_est_secs: t_start_secs,
            n_h: 0,
            n_hd: 0,
            policy,
            consecutive_up: 0,
            consecutive_down: 0,
        }
    }

    /// The paper's configuration: `P_HD,target = 0.01` (`w = 100`),
    /// `T_start = 1 s`, fixed steps.
    pub fn paper_default() -> Self {
        Self::new(0.01, 1, StepPolicy::Fixed)
    }

    /// Current `T_est`.
    pub fn t_est(&self) -> Duration {
        Duration::from_secs(self.t_est_secs as f64)
    }

    /// Current `T_est` in whole seconds.
    pub fn t_est_secs(&self) -> u64 {
        self.t_est_secs
    }

    /// The reference window size `w`.
    pub fn w(&self) -> u64 {
        self.w
    }

    /// The current observation-window size `W_obs`.
    pub fn w_obs(&self) -> u64 {
        self.w_obs
    }

    /// Hand-offs counted in the current window (`n_H`).
    pub fn n_h(&self) -> u64 {
        self.n_h
    }

    /// Drops counted in the current window (`n_HD`).
    pub fn n_hd(&self) -> u64 {
        self.n_hd
    }

    /// Observes one hand-off attempt into this cell.
    ///
    /// * `dropped` — whether the hand-off was dropped;
    /// * `t_soj_max` — the cap on `T_est`: the maximum sojourn time found in
    ///   the adjacent cells' hand-off estimation functions ("any value
    ///   larger than that is meaningless"). `None` (no data yet) leaves
    ///   `T_est` uncapped, matching a cold start where `T_start` applies.
    pub fn observe_handoff(&mut self, dropped: bool, t_soj_max: Option<Duration>) -> WindowEvent {
        self.n_h += 1;
        if dropped {
            self.n_hd += 1;
            if self.n_hd > self.w_obs / self.w {
                self.w_obs += self.w;
                let step = self.policy.step(self.consecutive_up);
                self.consecutive_up += 1;
                self.consecutive_down = 0;
                let cap = t_soj_max.map(|d| (d.as_secs().floor() as u64).max(1));
                let capped = cap.is_some_and(|c| self.t_est_secs >= c);
                if capped {
                    return WindowEvent::IncreaseCapped;
                }
                self.t_est_secs += step;
                if let Some(c) = cap {
                    self.t_est_secs = self.t_est_secs.min(c);
                }
                return WindowEvent::Increased;
            }
            WindowEvent::None
        } else if self.n_h > self.w_obs {
            let mut event = WindowEvent::None;
            if self.n_hd <= self.w_obs / self.w {
                if self.t_est_secs > 1 {
                    let step = self.policy.step(self.consecutive_down);
                    self.consecutive_down += 1;
                    self.consecutive_up = 0;
                    self.t_est_secs = self.t_est_secs.saturating_sub(step).max(1);
                    event = WindowEvent::Decreased;
                } else {
                    event = WindowEvent::DecreaseFloored;
                }
            }
            self.w_obs = self.w;
            self.n_h = 0;
            self.n_hd = 0;
            event
        } else {
            WindowEvent::None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn soj(secs: f64) -> Option<Duration> {
        Some(Duration::from_secs(secs))
    }

    #[test]
    fn paper_default_parameters() {
        let c = WindowController::paper_default();
        assert_eq!(c.w(), 100);
        assert_eq!(c.w_obs(), 100);
        assert_eq!(c.t_est_secs(), 1);
    }

    #[test]
    fn first_excess_drop_grows_t_est_and_window() {
        let mut c = WindowController::paper_default();
        // Quota is W_obs/w = 1: the first drop is within quota.
        assert_eq!(c.observe_handoff(true, soj(100.0)), WindowEvent::None);
        assert_eq!(c.t_est_secs(), 1);
        // The second drop exceeds it.
        assert_eq!(c.observe_handoff(true, soj(100.0)), WindowEvent::Increased);
        assert_eq!(c.t_est_secs(), 2);
        assert_eq!(c.w_obs(), 200);
        // Now quota is 2; a third drop is within (n_HD = 3 > 200/100 = 2 →
        // actually exceeds again).
        assert_eq!(c.observe_handoff(true, soj(100.0)), WindowEvent::Increased);
        assert_eq!(c.t_est_secs(), 3);
        assert_eq!(c.w_obs(), 300);
    }

    #[test]
    fn clean_window_shrinks_t_est_and_resets() {
        let mut c = WindowController::paper_default();
        // Push T_est up to 3 first.
        c.observe_handoff(true, soj(100.0));
        c.observe_handoff(true, soj(100.0));
        c.observe_handoff(true, soj(100.0));
        assert_eq!(c.t_est_secs(), 3);
        let w_obs = c.w_obs(); // 300
                               // Complete the window with successful hand-offs. n_h is already 3.
        for _ in 0..(w_obs - c.n_h()) {
            assert_eq!(c.observe_handoff(false, soj(100.0)), WindowEvent::None);
        }
        // One more success exceeds W_obs: window completes. n_HD = 3 <=
        // 300/100 = 3 → decrease.
        assert_eq!(c.observe_handoff(false, soj(100.0)), WindowEvent::Decreased);
        assert_eq!(c.t_est_secs(), 2);
        assert_eq!(c.w_obs(), 100);
        assert_eq!(c.n_h(), 0);
        assert_eq!(c.n_hd(), 0);
    }

    #[test]
    fn t_est_floors_at_one() {
        let mut c = WindowController::paper_default();
        // Complete a clean window at T_est = 1.
        for _ in 0..100 {
            c.observe_handoff(false, soj(100.0));
        }
        assert_eq!(
            c.observe_handoff(false, soj(100.0)),
            WindowEvent::DecreaseFloored
        );
        assert_eq!(c.t_est_secs(), 1);
    }

    #[test]
    fn t_est_capped_by_max_sojourn() {
        let mut c = WindowController::paper_default();
        // Cap at 2 s.
        c.observe_handoff(true, soj(2.0));
        c.observe_handoff(true, soj(2.0));
        assert_eq!(c.t_est_secs(), 2);
        c.observe_handoff(true, soj(2.0));
        // Already at cap: no growth.
        assert_eq!(
            c.observe_handoff(true, soj(2.0)),
            WindowEvent::IncreaseCapped
        );
        assert_eq!(c.t_est_secs(), 2);
        // W_obs still extended on the capped attempts (quota bookkeeping
        // continues even when T_est cannot move).
        assert!(c.w_obs() > 200);
    }

    #[test]
    fn missing_cap_means_unbounded_growth() {
        let mut c = WindowController::paper_default();
        for _ in 0..5 {
            c.observe_handoff(true, None);
        }
        assert!(c.t_est_secs() >= 4);
    }

    #[test]
    fn window_with_tolerable_drops_still_shrinks() {
        // n_HD <= W_obs/w at window completion → decrease per Fig. 6 line 14.
        let mut c = WindowController::new(0.1, 5, StepPolicy::Fixed); // w = 10
        c.observe_handoff(true, soj(100.0)); // 1 drop = quota, no growth
        for _ in 0..9 {
            c.observe_handoff(false, soj(100.0));
        }
        // 11th observation completes the window (n_h = 11 > 10).
        assert_eq!(c.observe_handoff(false, soj(100.0)), WindowEvent::Decreased);
        assert_eq!(c.t_est_secs(), 4);
    }

    #[test]
    fn additive_policy_accelerates() {
        let mut c = WindowController::new(0.01, 1, StepPolicy::Additive);
        c.observe_handoff(true, soj(1_000.0)); // within quota
        c.observe_handoff(true, soj(1_000.0)); // +1 -> 2
        c.observe_handoff(true, soj(1_000.0)); // +2 -> 4
        c.observe_handoff(true, soj(1_000.0)); // +3 -> 7
        assert_eq!(c.t_est_secs(), 7);
    }

    #[test]
    fn multiplicative_policy_doubles() {
        let mut c = WindowController::new(0.01, 1, StepPolicy::Multiplicative);
        c.observe_handoff(true, soj(1_000.0)); // within quota
        c.observe_handoff(true, soj(1_000.0)); // +1 -> 2
        c.observe_handoff(true, soj(1_000.0)); // +2 -> 4
        c.observe_handoff(true, soj(1_000.0)); // +4 -> 8
        assert_eq!(c.t_est_secs(), 8);
    }

    #[test]
    fn consecutive_counters_reset_on_direction_change() {
        let mut c = WindowController::new(0.5, 10, StepPolicy::Additive); // w = 2
        c.observe_handoff(true, soj(1_000.0)); // quota 1: within
        c.observe_handoff(true, soj(1_000.0)); // exceed: +1 -> 11
        assert_eq!(c.t_est_secs(), 11);
        // Complete window cleanly (W_obs = 4 now): 2 more observations
        // bring n_h to 4; the 5th completes.
        for _ in 0..3 {
            c.observe_handoff(false, soj(1_000.0));
        }
        // n_hd = 2 <= 4/2 → decrease by 1 (consecutive_down reset) -> 10.
        assert_eq!(c.t_est_secs(), 10);
        // Another excess drop goes back to +1 (up-counter was reset).
        c.observe_handoff(true, soj(1_000.0));
        c.observe_handoff(true, soj(1_000.0));
        assert_eq!(c.t_est_secs(), 11);
    }

    #[test]
    #[should_panic(expected = "P_HD,target")]
    fn bad_target_rejected() {
        let _ = WindowController::new(0.0, 1, StepPolicy::Fixed);
    }

    #[test]
    #[should_panic(expected = "T_start")]
    fn zero_t_start_rejected() {
        let _ = WindowController::new(0.01, 0, StepPolicy::Fixed);
    }
}
