//! # qres-mobility — aggregate-history mobility estimation
//!
//! Section 3 of Choi & Shin (SIGCOMM '98): each base station predicts where
//! and when its mobiles will hand off, **without per-mobile tracking**, from
//! an aggregate history of hand-offs observed in its own cell. The premise
//! (observations O1–O4 on road traffic): mobiles that arrived from the same
//! previous cell behave alike, so the empirical distribution of
//! `(next, T_soj)` conditioned on `prev` is a usable predictor.
//!
//! The pipeline:
//!
//! 1. Every time a mobile hands off out of the cell, the BS caches a
//!    **hand-off event quadruplet** `(T_event, prev, next, T_soj)`
//!    ([`HandoffEvent`]).
//! 2. The **hand-off estimation function** `F_HOE(t_o, prev, next, T_soj)`
//!    assigns each cached quadruplet a weight `w_n` if it falls in the
//!    periodic window `t_o − T_int − n·T_day ≤ T_event < t_o + T_int −
//!    n·T_day` (Eq. 2; [`WindowConfig`]), keeping at most `N_quad`
//!    quadruplets per `(prev, next)` pair under a two-level priority rule
//!    ([`HoeCache`]).
//! 3. The **hand-off probability** `p_h(C_0,j → next)` follows by Bayes'
//!    rule from the function, conditioning on the mobile's *extant sojourn
//!    time* (Eq. 4; [`estimator`]): among histories consistent with "still
//!    here after `T_ext`", the fraction that left for `next` within the
//!    next `T_est` seconds. A zero denominator classifies the mobile as
//!    stationary.
//!
//! Weekday/weekend pattern separation (the paper's special-day sets) is
//! supported through [`calendar`], and the known-route extension of
//! Section 7 (ITS/GPS: next cell known, only the hand-off time estimated)
//! through [`estimator::known_next_probability`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod cache;
pub mod calendar;
pub mod estimator;
pub mod footprint;
pub mod quadruplet;
pub mod windows;

pub use batch::ContributionPass;
pub use cache::{HoeCache, HoeConfig};
pub use calendar::{Calendar, DayClass};
pub use estimator::{handoff_probability, known_next_probability, HandoffQuery};
pub use footprint::Footprint;
pub use quadruplet::HandoffEvent;
pub use windows::WindowConfig;
