//! # qres-stats — statistics toolkit for simulation metrics
//!
//! Every number the paper reports is one of a handful of estimator shapes:
//!
//! * **event ratios** — `P_CB` (blocked / requested) and `P_HD`
//!   (dropped / attempted hand-offs) are ratios of counted events
//!   ([`RatioCounter`]);
//! * **time-weighted averages** — the average target reservation bandwidth
//!   `B_r` and average used bandwidth `B_u` of Fig. 9 are integrals of a
//!   piecewise-constant signal over time ([`TimeWeighted`]);
//! * **sample statistics** — `N_calc`, the per-admission count of `B_r`
//!   computations (Fig. 13), is a plain sample mean ([`Welford`]);
//! * **time series** — Figs. 10, 11, 14 plot signals against time
//!   ([`TimeSeries`]) or aggregate them per hourly bucket ([`HourlyBuckets`]);
//! * **distributions** — long-tailed wall-clock timings use log-linear
//!   buckets ([`LogLinearHistogram`]).
//!
//! All estimators are plain accumulators: no interior mutability, no
//! background threads, deterministic results.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod buckets;
pub mod loglinear;
pub mod ratio;
pub mod series;
pub mod timeweighted;
pub mod welford;

pub use buckets::HourlyBuckets;
pub use loglinear::LogLinearHistogram;
pub use ratio::{wilson_interval, RatioCounter};
pub use series::TimeSeries;
pub use timeweighted::TimeWeighted;
pub use welford::Welford;
