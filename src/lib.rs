//! # qres — predictive & adaptive bandwidth reservation for cellular hand-offs
//!
//! A from-scratch Rust reproduction of *"Predictive and Adaptive Bandwidth
//! Reservation for Hand-Offs in QoS-Sensitive Cellular Networks"*
//! (Sunghyun Choi and Kang G. Shin, SIGCOMM 1998).
//!
//! This facade crate re-exports the whole workspace under one roof:
//!
//! * [`des`] — deterministic discrete-event simulation engine;
//! * [`stats`] — metric accumulators (ratios, time-weighted means, series);
//! * [`cellnet`] — the cellular substrate: cells, bandwidth units,
//!   connections, mobiles, topologies, inter-BS signaling;
//! * [`mobility`] — aggregate-history mobility estimation (hand-off event
//!   quadruplets, periodic windows, Bayesian hand-off probabilities);
//! * [`core`] — the paper's contribution: predictive bandwidth reservation,
//!   adaptive estimation-window control, admission control AC1/AC2/AC3 and
//!   the static-reservation baseline;
//! * [`sim`] — the full simulator, workload generators, scenarios and the
//!   experiment runner that regenerates every figure and table;
//! * [`obs`] — the telemetry layer: structured event tracing, hot-path
//!   timing histograms, Prometheus/JSON exporters (off by default);
//! * [`replay`] — deterministic re-execution of flight-recorder decision
//!   windows (`qres obs replay`), proving a capture's verdicts reproduce
//!   bit-identically from their recorded inputs.
//!
//! ## Quickstart
//!
//! ```
//! use qres::sim::{Scenario, SchemeKind, run_scenario};
//!
//! let scenario = Scenario::paper_baseline()
//!     .offered_load(120.0)
//!     .scheme(SchemeKind::Ac3)
//!     .duration_secs(2_000.0)
//!     .seed(7);
//! let result = run_scenario(&scenario);
//! println!("P_CB = {:.4}  P_HD = {:.4}", result.p_cb(), result.p_hd());
//! assert!(result.p_hd() <= 0.03); // short run; the benches use long ones
//! ```

pub mod replay;

pub use qres_cellnet as cellnet;
pub use qres_core as core;
pub use qres_des as des;
pub use qres_mobility as mobility;
pub use qres_obs as obs;
pub use qres_sim as sim;
pub use qres_stats as stats;
