//! # qres-sim — the full cellular hand-off simulator
//!
//! The evaluation environment of Section 5 of Choi & Shin (SIGCOMM '98):
//! mobiles traveling a straight 10-cell road (ring-closed by default),
//! Poisson connection arrivals, voice/video media mix, uniform speeds,
//! exponential lifetimes — driven as a deterministic discrete-event
//! simulation over the [`qres_core::ReservationSystem`].
//!
//! * [`scenario`] — declarative run configuration ([`Scenario`]) with the
//!   paper's Section 5.1 defaults;
//! * [`workload`] — the stochastic processes (assumptions A2–A5) drawn from
//!   named, scheme-independent RNG streams so different schemes see the
//!   *same* workload under one seed (common random numbers);
//! * [`timevarying`] — the diurnal load/speed schedule and retrying-user
//!   model of the Fig. 14 experiment;
//! * [`engine`] — the event loop: arrivals, admissions, boundary-crossing
//!   hand-offs, lifetime expiries, retries;
//! * [`metrics`] — `P_CB`, `P_HD`, time-weighted `B_r`/`B_u`, `N_calc`,
//!   per-cell tables, traces and hourly buckets;
//! * [`report`] — the text tables and CSV series the experiment binaries
//!   print;
//! * [`runner`] — one-call execution ([`run_scenario`]) and parameter
//!   sweeps;
//! * [`parallel`] — the ordered thread-pool map the sweeps fan out on
//!   (per-point results stay bit-identical to sequential execution).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod engine;
pub mod metrics;
pub mod parallel;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod timevarying;
pub mod workload;

pub use engine::Engine;
pub use metrics::{CellSummary, Metrics, RunResult};
pub use parallel::par_map;
pub use runner::{run_scenario, sweep_offered_load, sweep_offered_load_sequential};
pub use scenario::{DirectionMode, Scenario, SchemeKind, WiredConfig};
pub use timevarying::{DiurnalSchedule, RetryPolicy, TimeVaryingConfig};
