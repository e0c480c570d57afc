//! # qres-core — predictive & adaptive bandwidth reservation and admission control
//!
//! The primary contribution of Choi & Shin (SIGCOMM '98), Section 4: keep
//! the hand-off dropping probability `P_HD` below a pre-specified target
//! (`P_HD,target = 0.01`) by reserving, in every cell, just enough
//! bandwidth for the hand-offs *predicted* to arrive soon — and adapting
//! the prediction horizon when reality disagrees.
//!
//! Three cooperating mechanisms:
//!
//! * [`reservation`] — the target reservation bandwidth (Eqs. 5–6): each
//!   adjacent cell `i` contributes `B_i,0 = Σ_j b(C_i,j)·p_h(C_i,j → 0)`,
//!   the expected bandwidth of its connections' hand-offs into cell 0
//!   within the estimation window; `B_r,0 = Σ_{i∈A_0} B_i,0`.
//! * [`window_control`] — the adaptive estimation-window controller
//!   (Fig. 6): observed hand-off drops beyond the permitted quota grow
//!   `T_est` (reserve more, sooner); clean observation windows shrink it.
//! * [`admission`] + [`system`] — the admission-control schemes AC1
//!   (local test only), AC2 (all neighbors test too), AC3 (only
//!   "suspect" neighbors retest — the paper's recommended hybrid), plus
//!   the static guard-channel baseline it is evaluated against.
//!
//! [`system::ReservationSystem`] ties the mechanisms to the substrate
//! crates (`qres-cellnet` state, `qres-mobility` estimation) into the
//! distributed state machine a deployment would run: hand-offs are admitted
//! against raw link capacity, new connections against capacity minus the
//! freshly recomputed reservation target, with every inter-BS exchange
//! accounted on the backbone ([`qres_cellnet::signaling`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod admission;
pub mod config;
pub mod ns_scheme;
pub mod reservation;
pub mod system;
pub mod window_control;

pub use admission::{AcKind, AdmissionDecision, SchemeConfig};
pub use config::QresConfig;
pub use ns_scheme::NsParams;
pub use reservation::{neighbor_contribution, neighbor_contribution_naive, AdmissionBuffer};
pub use system::{HandoffOutcome, NewConnectionRequest, ReservationSystem};
pub use window_control::{StepPolicy, WindowController};
