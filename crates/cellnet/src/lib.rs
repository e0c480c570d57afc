//! # qres-cellnet — cellular network substrate
//!
//! The system model of Section 2 of Choi & Shin (SIGCOMM '98): a wired
//! backbone interconnecting base stations (BSs), each covering one **cell**
//! of fixed wireless link capacity under fixed channel allocation (FCA).
//! Mobiles hold at most one connection each; a connection is specified by
//! its required bandwidth in **bandwidth units** (BU), where 1 BU carries a
//! voice connection and 4 BUs a video connection.
//!
//! Modules:
//!
//! * [`bu`] — bandwidth units and media classes;
//! * [`ids`] — cell / connection identifiers;
//! * [`cell`] — per-cell capacity bookkeeping and the connection registry a
//!   BS keeps (bandwidth, previous cell, entry time — exactly the state the
//!   mobility estimator needs);
//! * [`topology`] — cell adjacency: the paper's 10-cell linear road and its
//!   ring closure (Fig. 2a), plus a hexagonal 2-D grid (Fig. 2b) for the
//!   paper's future-work extension;
//! * [`geometry`] — the 1-D road geometry: positions, boundary-crossing
//!   times, direction handling;
//! * [`signaling`] — the inter-BS communication substrate (Fig. 1): star
//!   topology through a Mobile Switching Center vs. fully-connected BSs,
//!   with message/hop accounting for the complexity results (Fig. 13);
//! * [`wired`] — the capacitated wired backbone with per-connection path
//!   allocation and crossover re-routing on hand-off (the Section 7
//!   wired-reservation extension).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bu;
pub mod cell;
pub mod geometry;
pub mod hex;
pub mod ids;
pub mod signaling;
pub mod topology;
pub mod wired;

pub use bu::{Bandwidth, MediaClass};
pub use cell::{Arrival, ArrivalGroup, ArrivalIndex, Cell, CellError, ConnInfo};
pub use geometry::{Direction, RoadGeometry};
pub use hex::{HexDir, HexGrid};
pub use ids::{CellId, ConnectionId};
pub use signaling::{BsNetwork, BsNetworkKind, MessageKind, MessageStats};
pub use topology::Topology;
pub use wired::{NodeId, NodeKind, WiredError, WiredNetwork, WiredNetworkBuilder};
