//! # qres-des — deterministic discrete-event simulation engine
//!
//! This crate is the simulation substrate for the reproduction of
//! *"Predictive and Adaptive Bandwidth Reservation for Hand-Offs in
//! QoS-Sensitive Cellular Networks"* (Choi & Shin, SIGCOMM '98). The paper
//! evaluates everything with a discrete-event simulator; this crate provides
//! that simulator's core machinery, independent of any cellular semantics:
//!
//! * [`SimTime`] / [`Duration`] — a total-ordered simulation clock in
//!   seconds, with day/hour helpers used by the paper's periodic mobility
//!   windows.
//! * [`EventQueue`] — a pending-event set with deterministic FIFO
//!   tie-breaking for simultaneous events and O(1) cancellation by slot.
//! * [`Simulation`] — the event loop: pop, advance clock, dispatch to a
//!   [`Handler`], until a horizon or event exhaustion.
//! * [`rng`] — seed-split deterministic random streams (ChaCha-based via
//!   `rand`), so workload randomness is independent of scheme randomness and
//!   the same seed reproduces a run bit-for-bit.
//!
//! ## Design notes
//!
//! The engine is synchronous and single-threaded on purpose. A discrete-event
//! simulation is pure CPU-bound computation with a strict global ordering of
//! events; an async runtime would add overhead and nondeterminism without
//! buying anything (tasks never wait on IO). Determinism is a first-class
//! property: two runs with the same seed and configuration produce identical
//! event sequences, which the integration tests assert.
//!
//! ## Example
//!
//! ```
//! use qres_des::{Duration, EventQueue, Handler, SimTime, Simulation};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping(u32) }
//!
//! struct Counter { seen: Vec<(SimTime, u32)> }
//!
//! impl Handler<Ev> for Counter {
//!     fn handle(&mut self, now: SimTime, ev: Ev, queue: &mut EventQueue<Ev>) {
//!         let Ev::Ping(n) = ev;
//!         self.seen.push((now, n));
//!         if n < 3 {
//!             queue.schedule(now + Duration::from_secs(1.0), Ev::Ping(n + 1));
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new();
//! sim.queue_mut().schedule(SimTime::ZERO, Ev::Ping(1));
//! let mut handler = Counter { seen: Vec::new() };
//! sim.run(&mut handler);
//! assert_eq!(handler.seen.len(), 3);
//! assert_eq!(handler.seen[2].0, SimTime::from_secs(2.0));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod queue;
pub mod rng;
pub mod sim;
pub mod time;

pub use queue::{EventHandle, EventQueue};
pub use rng::{RngFactory, StreamRng};
pub use sim::{Handler, RunOutcome, Simulation};
pub use time::{Duration, SimTime};
