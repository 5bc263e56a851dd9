//! Discrete-event simulation (DES) engine for the PROTEAN reproduction.
//!
//! This crate provides the deterministic foundations every other crate in
//! the workspace builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — a microsecond-resolution simulated
//!   clock with saturating arithmetic and convenient conversions.
//! * [`KeyedEventQueue`] — the workspace's one event queue, the one the
//!   cluster engine runs: a 4-ary min-heap of 16-byte packed keys over a
//!   slab of payloads, ordered by an explicit [`EventKey`]
//!   `(time, major)`, so that events at the same instant pop in a
//!   deterministic, caller-chosen order. A push returns an
//!   [`EventHandle`] that cancels the event while it is pending.
//! * [`rng`] — seeded, labelled random-number streams so that independent
//!   stochastic processes (arrivals, evictions, model rotation, …) can be
//!   re-run bit-for-bit identically and varied independently.
//! * [`Ewma`] — the exponentially weighted moving average used wherever
//!   a forecast is smoothed (GPU reconfiguration, predictive container
//!   pre-provisioning).
//! * [`TimeSeries`] / [`Accumulator`] — small utilities for integrating
//!   quantities over simulated time (GPU busy time, memory occupancy,
//!   dollar cost).
//! * [`SlimPush`] / [`SlimPop`] — the size policy of per-worker and
//!   per-slice buffers: one slot on the first push, doubling after
//!   that, and halving once a pop leaves a quarter in use.
//!
//! # Example
//!
//! ```
//! use protean_sim::{EventKey, KeyedEventQueue, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Tick, Tock }
//!
//! let mut q = KeyedEventQueue::new();
//! q.push(EventKey::new(SimTime::from_secs(2.0), 1, 0), Ev::Tock);
//! q.push(EventKey::new(SimTime::from_secs(1.0), 2, 0), Ev::Tick);
//! let (key, ev) = q.pop().unwrap();
//! assert_eq!(key.time, SimTime::from_secs(1.0));
//! assert_eq!(ev, Ev::Tick);
//! ```

pub mod ewma;
pub mod queue;
pub mod rng;
pub mod series;
pub mod slim;
pub mod time;

pub use ewma::Ewma;
pub use queue::{EventHandle, EventKey, KeyedEventQueue};
pub use rng::{RngFactory, SimRng};
pub use series::{Accumulator, TimeSeries};
pub use slim::{SlimPop, SlimPush};
pub use time::{SimDuration, SimTime};
