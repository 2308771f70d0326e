//! # ascp-sim — mixed-signal simulation kernel
//!
//! Discrete-time simulation substrate for the ASCP platform (a Rust
//! reproduction of *Platform Based Design for Automotive Sensor
//! Conditioning*, DATE 2005).
//!
//! The paper's design flow co-simulates a MATLAB system model, VHDL-AMS
//! analog models and VHDL digital hardware. This crate provides the common
//! ground those environments share. The multi-rate schedule itself (analog
//! substeps per DSP tick, fractional CPU machine cycles per tick) is the
//! platform's own loop in `ascp-core`; this crate supplies:
//!
//! - strongly-typed physical [`units`] (volts, hertz, seconds, °/s, °C);
//! - waveform recording ([`trace`]) with CSV export, the stand-in for the
//!   paper's MATLAB plots and AC-probe screenshots (Figs. 5 and 6);
//! - seeded [`noise`] sources (white, pink, random-walk) used by the MEMS
//!   and analog front-end models;
//! - small numeric [`stats`] helpers (mean/variance, linear regression,
//!   settling detection) shared by the characterization harness;
//! - [`vcd`] waveform export (open runs in GTKWave next to RTL dumps) and
//!   the [`allan`] deviation analysis used for gyro stability figures;
//! - a [`campaign`] worker-pool engine that shards independent scenario
//!   runs across threads with input-order (thread-count-independent)
//!   results;
//! - binary state [`snapshot`] primitives (self-describing length-prefixed
//!   sections, bit-exact `f64` encoding, typed decode errors) that the
//!   platform checkpoint format in `ascp-core` builds on.
//!
//! # Example
//!
//! ```
//! use ascp_sim::trace::Trace;
//!
//! let dt = 1.0e-6; // a 1 MHz analog solver step
//! let mut tr = Trace::new("sine");
//! for k in 0..1000 {
//!     let t = f64::from(k) * dt;
//!     tr.push(t, (2.0 * std::f64::consts::PI * 1.0e3 * t).sin());
//! }
//! assert_eq!(tr.len(), 1000);
//! ```

pub mod allan;
pub mod campaign;
pub mod fault;
pub mod mathx;
pub mod noise;
pub mod snapshot;
pub mod stats;
pub mod telemetry;
pub mod trace;
pub mod units;
pub mod vcd;
