//! # ascp-mems — sensor physics models
//!
//! The sensors the ASCP platform conditions (reproduction of *Platform
//! Based Design for Automotive Sensor Conditioning*, DATE 2005). The paper
//! co-simulates the sensor itself with the conditioning electronics ("the
//! sensor itself can be modeled with MATLAB, and thus co-simulated with the
//! conditioning circuitry", §2); this crate is that sensor model library:
//!
//! - [`resonator`] — the damped-harmonic-oscillator integrator (RK4);
//! - [`gyro`] — the case study's vibrating-ring yaw-rate gyro: two coupled
//!   modes, Coriolis transfer, quadrature error, Brownian noise and
//!   temperature drift;
//! - [`generic`] — capacitive/inductive behavioural sensors for the
//!   "generic platform" demonstrations;
//! - [`frontend`] — the [`frontend::SensorFrontEnd`] trait: the contract a
//!   sensor family implements to be conditioned by the generic platform
//!   channel (excitation needs, conditioning recipe, plausibility bands,
//!   wire-fault hooks, checkpointing);
//! - [`pressure`] — automotive MAP/IAT ratiometric-divider front-ends;
//! - [`accel`] — a capacitive accelerometer reusing the resonator kernel.
//!
//! # Example
//!
//! ```
//! use ascp_mems::gyro::{GyroParams, RingGyro};
//! use ascp_sim::units::DegPerSec;
//!
//! let mut gyro = RingGyro::new(GyroParams::default());
//! gyro.set_rate(DegPerSec(100.0));
//! let dt = 1.0 / 1.0e6;
//! let out = gyro.step(0.4, 0.0, dt); // drive force, rebalance force
//! assert!(out.primary.abs() < 1.0);
//! ```

pub mod accel;
pub mod frontend;
pub mod generic;
pub mod gyro;
pub mod pressure;
pub mod resonator;
