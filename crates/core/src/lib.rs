//! # ascp-core — the sensor-conditioning platform
//!
//! Reproduction of *Platform Based Design for Automotive Sensor
//! Conditioning* (Fanucci et al., DATE 2005): a generic mixed-signal
//! platform — minimal programmable analog front end, hardwired DSP chain,
//! 8051 monitoring CPU, JTAG configuration — customized here for the
//! paper's case study, a vibrating-ring yaw-rate gyroscope.
//!
//! Module map (one per design-flow stage):
//!
//! - [`system`] — float system model (the MATLAB stage; Fig. 5 source);
//! - [`chain`] — the fixed-point conditioning chain (the RTL stage);
//! - [`registers`] — platform register map (CPU bridge + JTAG views);
//! - [`platform`] — the full mixed-signal platform co-simulation
//!   (MEMS + AFE + DSP + CPU + JTAG; Fig. 6 and Table 1 source);
//! - [`supervisor`] — safety supervisor FSM (plausibility checks,
//!   graceful degradation, safe state);
//! - [`firmware`] — the monitoring/communication 8051 firmware;
//! - [`verify`] — cross-level verification (system model vs platform);
//! - [`characterize`] — datasheet measurement harness (Tables 1–3 rows);
//! - [`baseline`] — behavioural models of the commercial comparators
//!   (ADXRS300, Gyrostar);
//! - [`report`] — digital-complexity accounting (the 200 kgate claim).
//! - [`campaign`] — scenario campaigns on the parallel worker pool
//!   (declarative experiment sweeps over the gyro platform and sensor
//!   channels; the bench bins are scenario lists),
//!   executed under a fault-tolerant supervision layer (panic isolation,
//!   deadline watchdog, deterministic retry, chaos injection).
//! - [`journal`] — crash-recoverable campaign journal (append-only
//!   outcome records; `CampaignRunner::resume` merges byte-identically).
//! - [`frontend`] — the generic sensor-conditioning channel: any
//!   [`ascp_mems::frontend::SensorFrontEnd`] conditioned from the same IP
//!   portfolio, with supervisor wire-fault checks and checkpointing; a
//!   campaign device through `ScenarioSpec::channel`.
//! - [`datasheet`] — the cross-sensor datasheet report generator (the
//!   paper's Table 1 extended across sensor families).
pub mod baseline;
pub mod calibrate;
pub mod campaign;
pub mod chain;
pub mod characterize;
pub mod checkpoint;
pub mod coverage;
pub mod datasheet;
pub mod firmware;
pub mod frontend;
pub mod journal;
pub mod platform;
pub mod registers;
pub mod report;
pub mod supervisor;
pub mod system;
pub mod verify;

/// One-line import for the common platform workflow.
///
/// ```
/// use ascp_core::prelude::*;
///
/// let cfg = PlatformConfig::builder().quiet().build().expect("valid");
/// let mut p = Platform::new(cfg);
/// p.run(0.001);
/// ```
pub mod prelude {
    pub use crate::campaign::{
        CampaignOptions, CampaignOptionsBuilder, CampaignReport, CampaignRunner, ChaosPlan,
        Dispersion, ScenarioError, ScenarioOutcome, ScenarioSpec, ScenarioStatus, Step,
    };
    pub use crate::chain::SenseMode;
    pub use crate::datasheet::CrossSensorReport;
    pub use crate::frontend::{ChannelConfig, ChannelStatus, SensorChannel};
    pub use crate::journal::JournalError;
    pub use crate::platform::{
        ConfigError, Platform, PlatformConfig, PlatformConfigBuilder, PlatformFleet,
    };
    pub use crate::supervisor::{SupervisorConfig, SupervisorState};
    pub use ascp_sim::fault::{AdcChannel, FaultKind, FaultPlan, FaultSpec};
}
