//! Seeded end-to-end and per-layer benchmark of the ASCP simulator.
//!
//! A *timed run* repeats one workload batch — set-up, campaign call, CSV —
//! for the requested seconds and reports the end-to-end metrics: median
//! set-up and wall seconds, scaled to a nominal host speed by a reference
//! kernel timed around every batch ([`host`]), the process's peak
//! resident set, and the share of scenarios that passed their physical
//! acceptance checks. A separate
//! *traced run* uses the same campaign options, records spans around every
//! call into the program, runs the layer probes, and reports the per-layer
//! metrics. The workload seed sets the inputs; the program receives only
//! the generated inputs.

pub mod host;
pub mod observe;
pub mod output;
pub mod probe;
pub mod runs;
pub mod stats;
pub mod workload;
