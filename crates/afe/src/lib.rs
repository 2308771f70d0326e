//! # ascp-afe — analog front-end models
//!
//! The analog section of the ASCP platform (reproduction of *Platform Based
//! Design for Automotive Sensor Conditioning*, DATE 2005). The paper keeps
//! the analog side deliberately minimal — "the analog front-end only
//! consists of ADCs, DACs, amplifiers and voltage/current sources" (§3) —
//! and makes every cell digitally programmable. This crate provides those
//! cells as discrete-time behavioural models (the Rust stand-in for the
//! paper's VHDL-AMS):
//!
//! - [`adc`] — SAR ADC with programmable resolution, INL/DNL, noise;
//! - [`dac`] — drive/output DACs with gain/offset errors;
//! - [`amp`] — programmable-gain amplifier (gain ladder ×1..×512,
//!   bandwidth, offset drift, 1/f noise) and charge amplifier;
//! - [`filter`] — continuous-time anti-alias Butterworth stage;
//! - [`refs`] — bandgap voltage reference with drift and droop;
//! - [`regs`] — the JTAG-visible configuration register bank.
//!
//! # Example
//!
//! ```
//! use ascp_afe::adc::{AdcConfig, SarAdc};
//! use ascp_sim::units::Volts;
//!
//! let mut adc = SarAdc::new(AdcConfig::default());
//! let code = adc.convert(Volts(1.25));
//! assert!((code - 1024).abs() < 8); // half scale of a 12-bit ±2.5 V ADC
//! ```

pub mod adc;
pub mod amp;
pub mod dac;
pub mod filter;
pub mod refs;
pub mod regs;
