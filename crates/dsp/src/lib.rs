//! # ascp-dsp — fixed-point DSP IP portfolio
//!
//! The hardwired digital section of the ASCP platform (reproduction of
//! *Platform Based Design for Automotive Sensor Conditioning*, DATE 2005).
//! The paper's "DSP block" is a chain of dedicated IPs — "FIR/IIR filters,
//! modulator, demodulator, etc." — dimensioned from a MATLAB model and then
//! implemented in RTL. This crate is that IP portfolio, bit-accurate:
//!
//! | paper IP | module |
//! |---|---|
//! | fixed-point datapath | [`fixed`] (Q-format arithmetic with saturation) |
//! | FIR filters | [`fir`] (windowed-sinc design + MAC datapath) |
//! | IIR filters | [`iir`] (RBJ biquads) |
//! | decimators | [`cic`] (multiplier-free CIC) |
//! | PLL for primary drive | [`pll`] (phase detector + PI + NCO) |
//! | AGC for drive amplitude | [`agc`] |
//! | demodulator / modulator | [`demod`] |
//! | temperature/offset compensation | [`comp`] |
//! | oscillator reference | [`nco`], [`cordic`] |
//! | bench-side spectrum analysis | [`fft`] (f64 FFT + Welch PSD) |
//!
//! # Example: demodulating a rate signal
//!
//! ```
//! use ascp_dsp::{demod::Demodulator, nco::Nco, fixed::Q15};
//!
//! let fs = 250_000.0;
//! let mut nco = Nco::new();
//! nco.set_frequency(15_000.0, fs);
//! let mut demod = Demodulator::new(1_000.0 / fs, 63, 25);
//! let mut rate = 0.0;
//! for _ in 0..50_000 {
//!     let (s, c) = nco.tick();
//!     let pickoff = Q15::from_f64(0.2 * s.to_f64()); // 0.2 FS in-phase AM
//!     if let Some(out) = demod.process(pickoff, s, c) {
//!         rate = out.i.to_f64();
//!     }
//! }
//! assert!((rate - 0.2).abs() < 0.01);
//! ```

pub mod agc;
pub mod cic;
pub mod comp;
pub mod cordic;
pub mod demod;
pub mod fft;
pub mod fir;
pub mod fixed;
pub mod iir;
pub mod nco;
pub mod pll;
