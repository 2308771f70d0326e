//! Pins the scalar gyro tick to recorded bytes.
//!
//! Each platform case arms the flight recorder and drives a script of
//! mid-run events through the public surface: an anti-alias corner and a
//! PGA gain-code retune written to the AFE registers, a temperature step,
//! an ADC resolution change, three one-shot faults, and a
//! `checkpoint::save` → `restore` after which the restored platform runs
//! on. Three digests come out: the FNV-1a digest of the full checkpoint
//! every `STRIDE` ticks (folded into one trail digest), the bits of the
//! rate output at every tick, and the JSON of every recorder capture.
//!
//! The component cases run a PGA and an anti-alias filter on their own,
//! retuning the pole, the corner and the step size mid-run, since the
//! platform always steps both at one fixed `dt`.
//!
//! The expected digests were recorded before the tick cached any per-run
//! coefficient (the PGA pole, the filter's `ω²` and `ω/Q`, the DAC and ADC
//! scale factors), took the noise fast path, wrapped the FIR delay index
//! by compare or kept the recorder as a fixed-slot ring. A cache that
//! misses one of its keys, or a ring that linearizes out of order, fails
//! the case that exercises it.

use ascp_afe::amp::Pga;
use ascp_afe::filter::AntiAliasFilter;
use ascp_afe::regs::AfeReg;
use ascp_core::checkpoint;
use ascp_core::platform::{Platform, PlatformConfig};
use ascp_sim::fault::{AdcChannel, FaultKind};
use ascp_sim::snapshot::fnv1a64;
use ascp_sim::telemetry::RecorderConfig;
use ascp_sim::units::{Celsius, Volts};

/// Ticks per platform case (440 ms at the default 250 kHz DSP rate). The
/// supervisor leaves Init at ~0.22 s, and only then can the faults at
/// 0.24, 0.27 and 0.40 s trigger the recorder.
const TICKS: u64 = 110_000;
/// Checkpoint stride (prime, so samples walk through every phase of the
/// 1 kHz monitoring cadence).
const STRIDE: u64 = 307;
/// The tick at which the platform is saved and replaced by its restore.
const RESTORE_AT: u64 = 97_500;

/// What a platform case digests.
#[derive(Debug, PartialEq, Eq)]
struct Digests {
    /// Sampled checkpoint trail.
    trail: u64,
    /// Rate-output bits at every tick.
    rate: u64,
    /// Every capture's JSON, in order.
    captures: u64,
    /// Captures taken.
    n_captures: usize,
}

fn config(cpu: bool) -> PlatformConfig {
    PlatformConfig::builder()
        .cpu_enabled(cpu)
        .seed(0x71c6)
        .recorder(RecorderConfig::fault_triggers(96))
        .fault_one_shot(FaultKind::ReferenceDroop { frac: 0.4 }, 0.240, 0.004)
        .fault_one_shot(
            FaultKind::AdcOverload {
                channel: AdcChannel::Primary,
                gain: 6.0,
            },
            0.270,
            0.003,
        )
        .fault_one_shot(
            FaultKind::AdcStuckCode {
                channel: AdcChannel::Primary,
                code: 0,
            },
            0.400,
            0.005,
        )
        .build()
        .expect("valid")
}

fn write_afe(p: &Platform, reg: AfeReg, value: u16) {
    p.afe_regs()
        .borrow_mut()
        .write(reg, value)
        .expect("legal register value");
}

/// Runs the scripted case and returns its digests.
fn scripted(cpu: bool) -> Digests {
    let config = config(cpu);
    let mut p = Platform::new(config.clone());
    let mut trail = Vec::new();
    let mut rate = Vec::new();
    let mut captures = Vec::new();
    let mut n_captures = 0;
    for tick in 0..TICKS {
        match tick {
            2_500 => write_afe(&p, AfeReg::AafCorner, 220),
            5_000 => write_afe(&p, AfeReg::PgaPrimaryGain, 1),
            7_500 => write_afe(&p, AfeReg::AdcBits, 14),
            12_500 => p.set_temperature(Celsius(85.0)),
            RESTORE_AT => {
                let bytes = checkpoint::save(&p);
                p = checkpoint::restore(config.clone(), &bytes).expect("round trip");
            }
            _ => {}
        }
        p.step();
        rate.extend(p.rate_output().0.to_bits().to_le_bytes());
        if let Some(c) = p.take_capture() {
            captures.extend(c.to_json().into_bytes());
            n_captures += 1;
        }
        if tick % STRIDE == 0 {
            trail.extend(fnv1a64(&checkpoint::save(&p)).to_le_bytes());
        }
    }
    trail.extend(fnv1a64(&checkpoint::save(&p)).to_le_bytes());
    Digests {
        trail: fnv1a64(&trail),
        rate: fnv1a64(&rate),
        captures: fnv1a64(&captures),
        n_captures,
    }
}

#[test]
fn cpu_off_tick_through_retunes_faults_and_a_restore() {
    assert_eq!(
        scripted(false),
        Digests {
            trail: 0x23c01ad7ae355103,
            rate: 0x470fbc9aa5d4614a,
            captures: 0x74dcd36e7308083d,
            n_captures: 3,
        }
    );
}

#[test]
fn cpu_on_tick_through_retunes_faults_and_a_restore() {
    assert_eq!(
        scripted(true),
        Digests {
            trail: 0x746d6bc69295cded,
            rate: 0x470fbc9aa5d4614a,
            captures: 0xd6fc06df9f8beeab,
            n_captures: 3,
        }
    );
}

#[test]
fn pga_pole_follows_bandwidth_and_step_size() {
    let mut pga = Pga::new(180_000.0, 150.0e-6, 2.0e-6, 25.0e-6, 0x9a);
    pga.set_gain_code(3);
    let mut bits = Vec::new();
    for k in 0..6_000u32 {
        match k {
            1_500 => pga.set_bandwidth(40_000.0),
            3_000 => pga.set_temperature(Celsius(-20.0)),
            4_500 => pga.set_bandwidth(180_000.0),
            _ => {}
        }
        // The step size alternates between two values every 750 samples.
        let dt = if (k / 750) % 2 == 0 { 4.0e-6 } else { 1.0e-6 };
        let x = 0.01 * (0.021 * f64::from(k)).sin();
        bits.extend(pga.process(Volts(x), dt).0.to_bits().to_le_bytes());
    }
    assert_eq!(fnv1a64(&bits), 0x0d1d406a5c36a56e);
}

#[test]
fn anti_alias_filter_follows_its_corner() {
    let mut aaf = AntiAliasFilter::butterworth(30_000.0);
    let mut bits = Vec::new();
    for k in 0..6_000u32 {
        match k {
            1_500 => aaf.set_corner(12_000.0),
            3_000 => aaf.set_corner(45_000.0),
            4_500 => aaf.set_corner(30_000.0),
            _ => {}
        }
        let dt = if (k / 1_000) % 2 == 0 { 4.0e-6 } else { 1.0e-6 };
        let u = 0.4 * (0.037 * f64::from(k)).sin();
        bits.extend(aaf.process(Volts(u), dt).0.to_bits().to_le_bytes());
    }
    assert_eq!(fnv1a64(&bits), 0xbf78327e5fcab9ea);
}
