//! Pins the CPU slice's execution to recorded checkpoint bytes.
//!
//! Each case runs a CPU-on platform and folds the FNV-1a digest of the
//! full checkpoint every `STRIDE` ticks, and at every tick of a dense
//! window, into one trail digest. The expected digests were recorded
//! with every instruction executed by `Cpu::step`, none retired in bulk
//! by `Cpu::retire_spin`, so any byte that bulk retirement moves — a
//! register, the UART countdown, the retired-instruction or cycle count,
//! the watchdog counter or the slice's cycle debt — fails the case that
//! exercises it. They are digests of format-2 checkpoints, re-recorded
//! when the format dropped its derived and constant fields: an encoder of
//! the old format, run beside the new one, still gave the digests first
//! recorded, and at every sampled tick the new checkpoint restored to a
//! platform whose old-format bytes equalled the live platform's.

use ascp_core::checkpoint;
use ascp_core::platform::{Platform, PlatformConfig, PlatformVariant};
use ascp_mcu8051::periph::Bus16Device;
use ascp_sim::fault::FaultKind;
use ascp_sim::snapshot::fnv1a64;

/// Ticks per case (80 ms at the default 250 kHz DSP rate).
const TICKS: u64 = 20_000;
/// Checkpoint stride outside the dense window (prime, so samples walk
/// through every phase of the firmware loop).
const STRIDE: u64 = 397;
/// Every tick in this window is checkpointed.
const DENSE: std::ops::Range<u64> = 9_000..9_040;

fn cpu_on() -> ascp_core::platform::PlatformConfigBuilder {
    PlatformConfig::builder().cpu_enabled(true).seed(0x5eed)
}

/// Arms the watchdog through its registers (reload first, then CTRL).
fn arm_watchdog(p: &mut Platform, reload: u16) {
    let bus = p.bus_mut();
    bus.watchdog.write16(1, reload);
    bus.watchdog.write16(0, 1);
}

/// Runs `p` for [`TICKS`] ticks, calling `before(tick, p)` ahead of each
/// one, and returns the digest of the sampled checkpoint trail.
fn trail(p: &mut Platform, mut before: impl FnMut(u64, &mut Platform)) -> u64 {
    let mut digests = Vec::new();
    for tick in 0..TICKS {
        before(tick, p);
        p.step();
        if tick % STRIDE == 0 || DENSE.contains(&tick) {
            digests.extend(fnv1a64(&checkpoint::save(p)).to_le_bytes());
        }
    }
    digests.extend(fnv1a64(&checkpoint::save(p)).to_le_bytes());
    fnv1a64(&digests)
}

/// `MONITOR` with the watchdog off or armed at `reload`; returns the
/// trail digest and the watchdog resets it caused.
fn monitor(reload: Option<u16>) -> (u64, u32) {
    let mut p = Platform::new(cpu_on().build().expect("valid"));
    if let Some(reload) = reload {
        arm_watchdog(&mut p, reload);
    }
    (trail(&mut p, |_, _| {}), p.watchdog_resets())
}

#[test]
fn monitor_without_watchdog() {
    assert_eq!(monitor(None), (0xc6051e14d2cf4ab4, 0));
}

#[test]
fn monitor_with_a_slack_watchdog() {
    assert_eq!(monitor(Some(20_000)), (0x8a8386fadad927a1, 0));
}

#[test]
fn monitor_with_a_watchdog_that_bites_every_frame() {
    // A MONITOR frame takes ~850 machine cycles, so both reloads expire
    // inside it: 700 in the pacing loop, 97 during the first UART byte.
    let (digest, resets) = monitor(Some(700));
    assert_eq!(digest, 0x1533d947dd0af518);
    assert!(resets > 100, "{resets} resets");
    let (digest, resets) = monitor(Some(97));
    assert_eq!(digest, 0x45f275002f2a8067);
    assert!(resets > 1_000, "{resets} resets");
}

#[test]
fn monitor_under_uart_bit_errors() {
    let c = cpu_on()
        .fault_permanent(FaultKind::UartBitErrors { rate: 0.5 }, 0.01)
        .build()
        .expect("valid");
    let mut p = Platform::new(c);
    assert_eq!(trail(&mut p, |_, _| {}), 0xbff7fd5b80b961bf);
    assert!(p.cpu_mut().uart_line_errors() > 0);
}

#[test]
fn hung_cpu_under_watchdog_resets() {
    let c = cpu_on()
        .fault_one_shot(FaultKind::CpuHang, 0.005, 0.02)
        .build()
        .expect("valid");
    let mut p = Platform::new(c);
    arm_watchdog(&mut p, 2_000);
    assert_eq!(trail(&mut p, |_, _| {}), 0x01caf5f430a61372);
    assert!(p.watchdog_resets() > 5, "{} resets", p.watchdog_resets());
    assert!(!p.cpu_mut().is_hung(), "the one-shot hang has cleared");
}

#[test]
fn prototype_boot_loader_waits_then_downloads() {
    // The boot loader spins on RI until the host sends a length-prefixed
    // image, here a two-byte `sjmp $` that it then launches at 0x1000.
    let c = cpu_on()
        .variant(PlatformVariant::Prototype)
        .build()
        .expect("valid");
    let mut p = Platform::new(c);
    let digest = trail(&mut p, |tick, p| {
        if tick == 8_000 {
            for byte in [2, 0, 0x80, 0xfe] {
                p.cpu_mut().uart_inject_rx(byte);
            }
        }
    });
    assert_eq!(digest, 0xe3ff5a56fdf1a9d6);
    assert_eq!(p.cpu_mut().pc(), 0x1000, "spinning in the downloaded image");
}
