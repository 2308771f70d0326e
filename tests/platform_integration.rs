//! Cross-crate integration tests: the full platform exercised end to end
//! through the facade crate, the way a downstream user would.

use ascp::core::calibrate::{calibrate, install, CalibrationConfig};
use ascp::core::chain::SenseMode;
use ascp::core::characterize::{characterize, CharacterizationConfig};
use ascp::core::platform::{taps, Platform, PlatformConfig, PlatformVariant};
use ascp::core::registers::{AfeRegsJtag, DspReg, DspRegsJtag};
use ascp::jtag::device::{instructions, RegAccessDevice};
use ascp::sim::stats;
use ascp::sim::units::{Celsius, DegPerSec};

fn quiet() -> PlatformConfig {
    PlatformConfig::builder().quiet().build().expect("valid")
}

#[test]
fn end_to_end_rate_measurement_with_cpu_and_jtag() {
    let cfg = PlatformConfig::builder()
        .quiet()
        .cpu_enabled(true)
        .build()
        .expect("valid");
    let mut p = Platform::new(cfg);
    p.wait_for_ready(2.0).expect("lock");

    // Apply a rate; read it three ways: analog output, CPU UART frame,
    // JTAG register — all must agree.
    p.set_rate(DegPerSec(200.0));
    p.run(0.4);
    p.cpu_mut().uart_take_tx();
    let analog = stats::mean(&p.sample_rate_output(0.1, 200));

    // CPU view (UART frame rate register, FS ±500 °/s).
    p.run(0.02);
    let tx = p.cpu_mut().uart_take_tx();
    let pos = tx
        .iter()
        .position(|&b| b == ascp::core::firmware::FRAME_HEADER)
        .expect("frame");
    let cpu_rate_raw = i16::from_le_bytes([tx[pos + 2], tx[pos + 3]]);
    let cpu_rate = f64::from(cpu_rate_raw) / 32768.0 * 500.0;

    // JTAG view of the same register.
    let jtag = p.jtag_mut();
    jtag.select(taps::DSP, instructions::REG_ACCESS)
        .expect("select");
    jtag.scan_dr(
        taps::DSP,
        RegAccessDevice::<DspRegsJtag>::pack_read(DspReg::RateOut.addr()),
    )
    .expect("request");
    let dr = jtag.scan_dr(taps::DSP, 0).expect("data");
    let jtag_rate =
        f64::from(RegAccessDevice::<DspRegsJtag>::unpack_data(dr) as i16) / 32768.0 * 500.0;

    assert!((analog.abs() - 200.0).abs() < 20.0, "analog {analog}");
    assert!(
        (cpu_rate - analog).abs() < 15.0,
        "cpu {cpu_rate} vs {analog}"
    );
    assert!(
        (jtag_rate - analog).abs() < 15.0,
        "jtag {jtag_rate} vs {analog}"
    );
}

#[test]
fn full_characterization_matches_paper_shape() {
    // Realistic mechanical noise: below ~0.01 °/s/√Hz the 12-bit rate DAC
    // quantizes the zero-rate output to a constant and the PSD reads zero.
    let cfg = PlatformConfig::builder()
        .quiet()
        .noise_density(0.05)
        .build()
        .expect("valid");
    let mut p = Platform::new(cfg);
    p.wait_for_ready(2.0).expect("lock");
    let cal = calibrate(&mut p, &CalibrationConfig::fast());
    install(&mut p, &cal);
    let mut cfg = CharacterizationConfig::fast();
    cfg.rate_points = vec![-300.0, -100.0, 0.0, 100.0, 300.0];
    let ds = characterize(&mut p, &cfg);

    let sens = ds.sensitivity_initial.expect("sens").typ.abs();
    assert!((sens - 5.0).abs() < 0.5, "sensitivity {sens} mV/°/s");
    let null = ds.null_initial.expect("null").typ;
    assert!((null - 2.5).abs() < 0.1, "null {null} V");
    let noise = ds.noise_density.expect("noise").typ;
    assert!(noise > 0.01 && noise < 0.2, "noise {noise} °/s/√Hz");
    let ton = ds.turn_on_time_ms.expect("turn-on");
    assert!(ton > 30.0 && ton < 1000.0, "turn-on {ton} ms");
}

#[test]
fn prototype_variant_boots_over_uart_and_runs_monitor() {
    let cfg = PlatformConfig::builder()
        .quiet()
        .cpu_enabled(true)
        .variant(PlatformVariant::Prototype)
        .build()
        .expect("valid");
    let mut p = Platform::new(cfg);
    // Download the monitor firmware via the boot loader.
    let app = ascp::core::firmware::monitor_image().expect("assembles");
    // Relocate: the boot loader jumps to 0x1000; build a trampoline image
    // whose reset vector logic lives there. Simplest: download a program
    // that sets P1 = 0x42 so we can observe execution.
    let payload =
        ascp::mcu8051::asm::assemble("org 0x1000\nmov p1, #0x42\nspin: sjmp spin\n").unwrap();
    let body = &payload[0x1000..];
    let _ = app;
    p.cpu_mut().uart_inject_rx(body.len() as u8);
    p.cpu_mut().uart_inject_rx((body.len() >> 8) as u8);
    for &b in body {
        p.cpu_mut().uart_inject_rx(b);
    }
    p.run(0.2);
    assert_eq!(p.cpu_mut().sfr(0x90), 0x42, "downloaded code did not run");
    // The DSP chain locked meanwhile, CPU or not.
    assert!(p.wait_for_ready(2.0).is_some());
}

#[test]
fn closed_loop_holds_rate_accuracy_after_trim() {
    let cfg = PlatformConfig::builder()
        .quiet()
        .loop_mode(SenseMode::ClosedLoop)
        .build()
        .expect("valid");
    let mut p = Platform::new(cfg);
    p.wait_for_ready(2.0).expect("lock");
    p.run(0.5);
    ascp::core::calibrate::trim_rebalance_phase(&mut p, 200.0, 2);
    p.set_rate(DegPerSec(150.0));
    p.run(0.6);
    let out = stats::mean(&p.sample_rate_output(0.1, 500));
    assert!(
        (out.abs() - 150.0).abs() < 25.0,
        "closed-loop read {out} for 150 °/s"
    );
}

#[test]
fn temperature_step_keeps_lock_and_output() {
    let mut p = Platform::new(quiet());
    p.wait_for_ready(2.0).expect("lock");
    p.set_rate(DegPerSec(100.0));
    for t in [-40.0, 85.0, 25.0] {
        p.set_temperature(Celsius(t));
        p.run(0.4);
        assert!(p.chain().is_locked(), "lost lock at {t} °C");
        let out = stats::mean(&p.sample_rate_output(0.1, 200));
        assert!((out.abs() - 100.0).abs() < 25.0, "output {out} at {t} °C");
    }
}

#[test]
fn jtag_full_readback_over_both_taps() {
    let mut p = Platform::new(quiet());
    let jtag = p.jtag_mut();
    // IDCODEs identify both banks.
    let ids = jtag.read_idcodes().expect("idcodes");
    assert_eq!(ids.len(), 2);
    assert_ne!(ids[0], ids[1]);
    // Write/read-back every writable AFE register.
    jtag.select(taps::AFE, instructions::REG_ACCESS)
        .expect("select");
    for (addr, value) in [(0x00u8, 3u16), (0x01, 6), (0x02, 14), (0x03, 250)] {
        jtag.scan_dr(
            taps::AFE,
            RegAccessDevice::<AfeRegsJtag>::pack_write(addr, value),
        )
        .expect("write");
        jtag.scan_dr(taps::AFE, RegAccessDevice::<AfeRegsJtag>::pack_read(addr))
            .expect("request");
        let dr = jtag.scan_dr(taps::AFE, 0).expect("data");
        assert_eq!(
            RegAccessDevice::<AfeRegsJtag>::unpack_data(dr),
            value,
            "read-back mismatch at {addr:#x}"
        );
    }
}

#[test]
fn watchdog_recovers_a_hung_monitor() {
    // Firmware that kicks once, then hangs forever.
    let cfg = PlatformConfig::builder()
        .quiet()
        .cpu_enabled(true)
        .firmware(
            ascp::mcu8051::asm::assemble(
                "
            mov 0xa1, #0x11     ; watchdog reload register
            mov 0xa2, #0x10     ; 4096+ ticks
            mov 0xa3, #0x00
            mov 0xa4, #2
            mov 0xa1, #0x10     ; enable
            mov 0xa2, #1
            mov 0xa4, #2
            hang: sjmp hang
        ",
            )
            .expect("assembles"),
        )
        .build()
        .expect("valid");
    let mut p = Platform::new(cfg);
    p.run(0.2);
    assert!(p.watchdog_resets() > 0, "watchdog never fired");
}

#[test]
fn sram_captures_rate_stream_for_readback() {
    let mut p = Platform::new(quiet());
    p.wait_for_ready(2.0).expect("lock");
    p.set_rate(DegPerSec(120.0));
    p.run(0.3);
    // Host-side (prototype GUI) arms the capture through the bus.
    {
        use ascp::mcu8051::periph::Bus16Device;
        p.bus_mut().sram.write16(0, 0b11); // enable + reset pointer
    }
    p.run(0.1);
    let samples = p.bus_mut().sram.samples().to_vec();
    assert!(samples.len() > 1000, "captured only {}", samples.len());
    // Decode the captured Q15 stream back to °/s and compare to the output.
    let decoded: Vec<f64> = samples
        .iter()
        .map(|&s| f64::from(s as i16) / 32768.0 * 500.0)
        .collect();
    let mean = stats::mean(&decoded[decoded.len() / 2..]);
    assert!((mean.abs() - 120.0).abs() < 20.0, "captured mean {mean}");
}

#[test]
fn channel_autodetect_boots_platform_firmware() {
    let cfg = PlatformConfig::builder()
        .quiet()
        .cpu_enabled(true)
        .firmware(ascp::core::firmware::autodetect_boot_image().expect("assembles"))
        .build()
        .expect("valid");
    let mut p = Platform::new(cfg);
    // Feed the monitor-sized payload marker over the UART.
    let payload =
        ascp::mcu8051::asm::assemble("org 0x1000\norl p1, #0x01\nspin: sjmp spin\n").unwrap();
    let body = &payload[0x1000..];
    p.cpu_mut().uart_inject_rx(body.len() as u8);
    p.cpu_mut().uart_inject_rx((body.len() >> 8) as u8);
    for &b in body {
        p.cpu_mut().uart_inject_rx(b);
    }
    p.run(0.4);
    let p1 = p.cpu_mut().sfr(0x90);
    assert_eq!(p1 & 0x30, 0x10, "UART channel flag: {p1:#04x}");
    assert_eq!(p1 & 0x01, 0x01, "payload marker: {p1:#04x}");
}

#[test]
fn default_run_populates_telemetry() {
    // The default platform (telemetry enabled out of the box) must yield a
    // meaningful snapshot after an ordinary lock + measure session: stage
    // timing, a metric set spanning every subsystem, and the lock event.
    let cfg = PlatformConfig::builder()
        .quiet()
        .cpu_enabled(true)
        .build()
        .expect("valid");
    let mut p = Platform::new(cfg);
    p.wait_for_ready(2.0).expect("lock");
    p.set_rate(DegPerSec(100.0));
    p.run(0.3);
    let snap = p.telemetry_snapshot();

    // Lock accounting: the PLL locked at least once, and the event log saw it.
    assert!(snap.counter("pll.lock_transitions") >= 1, "{snap:?}");
    assert!(snap.count_events("PllLocked") >= 1, "{snap:?}");
    // The streaming UART must not flood the ring (edge-triggered events);
    // a flood here would evict the lock event on longer runs.
    assert!(snap.count_events("UartTx") <= 8, "{snap:?}");

    // Breadth: metrics from AFE, DSP, CPU and JTAG all present.
    for name in [
        "sim.ticks",
        "adc.conversions",
        "dac.updates",
        "pll.lock_transitions",
        "chain.saturation_events",
        "cpu.instructions",
        "spi.transfers",
        "jtag.tck_cycles",
    ] {
        assert!(
            snap.counters.iter().any(|(n, _)| *n == name),
            "missing metric {name}"
        );
    }
    assert!(snap.counter("sim.ticks") > 0);
    assert!(snap.counter("adc.conversions") > 0);
    assert!(snap.counter("cpu.instructions") > 0);
    assert!(snap.gauge("pll.frequency_hz").is_some());
}

#[test]
fn telemetry_exports_parse_and_disabled_is_silent() {
    let mut p = Platform::new(quiet());
    p.wait_for_ready(2.0).expect("lock");
    let snap = p.telemetry_snapshot();

    // The JSON export carries the counters and the event list.
    let json = snap.to_json();
    assert!(json.contains("\"sim.ticks\""), "{json}");
    assert!(json.contains("\"events\""), "{json}");

    // A disabled collector records nothing for the same scenario.
    let cfg = PlatformConfig::builder()
        .quiet()
        .telemetry(ascp::sim::telemetry::TelemetryConfig::disabled())
        .build()
        .expect("valid");
    let mut p = Platform::new(cfg);
    p.wait_for_ready(2.0).expect("lock");
    let snap = p.telemetry_snapshot();
    assert!(snap.counters.is_empty(), "{snap:?}");
    assert!(snap.events.is_empty());
}
