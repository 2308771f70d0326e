//! Benchmarks of the platform co-simulation and 8051 subsystem: how many
//! simulated DSP ticks / CPU instructions per wall second the reproduction
//! sustains (the practical cost of every table/figure run).
//!
//! Flags: `--short` shrinks the measurement protocol (gate/CI smoke);
//! `--check <path>` compares the run against a committed
//! `BENCH_platform_sim.json` and exits non-zero if any benchmark's min
//! ns/iter regressed by more than 50% (noise-tolerant perf guard). Full
//! (non-`--short`) runs rewrite `BENCH_platform_sim.json` at the
//! repository root; smoke runs only read it. The `layer/tick.*` entries
//! time each part of a CPU-off tick alone and print their sum next to
//! `platform/dsp_tick_no_cpu` — a report, not a gate. So are the
//! telemetry, trace+recorder and supervisor overhead lines, which time
//! their two arms interleaved and print a median with its quartiles.

use ascp_afe::adc::{AdcConfig, SarAdc};
use ascp_afe::amp::{ChargeAmplifier, Pga};
use ascp_afe::dac::{Dac, DacConfig};
use ascp_afe::filter::AntiAliasFilter;
use ascp_bench::harness::{
    bench, black_box, check_against, check_path_from_args, repo_root_path, time_paired,
    write_bench_json, BenchStats,
};
use ascp_core::platform::{Platform, PlatformConfig, PlatformFleet};
use ascp_core::system::{SystemModel, SystemModelConfig};
use ascp_dsp::fixed::Q15;
use ascp_mcu8051::asm::assemble;
use ascp_mcu8051::cpu::{Cpu, NullBus};
use ascp_mems::gyro::{GyroParams, RingGyro};
use ascp_mems::resonator::Resonator;
use ascp_sim::noise::{PinkNoise, WhiteNoise};
use ascp_sim::telemetry::TelemetryConfig;
use ascp_sim::units::Volts;

fn main() {
    println!("== platform_sim ==");
    let mut all: Vec<BenchStats> = Vec::new();

    // The noise layer: ns per Gaussian draw, round robin over as many
    // sources as the gyro tick draws from (13 white; the two PGAs' 14-row
    // pink ladders), so block refills interleave as they do in the tick.
    const WHITE_SOURCES: u64 = 13;
    let mut white: Vec<WhiteNoise> = (0..WHITE_SOURCES)
        .map(|i| WhiteNoise::new(1.0, 0x5eed_0000 + i))
        .collect();
    let mut next = 0;
    all.push(bench("noise/white_sample", || {
        next = if next + 1 == white.len() { 0 } else { next + 1 };
        white[next].sample()
    }));
    let mut pink = [PinkNoise::new(1.0, 14, 0x99), PinkNoise::new(1.0, 14, 0x98)];
    let mut next = 0;
    all.push(bench("noise/pink_sample", || {
        next ^= 1;
        pink[next].sample()
    }));

    let mut res = Resonator::new(15_000.0, 2_000.0);
    all.push(bench("mems/resonator_zoh_step", || {
        res.step(black_box(0.1), 1.0e-6);
    }));
    let mut res = Resonator::new(15_000.0, 2_000.0);
    all.push(bench("mems/resonator_rk4_step", || {
        res.step_rk4(black_box(0.1), 1.0e-6);
    }));

    let mut gyro = RingGyro::new(GyroParams::default());
    all.push(bench("mems/gyro_step", || {
        gyro.step(black_box(0.1), 0.0, 1.0e-6)
    }));

    let mut model = SystemModel::new(SystemModelConfig::default());
    all.push(bench("system_model/float_step", || model.step()));

    let cfg = PlatformConfig::builder()
        .cpu_enabled(false)
        .build()
        .expect("valid");
    let mut p = Platform::new(cfg);
    let tick_no_cpu = bench("platform/dsp_tick_no_cpu", || p.step());

    // Tick attribution, a report only: the parts of that tick timed one by
    // one add up to a total printed next to it, and whatever they leave out
    // (the ADC window stats, the SRAM capture, the 1 kHz service, the call
    // glue) is the unattributed share.
    let parts = tick_components();
    let sum: f64 = parts.iter().map(|s| s.min_ns_per_iter).sum();
    let rest = tick_no_cpu.min_ns_per_iter - sum;
    println!(
        "tick attribution: components sum to {sum:.1} of {:.1} ns per CPU-off tick \
         ({rest:.1} ns, {:.1}% unattributed)",
        tick_no_cpu.min_ns_per_iter,
        rest / tick_no_cpu.min_ns_per_iter * 100.0
    );
    all.push(tick_no_cpu);
    all.extend(parts);

    let cfg = PlatformConfig::builder()
        .cpu_enabled(false)
        .build()
        .expect("valid");
    let mut p = Platform::new(cfg);
    all.push(bench("platform/block_1k_ticks_no_cpu", || {
        p.step_block(1000)
    }));

    let cfg = PlatformConfig::builder()
        .cpu_enabled(true)
        .build()
        .expect("valid");
    let mut p = Platform::new(cfg);
    all.push(bench("platform/dsp_tick_with_cpu", || p.step()));

    // Telemetry overhead: the enabled (default) path vs the no-op path.
    // The acceptance bar for the observability layer is <= 5% on the
    // default sim loop. Between 1 kHz services and fault edges the tick
    // makes no telemetry call, so the difference is the scrape at the
    // monitoring cadence.
    let cfg = PlatformConfig::builder()
        .cpu_enabled(false)
        .build()
        .expect("valid");
    let mut p_on = Platform::new(cfg);
    let on = bench("platform/tick_telemetry_on", || p_on.step());

    let cfg = PlatformConfig::builder()
        .cpu_enabled(false)
        .telemetry(TelemetryConfig::disabled())
        .build()
        .expect("valid");
    let mut p_off = Platform::new(cfg);
    let off = bench("platform/tick_telemetry_off", || p_off.step());
    overhead_verdict("telemetry", 5.0, &mut p_on, &mut p_off);
    all.push(on);

    // Full observability: span tracing attached *and* the flight recorder
    // armed (but never triggered — the config is healthy). This is the
    // per-tick cost of running a campaign with `--tracing` + recorder on:
    // one `Option` branch plus a handful of `f64` stores for the ring.
    // Acceptance bar: <= 5% versus the plain default tick.
    let cfg = PlatformConfig::builder()
        .cpu_enabled(false)
        .recorder(ascp_sim::telemetry::RecorderConfig::fault_triggers(2048))
        .build()
        .expect("valid");
    let mut p_obs = Platform::new(cfg);
    let collector = ascp_sim::telemetry::trace::TraceCollector::new();
    p_obs.attach_trace(collector.recorder(1));
    let observed = bench("platform/dsp_tick_observed", || p_obs.step());
    // `p_on` is the plain default tick, `platform/dsp_tick_no_cpu`'s config.
    overhead_verdict("trace+recorder", 5.0, &mut p_obs, &mut p_on);
    all.push(observed);
    all.push(off);

    // Fault-injection + supervisor overhead: with an empty fault plan the
    // injection hook is one branch per tick, and the supervisor runs only
    // at the 1 kHz monitoring cadence. Acceptance bar: <= 2% on the
    // default sim loop versus the supervisor disabled outright.
    let cfg = PlatformConfig::builder()
        .cpu_enabled(false)
        .build()
        .expect("valid");
    let mut p_sup = Platform::new(cfg);
    let sup_on = bench("platform/tick_supervisor_on", || p_sup.step());

    let cfg = PlatformConfig::builder()
        .cpu_enabled(false)
        .supervisor_enabled(false)
        .build()
        .expect("valid");
    let mut p_nosup = Platform::new(cfg);
    let sup_off = bench("platform/tick_supervisor_off", || p_nosup.step());
    overhead_verdict("fault/supervisor", 2.0, &mut p_sup, &mut p_nosup);
    all.push(sup_on);
    all.push(sup_off);

    // Batched fleet throughput: N platforms stepped in lockstep through
    // the structure-of-arrays lane kernels versus the same N stepped
    // independently — the hot path under the `monte_carlo` campaign axis.
    // The original acceptance bar was > 4x aggregate ticks/sec at
    // N = 8–16. With scalar sources drawing their Gaussian noise in
    // blocks through the same AVX2 kernel as the lanes, alternating runs
    // on a 2-vCPU host read 1.47x median (quartiles 1.28–1.62; DESIGN.md
    // §14), so the print reports against the 4x bar truthfully rather
    // than moving the goalposts.
    const FLEET_N: usize = 16;
    let make_members = || -> Vec<Platform> {
        (0..FLEET_N)
            .map(|i| {
                Platform::new(
                    PlatformConfig::builder()
                        .cpu_enabled(false)
                        .seed(0x5eed_0000 + i as u64)
                        .build()
                        .expect("valid"),
                )
            })
            .collect()
    };
    let mut independents = make_members();
    let scalar_x16 = bench("platform/fleet_scalar_x16", || {
        for p in &mut independents {
            p.step();
        }
    });
    let mut fleet = PlatformFleet::new(make_members()).expect("fleet eligible");
    let fleet_x16 = bench("platform/fleet_tick_x16", || fleet.step());
    let fleet_speedup = scalar_x16.min_ns_per_iter / fleet_x16.min_ns_per_iter;
    println!(
        "fleet speedup at N={FLEET_N}: {fleet_speedup:.2}x aggregate ({} > 4x bar)",
        if fleet_speedup > 4.0 {
            "meets"
        } else {
            "MISSES"
        }
    );
    all.push(scalar_x16);
    all.push(fleet_x16);

    // ISS throughput: one fetch/decode/execute `Cpu::step` per iteration
    // over a short arithmetic loop. The entry keeps its `_uncached` name
    // so the committed trajectory stays comparable across versions.
    let rom = assemble("start: mov a, #1\nadd a, #2\nmov r0, a\ndjnz r0, start\nsjmp start\n")
        .expect("assembles");
    let mut bus = NullBus;
    let mut cpu = Cpu::new();
    cpu.load_code(&rom);
    all.push(bench("mcu8051/instruction_step_uncached", || {
        cpu.step(&mut bus)
    }));

    // Perf guard first (against the committed baseline), then rewrite the
    // trajectory file with this run. Short (smoke) runs never rewrite the
    // baseline: their shrunken protocol is too noisy to commit, and the
    // gate would otherwise dirty the checked-in file on every run.
    let regressed = check_path_from_args().map(|path| {
        check_against(&path, &all, 0.5)
            .unwrap_or_else(|e| panic!("cannot read baseline {}: {e}", path.display()))
    });
    if !ascp_bench::harness::short_mode() {
        write_bench_json(repo_root_path("BENCH_platform_sim.json"), &all)
            .expect("write bench trajectory");
    }
    if let Some(regressed) = regressed {
        assert!(
            regressed.is_empty(),
            "perf smoke failed — regressed >50%: {regressed:?}"
        );
        println!("perf check passed (no benchmark regressed >50%)");
    }
}

/// Prints the overhead of ticking `on` over ticking `off`, a report: the
/// arms are timed in interleaved block pairs ([`time_paired`]), each block
/// spanning a whole number of 1 kHz services.
fn overhead_verdict(label: &str, budget_pct: f64, on: &mut Platform, off: &mut Platform) {
    let (pairs, ticks) = if ascp_bench::harness::short_mode() {
        (41, 2_500)
    } else {
        (101, 25_000)
    };
    let block = |p: &mut Platform| {
        for _ in 0..ticks {
            black_box(p.step());
        }
    };
    let times = time_paired(pairs, || block(on), || block(off));
    println!(
        "{}",
        times.summary(&format!("{label} (per tick)"), budget_pct)
    );
}

/// Cycles through a fixed table of per-tick inputs, wrapping by compare.
struct Cycle<T> {
    samples: Vec<T>,
    k: usize,
}

impl<T: Copy> Cycle<T> {
    fn next(&mut self) -> T {
        self.k = if self.k + 1 == self.samples.len() {
            0
        } else {
            self.k + 1
        };
        self.samples[self.k]
    }
}

/// A 15 kHz carrier at the default 250 kHz DSP rate, mapped through `f`:
/// 50 ticks hold exactly three periods.
fn carrier<T>(f: impl Fn(f64) -> T) -> Cycle<T> {
    let samples = (0..50)
        .map(|k| f((2.0 * std::f64::consts::PI * 15_000.0 * f64::from(k) / 250_000.0).sin()))
        .collect();
    Cycle { samples, k: 0 }
}

/// Times each part of a default CPU-off gyro tick in isolation: the
/// components `Platform::new` builds, with its parameters and step sizes
/// (one analog substep, so both steps are `1 / dsp_rate`), called as one
/// tick calls them and fed a carrier at the levels a settled platform
/// runs at (2 V at the pickoff, the AGC setpoint at the ADC).
fn tick_components() -> Vec<BenchStats> {
    let cfg = PlatformConfig::default();
    let seed = cfg.seed;
    let dt = 1.0 / cfg.dsp_rate.0;
    let pick_v = cfg.gyro.nominal_amplitude * cfg.charge_gain;

    let mut gyro = RingGyro::new(cfg.gyro);
    let mut drive = carrier(|s| 0.1 * s);
    let gyro_step = bench("layer/tick.gyro_step", || gyro.step(drive.next(), 0.0, dt));

    let amplitude = cfg.gyro.nominal_amplitude;
    let mut charge = [
        ChargeAmplifier::new(cfg.charge_gain, 50.0e-6, seed ^ 0x11),
        ChargeAmplifier::new(cfg.charge_gain, 50.0e-6, seed ^ 0x22),
    ];
    let mut pick = carrier(|s| (amplitude * s, 1.0e-3 * amplitude * s));
    let charge_convert = bench("layer/tick.charge_convert_x2", || {
        let (pri, sec) = pick.next();
        (charge[0].convert(pri), charge[1].convert(sec))
    });

    let mut aaf = [
        AntiAliasFilter::butterworth(cfg.aaf_corner),
        AntiAliasFilter::butterworth(cfg.aaf_corner),
    ];
    let mut volts = carrier(|s| (Volts(pick_v * s), Volts(1.0e-3 * pick_v * s)));
    let aaf_process = bench("layer/tick.aaf_process_x2", || {
        let (pri, sec) = volts.next();
        (aaf[0].process(pri, dt), aaf[1].process(sec, dt))
    });

    let mut pga = [
        Pga::new(200_000.0, 100.0e-6, 2.0e-6, 20.0e-6, seed ^ 0x33),
        Pga::new(200_000.0, 100.0e-6, 2.0e-6, 20.0e-6, seed ^ 0x44),
    ];
    pga[1].set_gain_code(cfg.secondary_pga_code);
    let pga_process = bench("layer/tick.pga_process_x2", || {
        let (pri, sec) = volts.next();
        (pga[0].process(pri, dt), pga[1].process(sec, dt))
    });

    let mut adc = [0x55, 0x66].map(|s| {
        SarAdc::new(AdcConfig {
            seed: seed ^ s,
            ..cfg.adc
        })
    });
    let mut acquired = carrier(|s| (Volts(pick_v * s), Volts(0.5 * pick_v * s)));
    let adc_convert = bench("layer/tick.adc_convert_x2", || {
        let (pri, sec) = acquired.next();
        (adc[0].convert_q15(pri), adc[1].convert_q15(sec))
    });

    let mut dac = [
        (cfg.drive_dac, 0x77),
        (cfg.rebalance_dac, 0x88),
        (cfg.rate_dac, 0x99),
    ]
    .map(|(c, s)| DacConfig {
        seed: seed ^ s,
        ..c
    })
    .map(Dac::new);
    let mut words = carrier(|s| {
        (
            Q15::from_f64(0.13 * s),
            Q15::from_f64(0.01 * s),
            Q15::from_f64(0.02),
        )
    });
    let dac_write = bench("layer/tick.dac_write_x3", || {
        let (d, b, r) = words.next();
        (
            dac[0].write_q15(d),
            dac[1].write_q15(b),
            dac[2].write_q15(r),
        )
    });

    let mut settled = Platform::new(
        PlatformConfig::builder()
            .cpu_enabled(false)
            .build()
            .expect("valid"),
    );
    settled
        .wait_for_ready(2.0)
        .expect("the default platform settles");
    let mut chain = settled.chain().clone();
    let setpoint = chain.config().agc.setpoint;
    let mut codes = carrier(|s| (Q15::from_f64(setpoint * s), Q15::from_f64(1.0e-3 * s)));
    let chain_process = bench("layer/tick.chain_process", || {
        let (pri, sec) = codes.next();
        chain.process(pri, sec)
    });

    vec![
        gyro_step,
        charge_convert,
        aaf_process,
        pga_process,
        adc_convert,
        dac_write,
        chain_process,
    ]
}
