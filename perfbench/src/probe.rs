//! Layer probes: timed calls into single layers on a workload's own
//! configuration, each recorded as a span around the call.

use crate::stats::median;
use crate::workload::{base_builder, runs_cpu, Device, Workload, DEVICES};
use ascp_core::campaign::{derive_seed, ScenarioOutcome, ScenarioSpec};
use ascp_core::checkpoint;
use ascp_core::journal::{self, JournalWriter};
use ascp_core::platform::{Platform, PlatformConfig};
use ascp_dsp::fft::{welch_psd, Window};
use ascp_sim::telemetry::trace::TraceRecorder;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Repeats of each short probe; the median is reported.
const REPEATS: usize = 15;
/// Simulated run-in before tick probes, so they time the locked loop.
const WARM_S: f64 = 0.6;
/// Ticks per timed block of a tick probe.
const BLOCK_TICKS: u64 = 16_384;
/// Raw channel samples per timed block of a front-end probe.
const CHANNEL_BLOCK: usize = 8192;
/// Welch input: a datasheet-length capture at the output rate.
const WELCH_SAMPLES: usize = 1 << 14;
const WELCH_SEGMENT: usize = 1 << 12;

/// Named per-layer results, in reporting order.
pub type Layer = Vec<(String, f64)>;

/// Times `f` once, in seconds.
fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Runs `f` inside a span named `label`.
fn span<T>(rec: &mut TraceRecorder, label: &str, f: impl FnOnce() -> T) -> T {
    let id = rec.begin(label.to_owned(), 0.0);
    let out = f();
    rec.end(id, 0.0);
    out
}

fn config(
    workload: Workload,
    seed: u64,
    cpu: bool,
    supervisor: bool,
) -> Result<PlatformConfig, String> {
    base_builder(workload, cpu, supervisor)
        .seed(seed)
        .build()
        .map_err(|e| e.to_string())
}

/// Runs every layer probe of `workload` and returns its metrics.
/// `outcomes` (one batch's scenario outcomes) feed the journal probe, and
/// `specs` its campaign digest.
///
/// # Errors
///
/// A configuration rejected by validation, a checkpoint that does not
/// restore, or a journal that cannot be written under `scratch`.
pub fn run(
    workload: Workload,
    seed: u64,
    specs: &[ScenarioSpec],
    outcomes: &[ScenarioOutcome],
    scratch: &Path,
    rec: &mut TraceRecorder,
) -> Result<Layer, String> {
    let mut m: Layer = Vec::new();
    let seed = derive_seed(seed, 0x7000);
    let cpu = runs_cpu(workload);
    let own = config(workload, seed, cpu, true)?;

    let new_ms = span(rec, "probe:Platform::new", || {
        (0..REPEATS)
            .map(|_| time(|| black_box(Platform::new(own.clone()))).1 * 1.0e3)
            .collect::<Vec<_>>()
    });
    m.push(("platform.new_ms".into(), median(&new_ms)));

    // Tick cost with the 8051 and the supervisor switched on and off,
    // interleaved block by block so host drift hits all variants alike.
    let variants = [(false, true), (true, true), (false, false)];
    let mut platforms = Vec::new();
    for &(c, s) in &variants {
        let mut p = Platform::new(config(workload, seed, c, s)?);
        p.run(WARM_S);
        platforms.push(p);
    }
    let cpu_before = platforms[1].telemetry_snapshot();
    let mut ns = vec![Vec::new(); variants.len()];
    span(rec, "probe:Platform::step_block", || {
        for _ in 0..REPEATS {
            for (p, out) in platforms.iter_mut().zip(&mut ns) {
                let ((), s) = time(|| p.step_block(BLOCK_TICKS));
                out.push(s * 1.0e9 / BLOCK_TICKS as f64);
            }
        }
    });
    let cpu_after = platforms[1].telemetry_snapshot();
    let [off, on, bare] = [median(&ns[0]), median(&ns[1]), median(&ns[2])];
    m.push(("platform.tick_ns".into(), off));
    m.push(("platform.tick_ns_cpu".into(), on));
    let delta = |name: &str| {
        cpu_after
            .counter(name)
            .saturating_sub(cpu_before.counter(name)) as f64
    };
    let ticks = delta("sim.ticks").max(1.0);
    let (hits, misses) = (
        delta("cpu.xlate_block_hits"),
        delta("cpu.xlate_block_misses"),
    );
    m.push(("mcu8051.tick_gap_ns".into(), on - off));
    m.push((
        "mcu8051.instructions_per_tick".into(),
        delta("cpu.instructions") / ticks,
    ));
    m.push((
        "mcu8051.xlate_hit_ratio".into(),
        hits / (hits + misses).max(1.0),
    ));
    m.push(("supervisor.tick_gap_ns".into(), off - bare));

    // Checkpoint save and restore of the workload's own platform: the
    // supervised variant with the 8051 as the workload runs it.
    let target = &platforms[if cpu { 1 } else { 0 }];
    let bytes = checkpoint::save(target);
    let save_us = span(rec, "probe:checkpoint::save", || {
        (0..REPEATS)
            .map(|_| time(|| black_box(checkpoint::save(target))).1 * 1.0e6)
            .collect::<Vec<_>>()
    });
    let restore_config = target.config().clone();
    let mut restore_us = Vec::new();
    span(
        rec,
        "probe:checkpoint::restore",
        || -> Result<(), String> {
            for _ in 0..REPEATS {
                let (p, s) = time(|| checkpoint::restore(restore_config.clone(), &bytes));
                black_box(p.map_err(|e| e.to_string())?);
                restore_us.push(s * 1.0e6);
            }
            Ok(())
        },
    )?;
    m.push(("checkpoint.save_us".into(), median(&save_us)));
    m.push(("checkpoint.restore_us".into(), median(&restore_us)));
    m.push(("checkpoint.bytes".into(), bytes.len() as f64));
    drop(platforms);

    // Journal appends of this batch's own outcomes.
    let (append_us, record_bytes) = span(rec, "probe:JournalWriter::append", || {
        journal_probe(specs, outcomes, scratch)
    })?;
    m.push(("journal.append_us".into(), append_us));
    m.push(("journal.bytes".into(), record_bytes));

    // Welch PSD of a seeded capture.
    let xs: Vec<f64> = (0..WELCH_SAMPLES as u64)
        .map(|i| (derive_seed(seed, i) >> 11) as f64 / (1u64 << 53) as f64 - 0.5)
        .collect();
    let welch_ms = span(rec, "probe:welch_psd", || {
        (0..REPEATS)
            .map(|_| {
                time(|| black_box(welch_psd(&xs, 10_000.0, WELCH_SEGMENT, Window::Hann))).1 * 1.0e3
            })
            .collect::<Vec<_>>()
    });
    m.push(("dsp.welch_ms".into(), median(&welch_ms)));

    // Raw-sample cost of each channel.
    for device in DEVICES {
        let step_ns = span(
            rec,
            &format!("probe:SensorChannel::step:{}", device.name()),
            || channel_step_ns(device, seed),
        );
        m.push((format!("frontend.step_ns.{}", device.name()), step_ns));
    }
    Ok(m)
}

fn journal_probe(
    specs: &[ScenarioSpec],
    outcomes: &[ScenarioOutcome],
    scratch: &Path,
) -> Result<(f64, f64), String> {
    if outcomes.is_empty() {
        return Err("journal probe needs at least one outcome".into());
    }
    std::fs::create_dir_all(scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let path = scratch.join("probe.journal");
    let err = |e: journal::JournalError| format!("{}: {e}", path.display());
    let writer = JournalWriter::create(&path, journal::campaign_digest(specs)).map_err(err)?;
    let n = outcomes.len().max(REPEATS);
    let mut us = Vec::with_capacity(n);
    for o in outcomes.iter().cycle().take(n) {
        let (appended, s) = time(|| writer.append(o));
        appended.map_err(err)?;
        us.push(s * 1.0e6);
    }
    drop(writer);
    let len = std::fs::metadata(&path).map_err(|e| e.to_string())?.len() as usize;
    std::fs::remove_file(&path).map_err(|e| e.to_string())?;
    Ok((median(&us), (len - journal::HEADER_LEN) as f64 / n as f64))
}

fn channel_step_ns(device: Device, seed: u64) -> f64 {
    let mut ch = device.channel(seed);
    ch.settle(0.01);
    let ns: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let ((), s) = time(|| {
                for _ in 0..CHANNEL_BLOCK {
                    black_box(ch.step());
                }
            });
            s * 1.0e9 / CHANNEL_BLOCK as f64
        })
        .collect();
    median(&ns)
}

/// Host nanoseconds per tick of one scalar platform of the `montecarlo`
/// configuration, CPU off, after the run-in: the base of
/// `fleet.speedup`. Taken right after a population, so that both see the
/// same host speed.
///
/// # Errors
///
/// A configuration rejected by validation.
pub fn scalar_tick_ns(seed: u64, rec: &mut TraceRecorder) -> Result<f64, String> {
    let mut p = Platform::new(config(Workload::MonteCarlo, seed, false, true)?);
    p.run(WARM_S);
    let ns: Vec<f64> = span(rec, "probe:scalar_tick", || {
        (0..5)
            .map(|_| time(|| p.step_block(BLOCK_TICKS)).1 * 1.0e9 / BLOCK_TICKS as f64)
            .collect()
    });
    Ok(median(&ns))
}
