//! Deterministic platform checkpointing.
//!
//! A checkpoint captures every value of a [`Platform`] that a tick, a
//! register write or a fault edge can change — MEMS resonator motion, AFE
//! converter and reference registers, every DSP IP's delay lines and
//! integrators, the 8051 core with its SFR/XRAM and peripherals, the JTAG
//! chain, the safety-supervisor FSM, the fault-plan cursor and all
//! noise-generator RNG streams — in a compact, self-describing binary
//! format. Values the configuration fixes are not written, and values
//! derived from the configuration and other saved fields (an ADC's DNL
//! table, the resonators' tuning) are rebuilt on load. Restoring a
//! checkpoint onto a platform
//! built from the same [`PlatformConfig`] is **bit-exact**: stepping the
//! restored platform produces byte-identical traces to stepping the
//! original.
//!
//! # File format
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------
//!      0     8  magic  b"ASCPCKPT"
//!      8     4  format version (little-endian u32, currently 2)
//!     12     8  config digest (FNV-1a 64 over canonical config)
//!     20     …  platform state: tagged, length-prefixed sections
//! ```
//!
//! The payload is a tree of 4-byte-tagged, length-prefixed sections
//! (see [`ascp_sim::snapshot`]); unknown lengths are bounded before any
//! allocation, so corrupt or truncated files fail with a typed
//! [`CheckpointError`] — never a panic or an abort. `DESIGN.md` §11
//! documents the section table and the versioning rules.
//!
//! # What a checkpoint does *not* contain
//!
//! - the [`PlatformConfig`] itself: a restore target is built from a
//!   caller-supplied config, and the stored digest rejects a mismatched
//!   one with [`CheckpointError::ConfigMismatch`];
//! - telemetry (metrics, events) and the supervisor transition list
//!   ([`Platform::transitions`]): observability output, deliberately
//!   excluded so that restoring never double-counts history.
//!
//! # Example
//!
//! ```
//! use ascp_core::checkpoint;
//! use ascp_core::platform::{Platform, PlatformConfig};
//!
//! let config = PlatformConfig::builder().quiet().seed(7).build().unwrap();
//! let mut original = Platform::new(config.clone());
//! original.step_block(500);
//!
//! let bytes = checkpoint::save(&original);
//! let mut resumed = checkpoint::restore(config, &bytes).unwrap();
//!
//! // Bit-exact: both halves now evolve identically.
//! original.step_block(100);
//! resumed.step_block(100);
//! assert_eq!(checkpoint::save(&original), checkpoint::save(&resumed));
//! ```

use crate::platform::{Platform, PlatformConfig};
use ascp_sim::snapshot::{fnv1a64, SnapshotError, StateReader, StateWriter};
use std::fmt;
use std::fmt::Write as _;
use std::path::Path;

/// File magic: the first eight bytes of every checkpoint.
pub const MAGIC: [u8; 8] = *b"ASCPCKPT";

/// Current checkpoint format version. Bumped whenever any component's
/// section layout changes; old files are rejected with
/// [`CheckpointError::UnsupportedVersion`] rather than misinterpreted.
pub const FORMAT_VERSION: u32 = 2;

/// Header length in bytes (magic + version + config digest).
pub const HEADER_LEN: usize = 8 + 4 + 8;

/// Failure classes for checkpoint encode/decode and file I/O.
///
/// Every malformed input maps to a typed error — decoding never panics,
/// whatever the bytes.
#[derive(Debug)]
pub enum CheckpointError {
    /// The first eight bytes are not [`MAGIC`] (or the input is shorter
    /// than a header).
    BadMagic,
    /// The file was written by a different format version.
    UnsupportedVersion {
        /// Version found in the file header.
        found: u32,
        /// The only version this build can read.
        supported: u32,
    },
    /// The checkpoint was taken under a different [`PlatformConfig`] than
    /// the restore target was built from.
    ConfigMismatch {
        /// Digest of the restore target's configuration.
        expected: u64,
        /// Digest stored in the checkpoint header.
        found: u64,
    },
    /// The payload failed structural validation (truncated section, bad
    /// tag, out-of-range value, trailing garbage, …).
    Snapshot(SnapshotError),
    /// Reading or writing the checkpoint file failed.
    Io(std::io::Error),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            Self::UnsupportedVersion { found, supported } => write!(
                f,
                "checkpoint format version {found} not supported (this build reads {supported})"
            ),
            Self::ConfigMismatch { expected, found } => write!(
                f,
                "checkpoint config digest {found:#018x} does not match platform config {expected:#018x}"
            ),
            Self::Snapshot(e) => write!(f, "checkpoint payload: {e}"),
            Self::Io(e) => write!(f, "checkpoint i/o: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Snapshot(e) => Some(e),
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SnapshotError> for CheckpointError {
    fn from(e: SnapshotError) -> Self {
        Self::Snapshot(e)
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// FNV-1a 64 digest of the canonical configuration encoding.
///
/// Two configs digest equal iff every simulation-relevant field is equal:
/// sensor parameters, converter settings, chain mode, firmware image,
/// master seed, fault-plan **specs** and supervisor settings. Two parts
/// are deliberately excluded:
///
/// - the fault-plan *cursor* (which faults are currently active): runtime
///   state, saved in the payload, which would otherwise make a platform's
///   own digest drift as it runs;
/// - [`TelemetryConfig`](ascp_sim::telemetry::TelemetryConfig):
///   observability settings never influence simulation arithmetic, so a
///   checkpoint may be restored under different telemetry settings.
#[must_use]
pub fn config_digest(config: &PlatformConfig) -> u64 {
    let mut canon = String::new();
    let _ = write!(
        canon,
        "{:?}|{:?}|{}|{:?}|{:?}|{:?}|{:?}|{}|{}|{}|{:?}|{:?}|{}|{:?}|{}|{:?}|",
        config.gyro,
        config.dsp_rate,
        config.analog_oversample,
        config.adc,
        config.drive_dac,
        config.rebalance_dac,
        config.rate_dac,
        config.charge_gain,
        config.secondary_pga_code,
        config.aaf_corner,
        config.mode,
        config.variant,
        config.cpu_enabled,
        config.firmware,
        config.seed,
        config.supervisor,
    );
    for spec in config.faults.specs() {
        let _ = write!(canon, "{spec:?};");
    }
    fnv1a64(canon.as_bytes())
}

/// Serializes a platform into checkpoint bytes (header + state payload).
#[must_use]
pub fn save(platform: &Platform) -> Vec<u8> {
    let mut w = StateWriter::new();
    platform.save_state(&mut w);
    let payload = w.into_bytes();
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&config_digest(platform.config()).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Validates the header and returns `(stored config digest, payload)`.
fn split(bytes: &[u8]) -> Result<(u64, &[u8]), CheckpointError> {
    if bytes.len() < HEADER_LEN || bytes[..8] != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(CheckpointError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let digest = u64::from_le_bytes(bytes[12..HEADER_LEN].try_into().expect("8 bytes"));
    Ok((digest, &bytes[HEADER_LEN..]))
}

/// Restores checkpoint bytes into an existing platform.
///
/// The platform must have been built from the same configuration the
/// checkpoint was saved under (checked via the stored digest).
///
/// # Errors
///
/// Returns a [`CheckpointError`] on a bad header, a version or config
/// mismatch, or a malformed payload. On payload errors the platform may
/// be partially restored — discard it (prefer [`restore`], which only
/// ever hands back fully restored platforms).
pub fn restore_into(platform: &mut Platform, bytes: &[u8]) -> Result<(), CheckpointError> {
    let (found, payload) = split(bytes)?;
    let expected = config_digest(platform.config());
    if found != expected {
        return Err(CheckpointError::ConfigMismatch { expected, found });
    }
    let mut r = StateReader::new(payload);
    platform.load_state(&mut r)?;
    if !r.is_exhausted() {
        return Err(CheckpointError::Snapshot(SnapshotError::Corrupt {
            context: format!("{} trailing bytes after platform state", r.remaining()),
        }));
    }
    Ok(())
}

/// Builds a fresh platform from `config` and restores checkpoint bytes
/// into it.
///
/// # Errors
///
/// Returns a [`CheckpointError`] on a bad header, a version or config
/// mismatch, or a malformed payload. Failure never corrupts any live
/// platform — the partially restored one is dropped.
pub fn restore(config: PlatformConfig, bytes: &[u8]) -> Result<Platform, CheckpointError> {
    let mut platform = Platform::new(config);
    restore_into(&mut platform, bytes)?;
    Ok(platform)
}

/// Saves a platform checkpoint to a file.
///
/// # Errors
///
/// Returns [`CheckpointError::Io`] if the file cannot be written.
pub fn save_to_file(platform: &Platform, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    std::fs::write(path, save(platform))?;
    Ok(())
}

/// Reads a checkpoint file and restores it onto a fresh platform built
/// from `config`.
///
/// # Errors
///
/// Returns [`CheckpointError::Io`] if the file cannot be read, or any
/// decode error from [`restore`].
pub fn restore_from_file(
    config: PlatformConfig,
    path: impl AsRef<Path>,
) -> Result<Platform, CheckpointError> {
    let bytes = std::fs::read(path)?;
    restore(config, &bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascp_afe::regs::AfeReg;
    use ascp_mcu8051::cpu::ExternalBus;
    use ascp_mcu8051::periph::Bus16Device;
    use ascp_sim::fault::FaultKind;

    fn quiet_config(seed: u64) -> PlatformConfig {
        PlatformConfig::builder()
            .quiet()
            .seed(seed)
            .build()
            .expect("valid config")
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let config = quiet_config(42);
        let mut original = Platform::new(config.clone());
        original.step_block(800);
        let ckpt = save(&original);
        let mut resumed = restore(config, &ckpt).expect("restore");
        assert_eq!(save(&original), save(&resumed), "restore must be lossless");
        original.step_block(300);
        resumed.step_block(300);
        assert_eq!(
            save(&original),
            save(&resumed),
            "restored platform must evolve identically"
        );
    }

    #[test]
    fn digest_sensitive_to_seed_and_config() {
        let a = config_digest(&quiet_config(1));
        let b = config_digest(&quiet_config(2));
        assert_ne!(a, b, "seed must enter the digest");
        let c = PlatformConfig::builder()
            .quiet()
            .seed(1)
            .adc_bits(10)
            .build()
            .unwrap();
        assert_ne!(a, config_digest(&c), "adc bits must enter the digest");
        assert_eq!(a, config_digest(&quiet_config(1)), "digest is stable");
    }

    #[test]
    fn bad_magic_rejected() {
        let config = quiet_config(3);
        let platform = Platform::new(config.clone());
        let mut bytes = save(&platform);
        bytes[0] ^= 0xff;
        assert!(matches!(
            restore(config.clone(), &bytes),
            Err(CheckpointError::BadMagic)
        ));
        assert!(matches!(
            restore(config, b"short"),
            Err(CheckpointError::BadMagic)
        ));
    }

    #[test]
    fn unsupported_version_rejected() {
        let config = quiet_config(3);
        let platform = Platform::new(config.clone());
        let mut bytes = save(&platform);
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            restore(config, &bytes),
            Err(CheckpointError::UnsupportedVersion {
                found: 99,
                supported: FORMAT_VERSION
            })
        ));
    }

    #[test]
    fn config_mismatch_rejected() {
        let platform = Platform::new(quiet_config(3));
        let bytes = save(&platform);
        assert!(matches!(
            restore(quiet_config(4), &bytes),
            Err(CheckpointError::ConfigMismatch { .. })
        ));
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let config = quiet_config(5);
        let mut platform = Platform::new(config.clone());
        platform.step_block(64);
        let bytes = save(&platform);
        // Cutting the payload anywhere must yield BadMagic (header cut) or
        // a Snapshot error (payload cut) — never a panic.
        for len in (0..bytes.len()).step_by(97).chain([bytes.len() - 1]) {
            let err = restore(config.clone(), &bytes[..len])
                .err()
                .unwrap_or_else(|| panic!("truncation at {len} must fail"));
            match err {
                CheckpointError::BadMagic | CheckpointError::Snapshot(_) => {}
                other => panic!("truncation at {len}: unexpected {other}"),
            }
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let config = quiet_config(6);
        let platform = Platform::new(config.clone());
        let mut bytes = save(&platform);
        bytes.extend_from_slice(&[0xde, 0xad]);
        assert!(matches!(
            restore(config, &bytes),
            Err(CheckpointError::Snapshot(SnapshotError::Corrupt { .. }))
        ));
    }

    /// `(start, end)` of each top-level payload section: a 4-byte tag, a
    /// kind byte and a `u32` length, then the section's own bytes.
    fn top_level_sections(bytes: &[u8]) -> Vec<(usize, usize)> {
        sections_in(bytes, HEADER_LEN, bytes.len())
    }

    /// `(start, end)` of each section laid end to end in `bytes[at..end]`.
    fn sections_in(bytes: &[u8], mut at: usize, end: usize) -> Vec<(usize, usize)> {
        let mut sections = Vec::new();
        while at < end {
            let len = u32::from_le_bytes(bytes[at + 5..at + 9].try_into().expect("4 bytes"));
            sections.push((at, at + 9 + len as usize));
            at += 9 + len as usize;
        }
        sections
    }

    /// Where the payload of the section reached by `path` (top-level tag
    /// first, then the tags of nested sections) starts.
    fn payload_at(bytes: &[u8], path: &[&[u8; 4]]) -> usize {
        let (mut from, mut to) = (HEADER_LEN, bytes.len());
        for tag in path {
            let (start, end) = sections_in(bytes, from, to)
                .into_iter()
                .find(|&(start, _)| &bytes[start..start + 4] == *tag)
                .expect("section present");
            (from, to) = (start + 9, end);
        }
        from
    }

    /// Mutated checkpoints restore or fail with a typed error, never a
    /// panic, with the CPU off and on: every payload byte XORed with one of
    /// four rotating masks, each top-level section's length field
    /// overwritten, and each section duplicated. A derived field whose
    /// input lacks a range check panics here.
    #[test]
    fn corrupt_interior_never_panics() {
        for cpu in [false, true] {
            let config = PlatformConfig::builder()
                .quiet()
                .cpu_enabled(cpu)
                .seed(7)
                .build()
                .expect("valid config");
            let mut platform = Platform::new(config.clone());
            platform.step_block(32);
            let bytes = save(&platform);
            let masks = [0x5a, 0x01, 0x80, 0xff];
            for (i, pos) in (HEADER_LEN..bytes.len()).enumerate() {
                let mut bad = bytes.clone();
                bad[pos] ^= masks[i % masks.len()];
                // Any outcome but a panic is acceptable; a flipped byte deep
                // in some f64 may still decode. Errors must be typed.
                let _ = restore(config.clone(), &bad);
            }
            let sections = top_level_sections(&bytes);
            assert!(
                sections.len() > 20,
                "cpu {cpu}: {} sections",
                sections.len()
            );
            for (start, end) in sections {
                let len = (end - start - 9) as u32;
                let mut cases: Vec<Vec<u8>> = [len + 1, u32::MAX]
                    .into_iter()
                    .map(|claimed| {
                        let mut bad = bytes.clone();
                        bad[start + 5..start + 9].copy_from_slice(&claimed.to_le_bytes());
                        bad
                    })
                    .collect();
                cases.push([&bytes[..end], &bytes[start..]].concat());
                for bad in cases {
                    assert!(
                        matches!(
                            restore(config.clone(), &bad),
                            Err(CheckpointError::Snapshot(_))
                        ),
                        "cpu {cpu}: section at byte {start}"
                    );
                }
            }
        }
    }

    /// Restored writable AFE registers pass the range checks of a
    /// register write, so an out-of-range gain, resolution or corner is a
    /// typed error instead of a panic in the analog model it configures.
    #[test]
    fn out_of_range_afe_registers_are_rejected() {
        let config = quiet_config(8);
        let bytes = save(&Platform::new(config.clone()));
        // Header and "afer" section header (9 bytes): the eight u16
        // registers start at byte 29.
        let corner_at = 29 + 2 * AfeReg::AafCorner.addr() as usize;
        assert_eq!(&bytes[corner_at..corner_at + 2], &300u16.to_le_bytes());
        let mut cases: Vec<Vec<u8>> = (29..=34)
            .map(|at| {
                let mut bad = bytes.clone();
                bad[at..at + 4].fill(0xff);
                bad
            })
            .collect();
        let mut zero_corner = bytes.clone();
        zero_corner[corner_at..corner_at + 2].fill(0);
        cases.push(zero_corner);
        for bad in cases {
            assert!(matches!(
                restore(config.clone(), &bad),
                Err(CheckpointError::Snapshot(SnapshotError::Corrupt { .. }))
            ));
        }
    }

    /// The kernel leaf holds only values a tick can leave: a monitor
    /// countdown in `1..=monitor_period`; a CPU cycle debt that is finite,
    /// below 1 and no lower than 1 minus the most cycles a step charges;
    /// DAC forces within what the DACs can write over the reference; and
    /// the fault gates' own values (drive 0 or 1, pickoff −1, 0 or 1). A
    /// debt of `+inf` or `1e300` would hang the next tick
    /// (`debt − spent == debt`), and `NaN` would stop the 8051 for good; a
    /// `NaN` or huge force or gate would read a rate the sensor never saw.
    #[test]
    fn out_of_range_kernel_state_is_rejected() {
        let config = PlatformConfig::builder()
            .quiet()
            .cpu_enabled(true)
            .seed(7)
            .build()
            .expect("valid config");
        let mut platform = Platform::new(config.clone());
        platform.run(0.02);
        let bytes = save(&platform);
        // "kern" is the last section: tick (u64), cycle debt (f64) and
        // monitor countdown (u64) follow its 9-byte header, then the drive
        // and rebalance forces; the drive and pickoff gates sit 108 and
        // 116 bytes in.
        let (start, _) = *top_level_sections(&bytes).last().expect("sections");
        assert_eq!(&bytes[start..start + 4], b"kern");
        let (debt_at, countdown_at) = (start + 17, start + 25);
        let (drive_at, rebalance_at) = (start + 33, start + 41);
        let (drive_gate_at, pickoff_gate_at) = (start + 108, start + 116);
        let f64_at = |at: usize| f64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        let debt = f64_at(debt_at);
        assert!(debt < 0.0, "unpatched debt {debt}");
        assert_eq!((f64_at(drive_gate_at), f64_at(pickoff_gate_at)), (1.0, 1.0));
        restore(config.clone(), &bytes).expect("the unpatched checkpoint restores");
        let period = config.dsp_rate.0 as u64 / 1000;
        let countdowns = [0, period + 1].map(|c| (countdown_at, c.to_le_bytes()));
        let debts = [f64::INFINITY, f64::NAN, 1e300, -100.0, -5.5].map(|d| (debt_at, d));
        let forces = [f64::NAN, f64::INFINITY, 1e300, -2.0]
            .map(|f| (drive_at, f))
            .into_iter()
            .chain([f64::NAN, 1e300].map(|f| (rebalance_at, f)));
        let gates = [1e300, f64::NAN, 0.5, -1.0]
            .map(|g| (drive_gate_at, g))
            .into_iter()
            .chain([f64::INFINITY, 1e300, f64::NAN, 2.0].map(|g| (pickoff_gate_at, g)));
        let floats = debts
            .into_iter()
            .chain(forces)
            .chain(gates)
            .map(|(at, v)| (at, v.to_le_bytes()));
        for (at, value) in countdowns.into_iter().chain(floats) {
            let mut bad = bytes.clone();
            bad[at..at + 8].copy_from_slice(&value);
            assert!(
                matches!(
                    restore(config.clone(), &bad),
                    Err(CheckpointError::Snapshot(SnapshotError::Corrupt { .. }))
                ),
                "{value:?} at byte {at}"
            );
        }
    }

    /// The fault edges' own gate values restore: a drive loss leaves a
    /// drive gate of 0 and a zero force, a reversed pickoff wire a pickoff
    /// gate of −1.
    #[test]
    fn checkpoints_with_fault_gates_applied_restore() {
        for (kind, gates) in [
            (FaultKind::MemsDriveLoss, (0.0, 1.0)),
            (FaultKind::WireReversePolarity, (1.0, -1.0)),
        ] {
            let config = PlatformConfig::builder()
                .quiet()
                .cpu_enabled(true)
                .seed(7)
                .fault_permanent(kind, 0.01)
                .build()
                .expect("valid config");
            let mut platform = Platform::new(config.clone());
            platform.run(0.02);
            let bytes = save(&platform);
            let at = payload_at(&bytes, &[b"kern"]);
            let f64_at = |at: usize| f64::from_le_bytes(bytes[at..at + 8].try_into().expect("8"));
            assert_eq!((f64_at(at + 99), f64_at(at + 107)), gates, "{kind:?}");
            let restored = restore(config, &bytes).expect("a fault's gates restore");
            assert_eq!(save(&restored), bytes, "{kind:?}");
        }
    }

    /// The 8051 and its watchdog restore only in states a run leaves: a
    /// watchdog reload of 0 or a counter outside `1..=reload` would reset
    /// the core every step or never, and a UART countdown longer than the
    /// 96-cycle byte time would silence it.
    #[test]
    fn out_of_range_8051_state_is_rejected() {
        let config = PlatformConfig::builder()
            .quiet()
            .cpu_enabled(true)
            .seed(7)
            .build()
            .expect("valid config");
        let mut platform = Platform::new(config.clone());
        platform.bus_mut().watchdog.write16(1, 20_000);
        platform.bus_mut().watchdog.write16(0, 1);
        platform.run(0.02);
        let bytes = save(&platform);
        restore(config.clone(), &bytes).expect("the unpatched checkpoint restores");

        // Watchdog: enabled (bool), reload (u16), counter (u32).
        let wdog = payload_at(&bytes, &[b"bus ", b"wdog"]);
        let reload = u16::from_le_bytes([bytes[wdog + 1], bytes[wdog + 2]]);
        assert_eq!(reload, 20_000);
        let mut cases: Vec<(usize, Vec<u8>)> = vec![
            (wdog + 1, 0u16.to_le_bytes().to_vec()),
            (wdog + 1, [0u16.to_le_bytes(), [0; 2]].concat()),
            (wdog + 3, 0u32.to_le_bytes().to_vec()),
            (wdog + 3, 20_001u32.to_le_bytes().to_vec()),
            (wdog + 3, u32::MAX.to_le_bytes().to_vec()),
        ];
        // CPU: PC, IRAM, SFRs, code and three counters lead to the
        // transmit countdown; the queues lead to the receive countdown.
        let cpu = payload_at(&bytes, &[b"cpu "]);
        let mut r = StateReader::new(&bytes[cpu..]);
        r.take_u16().expect("pc");
        for _ in 0..256 + 128 {
            r.take_u8().expect("IRAM, SFRs");
        }
        r.take_u8_vec().expect("code memory");
        for _ in 0..3 {
            r.take_u64().expect("counter");
        }
        let tx_at = bytes.len() - r.remaining();
        r.take_opt_u32().expect("transmit countdown");
        r.take_u8_vec().expect("transmit queue");
        r.take_u8_vec().expect("receive queue");
        let rx_at = bytes.len() - r.remaining();
        let in_flight = |c: u32| [&[1u8][..], &c.to_le_bytes()].concat();
        cases.extend([
            (tx_at, in_flight(u32::MAX)),
            (tx_at, in_flight(97)),
            (rx_at, in_flight(u32::MAX)),
        ]);
        for (at, value) in cases {
            let mut bad = bytes.clone();
            bad[at..at + value.len()].copy_from_slice(&value);
            assert!(
                matches!(
                    restore(config.clone(), &bad),
                    Err(CheckpointError::Snapshot(SnapshotError::Corrupt { .. }))
                ),
                "{value:?} at byte {at}"
            );
        }
        for (at, countdown) in [(tx_at, 96), (rx_at, 1)] {
            let mut edge = bytes.clone();
            edge[at..at + 5].copy_from_slice(&in_flight(countdown));
            restore(config.clone(), &edge).expect("a countdown within a byte time restores");
        }
    }

    /// A platform whose AGC was frozen after construction restores with
    /// the frozen gains, so it keeps holding its drive instead of
    /// regulating again (without them it read 0.1479 live against 0.1338
    /// restored, 0.2 s after the save); the leaf that carries them decodes
    /// with typed errors.
    #[test]
    fn frozen_agc_gains_survive_a_round_trip() {
        let config = PlatformConfig::builder().seed(7).build().expect("valid");
        let mut live = Platform::new(config.clone());
        live.wait_for_ready(2.0).expect("ready");
        let held = live.chain().drive();
        *live.chain_mut() = live.chain().frozen_drive();
        live.run(0.05);
        let bytes = save(&live);
        let mut restored = restore(config.clone(), &bytes).expect("restore");
        assert_eq!(save(&restored), bytes, "restore must be lossless");
        live.run(0.2);
        restored.run(0.2);
        assert_eq!(live.chain().drive(), held, "the frozen drive holds");
        assert_eq!(restored.chain().drive(), held);
        assert_eq!(save(&live), save(&restored));

        // kp, ki and the drive limit follow the leaf's 9-byte header.
        let at = bytes.windows(4).position(|w| w == b"agcg").expect("leaf") + 9;
        for (offset, value) in [(0, f64::NAN), (8, -1.0), (16, 0.0), (16, f64::INFINITY)] {
            let mut bad = bytes.clone();
            bad[at + offset..at + offset + 8].copy_from_slice(&value.to_le_bytes());
            assert!(
                matches!(
                    restore(config.clone(), &bad),
                    Err(CheckpointError::Snapshot(SnapshotError::Corrupt { .. }))
                ),
                "gain {value} at +{offset}"
            );
        }
    }

    /// A checkpoint saved between an `AdcBits` write and the 1 kHz service
    /// that applies it restores, and the restored platform rebuilds its
    /// converters at that service as the live one does: a load that applied
    /// the register would rebuild them a service early.
    #[test]
    fn adc_bits_written_before_the_service_restore() {
        let config = quiet_config(7);
        let period = config.dsp_rate.0 as u64 / 1000;
        let mut live = Platform::new(config.clone());
        live.step_block(4 * period);
        let afe = live.afe_regs();
        afe.borrow_mut()
            .write(AfeReg::AdcBits, 14)
            .expect("legal bits");
        live.step_block(3);
        let bytes = save(&live);
        let mut restored = restore(config, &bytes).expect("a pending AdcBits write restores");
        assert_eq!(save(&restored), bytes, "restore must be lossless");
        live.run(0.01);
        restored.run(0.01);
        let after = save(&live);
        let adcp = payload_at(&after, &[b"adcp"]);
        assert_eq!(
            &after[adcp..adcp + 4],
            &14u32.to_le_bytes(),
            "rebuilt at 14 bits"
        );
        assert_eq!(after, save(&restored));
    }

    /// An `AdcBits` round trip 12 → 14 → 12 rebuilds both converters, the
    /// secondary one from a seed `Platform::new` does not use, so its DNL
    /// table differs from a fresh 12-bit platform's. A restore rebuilds the
    /// same tables from the saved resolution and seed.
    #[test]
    fn adc_resolution_round_trip_restores_the_rebuilt_tables() {
        let config = quiet_config(7);
        let mut live = Platform::new(config.clone());
        for bits in [14, 12] {
            let afe = live.afe_regs();
            afe.borrow_mut()
                .write(AfeReg::AdcBits, bits)
                .expect("legal bits");
            live.run(0.005);
        }
        let bytes = save(&live);
        let adcs = payload_at(&bytes, &[b"adcs"]);
        let seed = u64::from_le_bytes(bytes[adcs + 4..adcs + 12].try_into().expect("8 bytes"));
        assert_eq!(seed, config.seed ^ 0x55 ^ 0x1, "the rebuilt secondary seed");
        let mut restored = restore(config, &bytes).expect("restore");
        assert_eq!(save(&restored), bytes, "restore must be lossless");
        for tick in 0..12_500 {
            live.step();
            restored.step();
            assert_eq!(
                live.rate_output().0.to_bits(),
                restored.rate_output().0.to_bits(),
                "rate output at tick {tick}"
            );
        }
        assert_eq!(save(&live), save(&restored));
    }

    /// The SRAM keeps words past its sample count: a capture restarted at
    /// word 0 leaves the older samples behind it, and MOVX reaches every
    /// word. A restore brings them all back and clears every other word,
    /// also onto a platform whose SRAM held data of its own.
    #[test]
    fn sram_words_past_the_sample_count_survive_a_restore() {
        let config = quiet_config(7);
        let mut live = Platform::new(config.clone());
        let bus = live.bus_mut();
        bus.sram.write16(0, 1);
        for k in 1..=10 {
            bus.sram.capture(100 * k);
        }
        bus.sram.write16(0, 3);
        bus.sram.capture(7);
        bus.sram.capture(8);
        bus.xdata_write(0xfff0, 0xab);
        assert_eq!(bus.sram.count(), 2);
        let bytes = save(&live);
        let mut other = Platform::new(config.clone());
        for addr in (0..0x100).chain(0xff00..=0xffff) {
            other.bus_mut().xdata_write(addr, 0x5a);
        }
        let mut restored_into = other;
        restore_into(&mut restored_into, &bytes).expect("restore into");
        for mut p in [restore(config, &bytes).expect("restore"), restored_into] {
            assert_eq!(save(&p), bytes, "restore must be lossless");
            let sram = &mut p.bus_mut().sram;
            sram.write16(2, 5);
            assert_eq!(sram.read16(3), 600, "READ_DATA at word 5");
            assert_eq!(sram.read_byte(0xfff0), 0xab);
            assert_eq!(sram.read_byte(0xfff2), 0, "a word nothing wrote reads zero");
            assert_eq!(sram.read_byte(0x20), 0);
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("ascp-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.ckpt");
        let config = quiet_config(9);
        let mut platform = Platform::new(config.clone());
        platform.step_block(128);
        save_to_file(&platform, &path).expect("save file");
        let mut resumed = restore_from_file(config, &path).expect("restore file");
        platform.step_block(64);
        resumed.step_block(64);
        assert_eq!(save(&platform), save(&resumed));
        let _ = std::fs::remove_file(&path);
        let missing = restore_from_file(quiet_config(9), dir.join("missing.ckpt"));
        assert!(matches!(missing, Err(CheckpointError::Io(_))));
    }
}
