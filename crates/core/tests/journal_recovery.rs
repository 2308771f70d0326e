//! Journal decoding edge cases: a corrupted journal, or one written by a
//! different campaign, fails with a typed error — never a panic and never
//! silently a different campaign. That a torn or partial journal resumes
//! to the uninterrupted report is the journal axis of the equivalence
//! oracle (`tests/equivalence.rs`).

use ascp_core::campaign::{CampaignRunner, ScenarioSpec, Step};
use ascp_core::frontend::{ChannelConfig, SensorChannel};
use ascp_core::journal::{self, JournalError, JournalWriter, HEADER_LEN};
use ascp_core::platform::PlatformConfig;
use ascp_mems::pressure::MapSensorFrontEnd;
use ascp_sim::fault::{FaultKind, FaultPlan};
use ascp_sim::snapshot::fnv1a64;
use std::path::PathBuf;

/// A small deterministic campaign: six cheap gyro scenarios, then a MAP
/// sensor channel through a not-connected wire fault (its channel-status
/// transitions round-trip through the journal's label catalog).
fn scenario_list() -> Vec<ScenarioSpec> {
    let mut specs: Vec<ScenarioSpec> = (0..6)
        .map(|i| {
            let config = PlatformConfig::builder().quiet().build().expect("valid");
            ScenarioSpec::new(format!("s{i}"), config)
                .with_duration(0.01)
                .with_step(Step::SetRate {
                    dps: f64::from(i) * 15.0 - 30.0,
                })
                .with_step(Step::MeasureMeanRate {
                    label: "rate".into(),
                    window_s: 0.005,
                })
        })
        .collect();
    let mut fault = FaultPlan::new();
    fault.one_shot(FaultKind::WireNotConnected, 0.02, 0.02);
    specs.push(
        ScenarioSpec::channel("map_nc", 11, |seed| {
            let mut cfg = ChannelConfig::new("map", seed);
            cfg.adc_vref = 5.0;
            SensorChannel::new(cfg, Box::new(MapSensorFrontEnd::automotive(seed)))
        })
        .with_faults(fault)
        .with_step(Step::FaultResponse {
            t_inject_s: 0.02,
            t_clear_s: 0.04,
            detect_budget_s: 0.02,
            recover_budget_s: 0.05,
            measure_recovery: true,
        }),
    );
    specs
}

/// A scratch path under the system temp dir, unique per test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ascp_journal_recovery");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir.join(name)
}

/// The per-record frame boundaries of a journal body.
fn record_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut bounds = vec![HEADER_LEN];
    let mut at = HEADER_LEN;
    while at + 4 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
        let end = at + 4 + len + 8;
        if end > bytes.len() {
            break;
        }
        at = end;
        bounds.push(at);
    }
    bounds
}

/// A journal written by a *different* campaign is rejected with the typed
/// digest mismatch, not silently merged.
#[test]
fn config_digest_mismatch_is_a_typed_error() {
    let path = scratch("mismatch.journal");
    CampaignRunner::new()
        .run_with_journal(scenario_list(), &path)
        .expect("journaled run");

    // Same shape, different scenario name -> different campaign digest.
    let mut other = scenario_list();
    other[0].name = "renamed".into();
    let err = CampaignRunner::new()
        .resume(other, &path)
        .expect_err("digest mismatch must refuse to merge");
    assert!(
        matches!(err, JournalError::CampaignMismatch { expected, found } if expected != found),
        "{err:?}"
    );
    std::fs::remove_file(&path).ok();
}

/// A non-journal file is rejected as `BadMagic`.
#[test]
fn non_journal_file_is_rejected() {
    let path = scratch("not_a_journal.bin");
    std::fs::write(&path, b"definitely not a journal header....").expect("write");
    let err = CampaignRunner::new()
        .resume(scenario_list(), &path)
        .expect_err("garbage must not parse");
    assert!(matches!(err, JournalError::BadMagic), "{err:?}");
    std::fs::remove_file(&path).ok();
}

/// Mutated record payloads decode to outcomes or a typed error, never a
/// panic: every payload byte flipped under three XOR masks, runs of 2, 4
/// and 8 bytes set to 0x00 and to 0xFF at every offset, the head of one
/// record spliced onto the tail of the next, a payload carrying its
/// `SCNO` section twice, and a duplicated record.
/// Each record's FNV-1a checksum is recomputed after the mutation, so the
/// bytes reach the record decoder instead of stopping at the checksum.
#[test]
fn mutated_records_decode_or_fail_typed() {
    let path = scratch("mutated.journal");
    let report = CampaignRunner::new()
        .run_with_journal(scenario_list(), &path)
        .expect("journaled run");
    let digest = journal::campaign_digest(&scenario_list());
    let full = std::fs::read(&path).expect("journal bytes");
    let payloads: Vec<Vec<u8>> = record_boundaries(&full)
        .windows(2)
        .map(|w| full[w[0] + 4..w[1] - 8].to_vec())
        .collect();
    assert_eq!(payloads.len(), report.outcomes.len());
    let frame = |records: &[Vec<u8>]| {
        let mut bytes = full[..HEADER_LEN].to_vec();
        for payload in records {
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(payload);
            bytes.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        }
        bytes
    };

    let mut mutants = Vec::new();
    for (r, payload) in payloads.iter().enumerate() {
        let next = &payloads[(r + 1) % payloads.len()];
        for at in 0..payload.len() {
            for mask in [0x01, 0x80, 0xff] {
                let mut records = payloads.clone();
                records[r][at] ^= mask;
                mutants.push(frame(&records));
            }
            for run in [2, 4, 8] {
                for fill in [0x00, 0xff] {
                    let mut records = payloads.clone();
                    let end = (at + run).min(payload.len());
                    records[r][at..end].fill(fill);
                    mutants.push(frame(&records));
                }
            }
            let mut records = payloads.clone();
            records[r].truncate(at);
            records[r].extend_from_slice(&next[at.min(next.len())..]);
            mutants.push(frame(&records));
        }
        let mut records = payloads.clone();
        records[r] = payload.repeat(2);
        mutants.push(frame(&records));
        let mut records = payloads.clone();
        records.insert(r, payload.clone());
        mutants.push(frame(&records));
    }

    let (mut decoded, mut rejected) = (0, 0);
    for (case, bytes) in mutants.iter().enumerate() {
        std::fs::write(&path, bytes).expect("write mutant");
        match std::panic::catch_unwind(|| journal::read(&path, digest)) {
            Ok(Ok(_)) => decoded += 1,
            Ok(Err(JournalError::Record(_))) => rejected += 1,
            Ok(Err(e)) => panic!("mutant {case}: the header is intact, got {e}"),
            Err(_) => panic!("mutant {case}: journal::read panicked"),
        }
    }
    // Both outcomes occur, so the mutations do reach the decoder.
    assert!(
        decoded > 0 && rejected > 0,
        "{decoded} decoded, {rejected} rejected"
    );
    std::fs::remove_file(&path).ok();
}

/// Duplicate records for the same scenario index resolve last-wins, and
/// `append_to` first truncates a torn tail so the duplicate lands on a
/// clean boundary.
#[test]
fn duplicate_scenario_records_resolve_last_wins() {
    let path = scratch("duplicates.journal");
    let report = CampaignRunner::new()
        .run_with_journal(scenario_list(), &path)
        .expect("journaled run");
    let digest = journal::campaign_digest(&scenario_list());

    // Tear the tail, then append a doctored duplicate of scenario 0.
    let full = std::fs::read(&path).expect("journal bytes");
    std::fs::write(&path, &full[..full.len() - 3]).expect("tear tail");
    let mut doctored = report.outcomes[0].clone();
    doctored.metrics.push(("doctored".into(), 42.0));
    let writer = JournalWriter::append_to(&path, digest).expect("append to torn journal");
    writer.append(&doctored).expect("append duplicate");

    let recorded = journal::read(&path, digest).expect("read back");
    // One entry per index (deduped), and index 0 carries the *last* write.
    let mut indices: Vec<usize> = recorded.iter().map(|o| o.index).collect();
    indices.sort_unstable();
    indices.dedup();
    assert_eq!(indices.len(), recorded.len(), "duplicates must be deduped");
    let zero = recorded
        .iter()
        .find(|o| o.index == 0)
        .expect("scenario 0 recorded");
    assert_eq!(zero.metric("doctored"), Some(42.0), "last write must win");
    std::fs::remove_file(&path).ok();
}
