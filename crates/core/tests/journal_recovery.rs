//! Journal recovery edge cases: a campaign journal torn by a crash (or
//! corrupted, or written by a different campaign) must either resume to a
//! byte-identical merged report or fail with a typed error — never
//! silently produce a different campaign.

use ascp_core::campaign::{
    CampaignOptions, CampaignOptionsBuilder, CampaignRunner, ScenarioSpec, Step,
};

/// Runner with `threads` workers and otherwise default options.
fn runner(threads: usize) -> CampaignRunner {
    configured(CampaignOptions::builder().threads(threads))
}

/// Runner from a fully-specified options builder.
fn configured(options: CampaignOptionsBuilder) -> CampaignRunner {
    CampaignRunner::with_options(options.build().expect("valid options"))
}

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

/// The per-record frame boundaries of a journal body, so tests can cut
/// *inside* a record deliberately.
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

/// A journal truncated mid-record (any cut point at or past the header)
/// resumes to a merged report byte-identical to the uninterrupted run —
/// at 1, 2, and 4 worker threads.
#[test]
fn truncated_mid_record_journal_resumes_byte_identically() {
    let path = scratch("truncated.journal");
    let baseline = runner(2)
        .run_with_journal(scenario_list(), &path)
        .expect("journaled run");
    let full = std::fs::read(&path).expect("journal bytes");
    let bounds = record_boundaries(&full);
    assert!(bounds.len() > 2, "campaign wrote multiple records");

    // Cut points: exactly at the header (empty journal), one byte into a
    // record's length prefix, mid-payload, and one byte short of a
    // complete record.
    let mid_payload = bounds[1] + (bounds[2] - bounds[1]) / 2;
    let cuts = [
        bounds[0],
        bounds[0] + 1,
        mid_payload,
        bounds[2] - 1,
        bounds[2],
    ];
    for cut in cuts {
        for threads in [1, 2, 4] {
            std::fs::write(&path, &full[..cut]).expect("write truncated journal");
            let resumed = runner(threads)
                .resume(scenario_list(), &path)
                .expect("resume survives a torn tail");
            assert_eq!(
                baseline.to_csv(),
                resumed.to_csv(),
                "cut at byte {cut}, {threads} threads"
            );
            assert_eq!(baseline.outcomes, resumed.outcomes, "cut at byte {cut}");
            // Only complete records load; the torn tail re-runs.
            assert!(resumed.resumed < bounds.len(), "cut at byte {cut}");
        }
    }
    std::fs::remove_file(&path).ok();
}

/// A journal written by a *different* campaign is rejected with the typed
/// digest mismatch, not silently merged.
#[test]
fn config_digest_mismatch_is_a_typed_error() {
    let path = scratch("mismatch.journal");
    runner(2)
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
/// panic: every payload byte flipped under three XOR masks, the head of
/// one record spliced onto the tail of the next, and a duplicated record.
/// Each record's FNV-1a checksum is recomputed after the mutation, so the
/// bytes reach the record decoder instead of stopping at the checksum.
#[test]
fn mutated_records_decode_or_fail_typed() {
    let path = scratch("mutated.journal");
    let report = runner(2)
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
            let mut records = payloads.clone();
            records[r].truncate(at);
            records[r].extend_from_slice(&next[at.min(next.len())..]);
            mutants.push(frame(&records));
        }
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
    let report = runner(1)
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

/// The crash-recovery contract end to end (in-process stand-in for the
/// `SIGKILL` test in `scripts/check.sh`): a journal holding an arbitrary
/// subset of completed scenarios resumes to a merged report
/// byte-identical to the uninterrupted run, at 1, 2, and 4 threads.
#[test]
fn partial_journal_resumes_to_byte_identical_merged_report() {
    let baseline = runner(2).run(scenario_list());
    let digest = journal::campaign_digest(&scenario_list());
    let channel = &baseline.outcomes[6];
    assert_eq!(channel.metric("detected"), Some(1.0));
    assert_eq!(
        channel.transitions,
        [
            ("init", "normal"),
            ("normal", "not_connected"),
            ("not_connected", "normal")
        ]
    );

    let all = (0..scenario_list().len()).collect::<Vec<_>>();
    for (case, subset) in [vec![0usize, 2, 5, 6], vec![3], all]
        .into_iter()
        .enumerate()
    {
        let path = scratch(&format!("partial_{case}.journal"));
        for threads in [1, 2, 4] {
            // Rebuild the journal each iteration: `resume` itself journals
            // the scenarios it re-runs, so the file grows after each pass.
            let writer = JournalWriter::create(&path, digest).expect("create journal");
            for &i in &subset {
                writer.append(&baseline.outcomes[i]).expect("append");
            }
            drop(writer);
            let resumed = runner(threads)
                .resume(scenario_list(), &path)
                .expect("resume");
            assert_eq!(resumed.resumed, subset.len(), "case {case}");
            assert_eq!(
                baseline.to_csv(),
                resumed.to_csv(),
                "case {case} at {threads} threads"
            );
            assert_eq!(baseline.outcomes, resumed.outcomes, "case {case}");
        }
        std::fs::remove_file(&path).ok();
    }
}

/// Resuming with a journal path that does not exist yet simply starts a
/// fresh journaled run (so one command line works before and after a
/// crash).
#[test]
fn resume_without_a_journal_starts_fresh() {
    let path = scratch("fresh.journal");
    std::fs::remove_file(&path).ok();
    let report = runner(2)
        .resume(scenario_list(), &path)
        .expect("fresh start");
    let n = scenario_list().len();
    assert_eq!(report.resumed, 0);
    assert_eq!(report.outcomes.len(), n);
    assert!(path.exists(), "the fresh run must have journaled");
    // And the journal it wrote immediately resumes to the same report.
    let again = CampaignRunner::new()
        .resume(scenario_list(), &path)
        .expect("resume complete journal");
    assert_eq!(again.resumed, n);
    assert_eq!(report.to_csv(), again.to_csv());
    std::fs::remove_file(&path).ok();
}
