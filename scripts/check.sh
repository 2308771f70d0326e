#!/usr/bin/env sh
# Repository gate: formatting, lints, build, tests, campaign smokes, API
# docs and perf smoke. CI runs exactly this script, so a local run is the CI
# gate. Everything runs offline (no registry access — the only external
# crate, proptest, is vendored as a shim under vendor/ behind an
# off-by-default feature).
#
# Usage: scripts/check.sh
set -eu

cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release =="
cargo build --release --workspace

echo "== byte pins on optimized code (release) =="
# The test step below runs the tick pins and the equivalence oracle in
# the debug build only, while inlining and other optimizer-only changes
# reach nothing but release code, whose byte checks further down (the
# smoke CSV, DATASHEET.md) see neither capture JSON nor checkpoint trails.
cargo test --release -q -p ascp-core --test scalar_tick_pin --test cpu_slice_pin --test equivalence

echo "== cargo test (with the property-test suites) =="
cargo test -q --workspace --features proptest

echo "== fault campaign (smoke: detection + coverage + values vs committed baselines) =="
# Emits the Chrome trace, flight-recorder captures and the coverage matrix
# under target/experiments/; fails if any fault class goes undetected OR
# if a (fault class x supervisor transition) cell exercised by the
# committed COVERAGE_fault_campaign.csv baseline goes dark. The coverage
# gate cannot see a number change, so the CSV (detection latencies,
# baseline rates, CPU-on scenarios included) must also match the
# committed SMOKE_fault_campaign.csv byte for byte; on a mismatch the
# regenerated file stays at target/experiments/fault_campaign.csv.
cargo run --release -q -p ascp-bench --bin fault_campaign -- --smoke --threads 4 \
    --check-coverage COVERAGE_fault_campaign.csv
cmp target/experiments/fault_campaign.csv SMOKE_fault_campaign.csv \
    || { echo "fault_campaign --smoke CSV differs from SMOKE_fault_campaign.csv" >&2; exit 1; }

echo "== sensor datasheet (smoke: four sensor families + wire-fault coverage) =="
# One campaign sweeps the gyro, the MAP and IAT pressure/temperature
# dividers and the capacitive accelerometer through the shared
# conditioning portfolio; fails if a sensor family fails to characterize,
# a scheduled wire fault (not_connected / short_to_ground /
# reverse_polarity) goes undetected, or a cell of the committed
# COVERAGE_sensor_datasheet.csv baseline goes dark.
cargo run --release -q -p ascp-bench --bin sensor_datasheet -- --smoke --threads 4 \
    --check-coverage COVERAGE_sensor_datasheet.csv

echo "== datasheet regeneration (a full run must reproduce DATASHEET.md) =="
# The coverage gate above cannot see a number change. A full run rewrites
# DATASHEET.md at the repo root; it must match the committed copy byte for
# byte. On a mismatch the regenerated file stays in the working tree.
cp DATASHEET.md target/experiments/DATASHEET.committed.md
cargo run --release -q -p ascp-bench --bin sensor_datasheet -- --threads 4 >/dev/null
cmp DATASHEET.md target/experiments/DATASHEET.committed.md \
    || { echo "a full sensor_datasheet run changed DATASHEET.md (git diff DATASHEET.md)" >&2; exit 1; }

echo "== chaos campaign (seeded worker panics + stalls; retry must make it invisible) =="
# The supervision layer's chaos mode injects worker panics and stalls;
# every scenario must recover on its deterministic retry, so the CSV is
# byte-identical to the committed smoke CSV.
cargo run --release -q -p ascp-bench --bin fault_campaign -- --chaos --smoke --threads 4
cmp target/experiments/fault_campaign.csv SMOKE_fault_campaign.csv \
    || { echo "chaos campaign CSV differs from SMOKE_fault_campaign.csv" >&2; exit 1; }

echo "== exit-code taxonomy (0 ok, 1 scenario failures, 2 infra errors) =="
# An unwritable journal path is an infrastructure error: exit 2, no sweep.
set +e
target/release/fault_campaign --smoke --journal /nonexistent/dir/fc.journal >/dev/null 2>&1
infra_code=$?
set -e
[ "$infra_code" -eq 2 ] \
    || { echo "expected exit 2 for journal infra error, got $infra_code" >&2; exit 1; }
# sensor_datasheet keeps no journal: the flag is a usage error (exit 2),
# not silently ignored.
set +e
target/release/sensor_datasheet --smoke --journal /nonexistent/dir/sd.journal >/dev/null 2>&1
usage_code=$?
set -e
[ "$usage_code" -eq 2 ] \
    || { echo "expected exit 2 for a flag sensor_datasheet does not read, got $usage_code" >&2; exit 1; }

echo "== kill -9 + resume (crash-recoverable journal) =="
# SIGKILL the campaign mid-run, then re-run the same command line: the
# journal resumes the completed scenarios and the merged CSV must be
# byte-identical to the committed smoke CSV. The binary is exec'd directly so
# the kill hits the campaign process, not a cargo wrapper. The kill lands
# as soon as the journal outgrows its 20-byte header (first scenario
# recorded), and the resume must report 1..10 of the 11 smoke scenarios:
# a kill that missed the run, or found nothing journaled, fails the step.
JOURNAL=target/experiments/kill_resume.journal
rm -f "$JOURNAL"
target/release/fault_campaign --smoke --threads 4 --journal "$JOURNAL" >/dev/null 2>&1 &
campaign_pid=$!
polls=0
while [ ! -f "$JOURNAL" ] || [ "$(wc -c <"$JOURNAL")" -le 20 ]; do
    polls=$((polls + 1))
    [ "$polls" -le 3000 ] || break # 30 s: the count check below reports it
    sleep 0.01
done
kill -9 "$campaign_pid" 2>/dev/null || true
wait "$campaign_pid" 2>/dev/null || true
resume_log=target/experiments/kill_resume.log
target/release/fault_campaign --smoke --threads 4 --journal "$JOURNAL" >"$resume_log"
cat "$resume_log"
resumed=$(sed -n 's/.*journal: resumed \([0-9]*\) completed scenario.*/\1/p' "$resume_log")
[ -n "$resumed" ] && [ "$resumed" -ge 1 ] && [ "$resumed" -le 10 ] \
    || { echo "kill did not land mid-run (resumed: ${resumed:-none}; want 1..10)" >&2; exit 1; }
cmp target/experiments/fault_campaign.csv SMOKE_fault_campaign.csv \
    || { echo "resumed campaign CSV differs from SMOKE_fault_campaign.csv" >&2; exit 1; }
rm -f "$JOURNAL" "$resume_log"

echo "== kernel benches (short mode: build + run smoke) =="
# --short shrinks the measurement protocol ~10x.
cargo bench -p ascp-bench --bench dsp_blocks -- --short
cargo bench -p ascp-bench --bench campaign_warmstart -- --short
cargo bench -p ascp-bench --bench campaign_supervised -- --short
cargo bench -p ascp-bench --bench campaign_montecarlo -- --short

echo "== cargo doc (rustdoc warnings are errors) =="
# Catches intra-doc links to items that no longer exist.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== perfbench tests (separate package linking the campaign API) =="
# perfbench/ has its own empty [workspace], so the workspace steps above
# never build it; its tests catch API changes that break the benchmark.
# Its smoke test also asserts a host-sensitive speed ratio
# (fleet.speedup > 1.0), so it runs after every byte check above: under
# `set -e` a slow-host failure here must not skip them.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== kernel perf guard (platform_sim, short mode, vs committed baseline) =="
# --check compares the committed baseline and fails only on a >50% min-ns
# regression (the guard is deliberately noise-tolerant — see
# ascp_bench::harness). platform_sim covers the 8051 ISS entry
# (mcu8051/instruction_step_uncached) so an ISS perf regression fails this
# gate. It runs last: the baseline was recorded on a faster host, so on a
# slow or shared one the guard can fail on untouched kernels, and under
# `set -e` that must not skip the steps above.
cargo bench -p ascp-bench --bench platform_sim -- --short --check BENCH_platform_sim.json

echo "All checks passed."
