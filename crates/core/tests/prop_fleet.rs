//! Property-based tests of batched fleet execution: for random
//! Monte-Carlo population sizes, dispersions, and worker-thread counts,
//! the fleet path must emit a campaign CSV byte-identical to scalar
//! execution (the population pre-expanded with `expand_monte_carlo`, one
//! platform per lane), and fleet-evolved platform state must round-trip
//! through the scalar checkpoint machinery bit-exactly.
//!
//! Gated behind the `proptest` feature:
//! `cargo test -p ascp-core --features proptest`.

use ascp_core::campaign::{
    expand_monte_carlo, CampaignOptions, CampaignRunner, Dispersion, ScenarioSpec, Step,
};
use ascp_core::checkpoint;
use ascp_core::platform::{Platform, PlatformConfig, PlatformFleet};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Random dispersion within physically plausible mismatch bounds.
fn dispersion_strategy() -> impl Strategy<Value = Dispersion> {
    (0.0..0.03f64, 0.0..0.08f64, 0.0..15.0f64, 0.0..0.05f64).prop_map(|(omega, q, offset, gain)| {
        Dispersion::none()
            .with_omega_frac(omega)
            .with_q_frac(q)
            .with_offset_dps(offset)
            .with_gain_frac(gain)
    })
}

/// A Monte-Carlo population over the fleet-safe step vocabulary.
fn mc_spec(lanes: usize, dispersion: Dispersion, seed: u64) -> ScenarioSpec {
    let config = PlatformConfig::builder()
        .quiet()
        .seed(seed)
        .build()
        .expect("valid config");
    ScenarioSpec::new("pop", config)
        .with_step(Step::Run { seconds: 0.01 })
        .with_step(Step::SetRate { dps: 45.0 })
        .with_step(Step::MeasureMeanRate {
            label: "mean_dps".into(),
            window_s: 0.004,
        })
        .monte_carlo(lanes, dispersion)
}

fn runner(threads: usize) -> CampaignRunner {
    CampaignRunner::with_options(
        CampaignOptions::builder()
            .threads(threads)
            .build()
            .expect("valid options"),
    )
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    /// Fleet batching is invisible in every campaign artifact: for any
    /// population size up to the fleet width and any thread count, the
    /// CSV and outcomes match scalar execution byte-for-byte.
    #[test]
    fn fleet_csv_is_byte_identical_to_scalar(
        lanes in 1usize..=16,
        threads_exp in 0u32..3,
        dispersion in dispersion_strategy(),
        seed in any::<u64>(),
    ) {
        let threads = 1usize << threads_exp; // 1, 2, or 4 workers
        let scalar = runner(1).run(expand_monte_carlo(vec![mc_spec(lanes, dispersion, seed)]));
        let fleet = runner(threads).run(vec![mc_spec(lanes, dispersion, seed)]);
        prop_assert_eq!(&scalar.outcomes, &fleet.outcomes);
        prop_assert_eq!(scalar.to_csv(), fleet.to_csv());
    }

    /// Fleet-evolved state is scalar state: after `k` lockstep ticks,
    /// every lane checkpoint-saves to exactly the bytes its scalar twin
    /// produces, and the restored fork stays bit-exact `n` ticks later —
    /// the warm-start/checkpoint machinery never notices a platform
    /// lived in a fleet.
    #[test]
    fn fleet_state_round_trips_through_scalar_checkpoints(
        lanes in 1usize..=8,
        k in 1u64..300,
        n in 1u64..200,
        seed in any::<u64>(),
    ) {
        let configs: Vec<PlatformConfig> = (0..lanes)
            .map(|lane| {
                PlatformConfig::builder()
                    .quiet()
                    .seed(seed.wrapping_add(lane as u64))
                    .build()
                    .expect("valid config")
            })
            .collect();
        let mut fleet = PlatformFleet::new(
            configs.iter().cloned().map(Platform::new).collect(),
        )
        .map_err(|e| TestCaseError::fail(format!("fleet build: {e}")))?;
        fleet.step_block(k);
        let members = fleet.into_platforms();
        for (lane, (p, config)) in members.into_iter().zip(configs).enumerate() {
            let mut scalar = Platform::new(config.clone());
            scalar.step_block(k);
            prop_assert_eq!(
                checkpoint::save(&p),
                checkpoint::save(&scalar),
                "lane {} diverged from its scalar twin after {} ticks",
                lane,
                k
            );
            let mut restored = checkpoint::restore(config, &checkpoint::save(&p))
                .map_err(|e| TestCaseError::fail(format!("restore lane {lane}: {e}")))?;
            let mut original = p;
            original.step_block(n);
            restored.step_block(n);
            prop_assert_eq!(
                checkpoint::save(&original),
                checkpoint::save(&restored),
                "restored lane {} fork diverged after {} more ticks",
                lane,
                n
            );
        }
    }
}
