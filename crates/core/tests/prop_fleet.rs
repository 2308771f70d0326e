//! Property-based test of batched fleet state: fleet-evolved platform
//! state must round-trip through the scalar checkpoint machinery
//! bit-exactly. That fleet batching leaves every campaign artifact
//! unchanged is the population axis of the equivalence oracle
//! (`tests/equivalence.rs`).
//!
//! Gated behind the `proptest` feature:
//! `cargo test -p ascp-core --features proptest`.

use ascp_core::checkpoint;
use ascp_core::platform::{Platform, PlatformConfig, PlatformFleet};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

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
