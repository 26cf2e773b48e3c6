//! Property tests for the chaos plane's delivery discipline.
//!
//! The load-bearing invariant: **no fault mechanism may double-count a
//! report's feedback effects**. Wire duplication and bounded
//! retransmission both produce extra copies of an emission on the wire;
//! each emission must reach the trust models at most once — so a run
//! with duplication is *bit-identical* to
//! the same run without it, and a zero-fault plane is bit-identical to
//! no plane at all, across arbitrary small configurations.

use proptest::prelude::any;
use proptest::{prop_assert, prop_assert_eq, proptest, ProptestConfig};
use trustex_agents::profile::PopulationMix;
use trustex_market::prelude::*;
use trustex_netsim::fault::{FaultConfig, PartitionSpec};
use trustex_netsim::time::SimTime;

fn base(n_agents: usize, rounds: u64, sessions: usize, seed: u64, dishonest: f64) -> MarketConfig {
    MarketConfig {
        n_agents,
        rounds,
        sessions_per_round: sessions,
        workload: Workload::FileSharing,
        mix: PopulationMix::standard(dishonest, 0.25),
        seed,
        ..MarketConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Wire duplication (any probability, with loss, a partition and
    /// retransmission active at the same time) never changes the
    /// report: a delivered emission reaches its model once however many
    /// wire copies arrive, and deciding a duplicate consumes no RNG.
    #[test]
    fn duplication_never_duplicates_feedback_effects(
        n_agents in 3usize..30,
        rounds in 1u64..6,
        sessions in 1usize..40,
        seed in 0u64..1_000_000,
        dishonest in 0.0f64..0.9,
        duplicate in 0.01f64..1.0,
        loss in 0.0f64..0.3,
        retry in any::<bool>(),
    ) {
        let chaos = |duplicate: f64| ChaosConfig {
            fault: FaultConfig {
                loss,
                duplicate,
                extra_delay_max_us: 0,
                partition: PartitionSpec::Bisect {
                    heal_at: SimTime::from_micros(rounds / 2 * ROUND_SPAN.as_micros()),
                },
            },
            retry,
            degrade: retry,
        };
        let with_dups = MarketSim::new(MarketConfig {
            chaos: Some(chaos(duplicate)),
            ..base(n_agents, rounds, sessions, seed, dishonest)
        })
        .run();
        let without = MarketSim::new(MarketConfig {
            chaos: Some(chaos(0.0)),
            ..base(n_agents, rounds, sessions, seed, dishonest)
        })
        .run();
        prop_assert_eq!(with_dups, without);
    }

    /// A zero-fault plane is a perfect no-op for arbitrary small
    /// configurations and any defense combination: the chaos run's
    /// report equals the plane-absent run bit-for-bit.
    #[test]
    fn zero_fault_plane_equals_no_plane(
        n_agents in 3usize..30,
        rounds in 1u64..6,
        sessions in 1usize..40,
        seed in 0u64..1_000_000,
        dishonest in 0.0f64..0.9,
        retry in any::<bool>(),
        degrade in any::<bool>(),
    ) {
        let clean = MarketSim::new(base(n_agents, rounds, sessions, seed, dishonest)).run();
        let chaotic = MarketSim::new(MarketConfig {
            chaos: Some(ChaosConfig {
                fault: FaultConfig::default(),
                retry,
                degrade,
            }),
            ..base(n_agents, rounds, sessions, seed, dishonest)
        })
        .run();
        prop_assert_eq!(chaotic, clean);
    }

    /// Retransmissions never double-count: `witness_delivered` counts
    /// *unique logical emissions* accepted by a model (a retransmission
    /// is queued only after a loss, so each emission is delivered at
    /// most once), so under any mix
    /// of loss, duplication, partitions and aggressive retransmission
    /// the delivered count can never exceed the attempted count — a
    /// double-delivered retry or duplicate would push it past. (Runs
    /// with retry on and off are *not* compared: delivered reports feed
    /// back into trust state and legitimately change trade volume.)
    #[test]
    fn retries_and_duplicates_never_overcount_deliveries(
        n_agents in 3usize..30,
        rounds in 2u64..6,
        sessions in 1usize..40,
        seed in 0u64..1_000_000,
        loss in 0.0f64..0.5,
        retry in any::<bool>(),
    ) {
        let report = MarketSim::new(MarketConfig {
            chaos: Some(ChaosConfig {
                fault: FaultConfig {
                    loss,
                    duplicate: 0.1,
                    extra_delay_max_us: 0,
                    partition: PartitionSpec::Islands {
                        islands: 3,
                        heal_at: SimTime::from_micros(rounds / 2 * ROUND_SPAN.as_micros()),
                    },
                },
                retry,
                degrade: false,
            }),
            ..base(n_agents, rounds, sessions, seed, 0.3)
        })
        .run();
        prop_assert!(report.witness_delivered <= report.witness_attempted);
        let rate = report.witness_delivery_rate();
        prop_assert!((0.0..=1.0).contains(&rate));
    }
}
