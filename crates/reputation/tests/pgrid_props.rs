//! Property-test suite for the scaled P-Grid: routing and replication
//! invariants on randomly shaped grids (random population, depth, seed).
//!
//! The leaf-directory properties pin the tentpole refactor: the indexed
//! replica-group resolution must agree *exactly* with the naive
//! O(n) full-population scan it replaced — the old scan lives on here as
//! the test oracle.

use proptest::prelude::*;
use trustex_netsim::net::{NetConfig, Network};
use trustex_netsim::rng::SimRng;
use trustex_reputation::pgrid::{PGrid, PGridConfig};
use trustex_reputation::record::{key_for_peer, Complaint, Key};
use trustex_trust::model::PeerId;

fn build_grid(n: usize, depth: u8, seed: u64) -> (PGrid, SimRng) {
    let mut rng = SimRng::new(seed);
    let cfg = PGridConfig {
        max_depth: depth,
        ..PGridConfig::default()
    };
    let grid = PGrid::build(n, cfg, &mut rng);
    (grid, rng)
}

/// The pre-index O(n) full-population scan, pinned as the oracle the
/// leaf directory must reproduce bit-for-bit. Departed peers are not
/// responsible for anything.
fn naive_responsible(grid: &PGrid, key: Key) -> Vec<usize> {
    let w = grid.config().key_bits;
    (0..grid.len())
        .filter(|&i| grid.is_live(i) && grid.path(i).is_prefix_of_key(key, w))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (a) Routing either lands on a peer whose path prefixes the key
    /// within the hop limit, or returns `None` — never a wrong peer,
    /// never an unbounded walk.
    #[test]
    fn route_lands_on_prefix_peer_or_fails(
        n in 2usize..180,
        depth in 1u8..8,
        seed in 0u64..100_000,
        key_raw in any::<u32>(),
    ) {
        let (grid, mut rng) = build_grid(n, depth, seed);
        let mut net = Network::new(NetConfig::default());
        let key = Key::from_bits(key_raw & 0xFFFF);
        let origin = rng.index(grid.len());
        if let Some((peer, hops, _)) = grid.route(origin, key, None, &mut net, &mut rng) {
            prop_assert!(
                grid.path(peer).is_prefix_of_key(key, grid.config().key_bits),
                "landed on non-responsible peer {peer}"
            );
            prop_assert!(hops <= grid.hop_limit(), "{hops} hops broke the bound");
        }
    }

    /// (b) Insert-then-query round-trips: whenever the insert reached at
    /// least one replica, a query over the same live population finds
    /// the item on every replica that stored it, and the answering set
    /// is exactly the live replica group.
    #[test]
    fn insert_query_roundtrip_over_live_replica_group(
        n in 8usize..160,
        depth in 1u8..6,
        seed in 0u64..100_000,
        subject_raw in 0u32..50_000,
        down in 0.0f64..0.35,
    ) {
        let (mut grid, mut rng) = build_grid(n, depth, seed);
        let mut net = Network::new(NetConfig::default());
        let alive: Vec<bool> = (0..n).map(|_| !rng.chance(down)).collect();
        let subject = PeerId(subject_raw);
        let key = key_for_peer(subject, grid.config().key_bits);
        let item = Complaint { by: PeerId(1), about: subject, round: 2 };
        prop_assume!(alive.iter().any(|up| *up));
        let origin = (0..n).find(|&i| alive[i]).expect("someone is up");
        let receipt = grid.insert(origin, key, item, Some(&alive), &mut net, &mut rng);
        prop_assume!(receipt.replicas_reached > 0);

        let result = grid.query(origin, key, Some(&alive), &mut net, &mut rng);
        prop_assume!(result.is_resolved());
        // Answering replicas are live members of the key's replica group.
        let group = grid.responsible_peers(key);
        for (member, items) in &result.answers {
            prop_assert!(alive[*member], "dead replica {member} answered");
            prop_assert!(group.contains(member), "{member} outside the group");
            prop_assert!(
                items.contains(&item),
                "replica {member} lost the complaint"
            );
        }
        // Every live group member answers (default network drops nothing).
        let live_group: Vec<usize> = group.iter().copied().filter(|&i| alive[i]).collect();
        prop_assert_eq!(result.answers.len(), live_group.len());
    }

    /// (c) The leaf directory agrees exactly with the naive O(n) scan —
    /// the ordered index is a drop-in replacement for the old code path.
    #[test]
    fn leaf_index_matches_naive_scan(
        n in 1usize..220,
        depth in 1u8..9,
        seed in 0u64..100_000,
        key_raw in any::<u32>(),
    ) {
        let (grid, _) = build_grid(n, depth, seed);
        let key = Key::from_bits(key_raw & 0xFFFF);
        prop_assert_eq!(grid.responsible_peers(key), naive_responsible(&grid, key));
        // The trie partitions the key space: someone is always
        // responsible.
        prop_assert!(!grid.responsible_peers(key).is_empty());
    }

    /// (c′) The agreement survives post-build structural mutation:
    /// churn repair evicts references and extends paths via fresh
    /// meetings, and the directory must track every move.
    #[test]
    fn leaf_index_matches_naive_scan_after_repair(
        n in 2usize..120,
        depth in 1u8..6,
        seed in 0u64..100_000,
        down in 0.0f64..0.6,
        key_raw in any::<u32>(),
    ) {
        let (mut grid, mut rng) = build_grid(n, depth, seed);
        let alive: Vec<bool> = (0..n).map(|_| !rng.chance(down)).collect();
        grid.repair(&alive, 2 * n, &mut rng);
        let key = Key::from_bits(key_raw & 0xFFFF);
        prop_assert_eq!(grid.responsible_peers(key), naive_responsible(&grid, key));
    }

    /// Complaint stores stay compacted under arbitrary insert batches:
    /// at most one entry per (by, about) pair, carrying the max round.
    #[test]
    fn stores_stay_compacted_under_repeated_inserts(
        n in 8usize..80,
        seed in 0u64..100_000,
        rounds in prop::collection::vec(0u64..50, 1..12),
    ) {
        let (mut grid, mut rng) = build_grid(n, 3, seed);
        let mut net = Network::new(NetConfig::default());
        let subject = PeerId(7);
        let key = key_for_peer(subject, grid.config().key_bits);
        let mut stored_rounds = Vec::new();
        for &round in &rounds {
            let item = Complaint { by: PeerId(1), about: subject, round };
            let receipt = grid.insert(rng.index(n), key, item, None, &mut net, &mut rng);
            if receipt.replicas_reached > 0 {
                stored_rounds.push(round);
            }
        }
        for peer in 0..grid.len() {
            prop_assert!(grid.store_len(peer) <= 1, "store grew past the pair count");
            if let Some(item) = grid.stored(peer).next() {
                // Compaction keeps a round that was actually inserted,
                // never older than the latest round this replica saw —
                // with a full sweep, exactly the global maximum.
                prop_assert!(stored_rounds.contains(&item.round), "unknown round");
                if stored_rounds.len() == rounds.len() {
                    let max_round = rounds.iter().copied().max().expect("non-empty");
                    prop_assert_eq!(item.round, max_round, "stale round survived");
                }
            }
        }
    }

    /// (d) Membership dynamics keep the directory exact: after an
    /// arbitrary interleaving of joins and leaves, the leaf index still
    /// agrees with the naive scan, every structural invariant holds
    /// (`dir_pos` sync, subtree counts, bucket capacities), and routing
    /// from any live origin still lands only on live prefix-owners.
    #[test]
    fn leaf_index_matches_naive_scan_after_join_leave(
        n in 4usize..100,
        depth in 1u8..6,
        seed in 0u64..100_000,
        churn in prop::collection::vec(any::<bool>(), 1..40),
        key_raw in any::<u32>(),
    ) {
        let (mut grid, mut rng) = build_grid(n, depth, seed);
        let mut net = Network::new(NetConfig::default());
        for &join in &churn {
            if join || grid.live_len() <= 2 {
                grid.join(&mut rng);
            } else {
                let live: Vec<usize> =
                    (0..grid.len()).filter(|&i| grid.is_live(i)).collect();
                grid.leave(live[rng.index(live.len())]);
            }
        }
        grid.check_invariants().expect("grid invariants");
        let key = Key::from_bits(key_raw & 0xFFFF);
        // Exact agreement with the naive scan; note coverage itself can
        // be lost under churn (when a whole replica group departs, its
        // subspace is orphaned), so unlike the static property there is
        // no non-emptiness claim here.
        prop_assert_eq!(grid.responsible_peers(key), naive_responsible(&grid, key));
        let origin = (0..grid.len()).find(|&i| grid.is_live(i)).expect("live peer");
        if let Some((peer, hops, _)) = grid.route(origin, key, None, &mut net, &mut rng) {
            prop_assert!(grid.is_live(peer), "routed to a departed peer");
            prop_assert!(grid.path(peer).is_prefix_of_key(key, grid.config().key_bits));
            prop_assert!(hops <= grid.hop_limit());
        }
    }

    /// (e) Replica handoff preserves data across admission: an item
    /// inserted before a wave of joins is still found by a post-churn
    /// query, on *every* answering replica — including freshly admitted
    /// peers that became responsible for the key.
    #[test]
    fn insert_query_roundtrip_across_handoff(
        n in 8usize..80,
        depth in 1u8..5,
        seed in 0u64..100_000,
        subject_raw in 0u32..50_000,
        joins in 1usize..24,
    ) {
        let (mut grid, mut rng) = build_grid(n, depth, seed);
        let mut net = Network::new(NetConfig::default());
        let subject = PeerId(subject_raw);
        let key = key_for_peer(subject, grid.config().key_bits);
        let item = Complaint { by: PeerId(1), about: subject, round: 2 };
        let receipt = grid.insert(0, key, item, None, &mut net, &mut rng);
        prop_assume!(receipt.replicas_reached > 0);
        for _ in 0..joins {
            grid.join(&mut rng);
        }
        grid.check_invariants().expect("grid invariants");
        let result = grid.query(1, key, None, &mut net, &mut rng);
        prop_assume!(result.is_resolved());
        for (member, items) in &result.answers {
            prop_assert!(
                items.contains(&item),
                "replica {member} (admitted post-insert: {}) lost the item",
                *member >= n
            );
        }
    }
}
