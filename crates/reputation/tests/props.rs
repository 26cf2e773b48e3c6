//! Property tests for the P-Grid substrate and replica resolution.

use proptest::prelude::*;
use trustex_netsim::net::{NetConfig, Network};
use trustex_netsim::rng::SimRng;
use trustex_reputation::pgrid::{PGrid, PGridConfig};
use trustex_reputation::record::{key_for_peer, BitPath, Complaint, Key};
use trustex_reputation::resolve::majority_vote;
use trustex_trust::model::PeerId;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Routing either lands on a peer responsible for the key or fails
    /// cleanly — it never "answers" from a non-responsible peer.
    #[test]
    fn routing_lands_on_responsible_peers(seed in 0u64..500, key_raw in any::<u32>()) {
        let mut rng = SimRng::new(seed);
        let cfg = PGridConfig { max_depth: 4, ..PGridConfig::default() };
        let grid = PGrid::build(48, cfg, &mut rng);
        let mut net = Network::new(NetConfig::default());
        let key = Key::from_bits(key_raw & 0xFFFF);
        let origin = rng.index(grid.len());
        if let Some((peer, hops, _)) = grid.route(origin, key, None, &mut net, &mut rng) {
            prop_assert!(grid.path(peer).is_prefix_of_key(key, cfg.key_bits));
            prop_assert!(hops <= 4 * cfg.key_bits as u32 + 8);
        }
    }

    /// Every key has at least one responsible peer (the trie partitions
    /// the key space) in a mature grid.
    #[test]
    fn responsibility_covers_key_space(seed in 0u64..100, key_raw in any::<u32>()) {
        let mut rng = SimRng::new(seed);
        let cfg = PGridConfig { max_depth: 3, ..PGridConfig::default() };
        let grid = PGrid::build(64, cfg, &mut rng);
        let key = Key::from_bits(key_raw & 0xFFFF);
        prop_assert!(
            !grid.responsible_peers(key).is_empty(),
            "no peer responsible for key {key_raw:#x}"
        );
    }

    /// Inserted complaints are retrievable via a fresh query from any
    /// origin (no churn, no liars).
    #[test]
    fn insert_query_roundtrip(seed in 0u64..200, subject_raw in 0u32..1000, origin_sel in any::<u16>()) {
        let mut rng = SimRng::new(seed);
        let cfg = PGridConfig { max_depth: 3, ..PGridConfig::default() };
        let mut grid = PGrid::build(48, cfg, &mut rng);
        let mut net = Network::new(NetConfig::default());
        let subject = PeerId(subject_raw);
        let key = key_for_peer(subject, cfg.key_bits);
        let item = Complaint { by: PeerId(1), about: subject, round: 0 };
        let receipt = grid.insert(0, key, item, None, &mut net, &mut rng);
        prop_assume!(receipt.replicas_reached > 0);
        let origin = origin_sel as usize % grid.len();
        let result = grid.query(origin, key, None, &mut net, &mut rng);
        prop_assume!(result.is_resolved());
        prop_assert!(
            result.answers.iter().any(|(_, items)| items.contains(&item)),
            "inserted complaint lost"
        );
    }

    /// BitPath prefix/extension algebra.
    #[test]
    fn bitpath_child_extends_prefix(bits in any::<u32>(), len in 0u8..16, extra in any::<bool>()) {
        let p = BitPath::from_bits(bits, len);
        let c = p.child(extra);
        prop_assert_eq!(c.len(), len + 1);
        prop_assert_eq!(c.common_prefix(p), len);
        prop_assert_eq!(c.bit(len), extra);
    }

    /// A path is a prefix of a key iff all its bits match the key's.
    #[test]
    fn bitpath_prefix_definition(bits in any::<u32>(), len in 0u8..16, key_raw in any::<u32>()) {
        let p = BitPath::from_bits(bits, len);
        let key = Key::from_bits(key_raw & 0xFFFF);
        let manual = (0..len).all(|i| p.bit(i) == key.bit(i, 16));
        prop_assert_eq!(p.is_prefix_of_key(key, 16), manual);
    }

    /// Majority vote output is a subset of the union of the answers and
    /// contains everything unanimous.
    #[test]
    fn majority_vote_sandwich(
        present in prop::collection::vec(any::<bool>(), 3..=7),
        extra_idx in any::<u8>(),
    ) {
        let item = Complaint { by: PeerId(1), about: PeerId(2), round: 0 };
        let rare = Complaint { by: PeerId(3), about: PeerId(2), round: 1 };
        let answers: Vec<Vec<Complaint>> = present
            .iter()
            .enumerate()
            .map(|(i, &has)| {
                let mut v = Vec::new();
                if has { v.push(item); }
                if i == (extra_idx as usize % present.len()) { v.push(rare); }
                v
            })
            .collect();
        let accepted = majority_vote(&answers);
        let yes = present.iter().filter(|b| **b).count();
        let quorum = present.len() / 2 + 1;
        prop_assert_eq!(accepted.contains(&item), yes >= quorum);
        // The rare complaint appears in exactly one answer: never accepted
        // for 3+ replicas.
        prop_assert!(!accepted.contains(&rare));
    }
}
