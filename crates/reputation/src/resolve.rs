//! Resolution of conflicting replica answers.
//!
//! Storage peers can lie: a *suppressor* hides complaints about its
//! accomplices, a *fabricator* invents complaints about its victims.
//! Queries therefore ask the whole replica group and resolve the answers.
//! The CIKM 2001 analysis shows that with independent liars, taking a
//! robust statistic over replicas bounds the error; we implement
//! per-complaint **majority voting**.

use crate::record::Complaint;
use std::collections::BTreeMap;

/// How a storage peer answers queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StorageBehavior {
    /// Returns exactly what it stores.
    #[default]
    Faithful,
    /// Returns nothing (hides all complaints it stores).
    Suppressor,
    /// Returns its store plus the contained number of fabricated
    /// complaints about the queried subject. Fabricators collude: they
    /// all invent the *same* fake complaints, so fabrications reach
    /// quorum whenever liars dominate a replica group.
    Fabricator(u8),
}

impl StorageBehavior {
    /// Whether the behaviour is faithful.
    pub fn is_faithful(self) -> bool {
        matches!(self, StorageBehavior::Faithful)
    }
}

/// Resolves replica answers by per-complaint majority voting: a
/// complaint is accepted when strictly more than half of the answering
/// replicas report it.
///
/// Returns the accepted complaints in deterministic (ordered) form.
pub fn majority_vote(answers: &[Vec<Complaint>]) -> Vec<Complaint> {
    if answers.is_empty() {
        return Vec::new();
    }
    let quorum = answers.len() / 2 + 1;
    let mut counts: BTreeMap<Complaint, usize> = BTreeMap::new();
    for answer in answers {
        // A malicious replica could duplicate entries; count each
        // complaint at most once per replica.
        let mut seen = std::collections::BTreeSet::new();
        for c in answer {
            if seen.insert(*c) {
                *counts.entry(*c).or_insert(0) += 1;
            }
        }
    }
    counts
        .into_iter()
        .filter(|(_, n)| *n >= quorum)
        .map(|(c, _)| c)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use trustex_trust::model::PeerId;

    fn c(by: u32, about: u32) -> Complaint {
        Complaint {
            by: PeerId(by),
            about: PeerId(about),
            round: 0,
        }
    }

    #[test]
    fn majority_accepts_consistent_answers() {
        let answers = vec![vec![c(1, 2)], vec![c(1, 2)], vec![c(1, 2)]];
        assert_eq!(majority_vote(&answers), vec![c(1, 2)]);
    }

    #[test]
    fn majority_rejects_minority_fabrication() {
        let answers = vec![
            vec![c(1, 2)],
            vec![c(1, 2)],
            vec![c(1, 2), c(9, 2)], // fabricator adds c(9,2)
        ];
        assert_eq!(majority_vote(&answers), vec![c(1, 2)]);
    }

    #[test]
    fn majority_survives_minority_suppression() {
        let answers = vec![
            vec![c(1, 2)],
            vec![], // suppressor
            vec![c(1, 2)],
        ];
        assert_eq!(majority_vote(&answers), vec![c(1, 2)]);
    }

    #[test]
    fn majority_fails_when_liars_dominate() {
        let answers = vec![vec![], vec![], vec![c(1, 2)]];
        assert!(majority_vote(&answers).is_empty());
    }

    #[test]
    fn duplicates_within_one_replica_count_once() {
        let answers = vec![vec![c(1, 2), c(1, 2), c(1, 2)], vec![], vec![]];
        assert!(majority_vote(&answers).is_empty(), "1/3 is not a majority");
    }

    #[test]
    fn empty_input() {
        assert!(majority_vote(&[]).is_empty());
    }

    #[test]
    fn storage_behavior_predicates() {
        assert!(StorageBehavior::Faithful.is_faithful());
        assert!(!StorageBehavior::Suppressor.is_faithful());
        assert!(!StorageBehavior::Fabricator(3).is_faithful());
        assert_eq!(StorageBehavior::default(), StorageBehavior::Faithful);
    }
}
