//! Accuracy and welfare metrics for the experiment suite.
//!
//! # Batched evaluation
//!
//! All three accuracy metrics walk every ordered (evaluator, subject)
//! pair. The batched engine here asks each evaluator's model for its
//! whole prediction row at once
//! ([`TrustModel::predict_row_into`][trustex_trust::model::TrustModel::predict_row_into]
//! — a single dense-table sweep that hoists the per-call work, notably
//! the complaint model's population median, out of the loop), fans the
//! evaluator rows across [`parallel_map`], and folds the
//! per-evaluator partials **in evaluator order**. The float
//! accumulation replays the exact association of the retained naive
//! pair walks ([`naive`]), so every metric is bit-identical to the
//! unbatched sequential code for any thread count.

use crate::population::Community;
use trustex_netsim::pool::{parallel_map, resolve_threads};
use trustex_trust::model::{PeerId, TrustEstimate};

/// The ground-truth cooperation probability of every agent, in id order.
///
/// The truth vector is static over a simulation run, so per-round metric
/// tracking computes it once and reuses the buffer instead of
/// re-deriving it every round.
pub fn cooperation_truth(community: &Community) -> Vec<f64> {
    community
        .agent_ids()
        .map(|a| community.true_cooperation_prob(a))
        .collect()
}

/// All three trust-accuracy metrics, computed from one shared batch of
/// evaluator prediction rows by [`accuracy_metrics`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyMetrics {
    /// Mean absolute error of trust estimates against ground truth,
    /// over all ordered evaluator→subject pairs (`evaluator ≠ subject`).
    pub mae: f64,
    /// Probability that a uniformly chosen (honest, dishonest) subject
    /// pair is ranked correctly by a uniformly chosen evaluator (ties
    /// count ½) — an AUC analogue; 0.5 when either class is empty.
    pub rank_accuracy: f64,
    /// Fraction of evaluator→subject pairs classified correctly by
    /// thresholding `p_honest` at 0.5 against the binary ground truth.
    pub decision_accuracy: f64,
}

/// Runs `f` over every evaluator's full prediction row, fanning chunks
/// of consecutive evaluators across the worker pool (`threads` as in
/// [`resolve_threads`]), and returns the per-evaluator outputs in
/// evaluator order. Each worker reuses one row buffer across its
/// evaluators; `predict_row_into` overwrites every slot.
fn map_evaluator_rows<T, F>(community: &Community, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(PeerId, &[TrustEstimate]) -> T + Sync,
{
    let n = community.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = resolve_threads(threads);
    // ~4 chunks per worker so uneven row costs balance without paying
    // queue traffic per row.
    let chunk_len = n.div_ceil(workers.max(1) * 4).max(1);
    let chunks: Vec<(u32, u32)> = (0..n as u32)
        .step_by(chunk_len)
        .map(|start| (start, ((start as usize + chunk_len).min(n)) as u32))
        .collect();
    parallel_map(workers, chunks, |_, (start, end)| {
        let mut row = vec![TrustEstimate::UNKNOWN; n];
        (start..end)
            .map(|e| {
                let evaluator = PeerId(e);
                community.predict_row_into(evaluator, &mut row);
                f(evaluator, &row)
            })
            .collect::<Vec<T>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// `|estimate − truth|` for every subject other than the evaluator, in
/// subject order — the per-evaluator slice of the MAE pair walk.
fn abs_errors(evaluator: PeerId, row: &[TrustEstimate], truth: &[f64]) -> Vec<f64> {
    row.iter()
        .enumerate()
        .filter(|(subject, _)| *subject != evaluator.index())
        .map(|(subject, est)| (est.p_honest - truth[subject]).abs())
        .collect()
}

/// One evaluator's Mann–Whitney U tally over its prediction row:
/// `(half_units, pairs)` in exact half-unit integers (associative, so
/// the parallel fold is bit-identical to the sequential accumulation).
fn rank_partial(
    evaluator: PeerId,
    row: &[TrustEstimate],
    honest: &[PeerId],
    dishonest: &[PeerId],
) -> (u64, u64) {
    let mut honest_scores: Vec<f64> = honest
        .iter()
        .filter(|&&h| h != evaluator)
        .map(|&h| row[h.index()].p_honest)
        .collect();
    if honest_scores.is_empty() {
        return (0, 0);
    }
    honest_scores.sort_unstable_by(f64::total_cmp);
    let mut half_units: u64 = 0;
    let mut pairs: u64 = 0;
    for &d in dishonest {
        if d == evaluator {
            continue;
        }
        let pd = row[d.index()].p_honest;
        let below = honest_scores.partition_point(|&ph| ph.total_cmp(&pd).is_lt());
        let below_or_tied = honest_scores.partition_point(|&ph| ph.total_cmp(&pd).is_le());
        let wins = (honest_scores.len() - below_or_tied) as u64;
        let ties = (below_or_tied - below) as u64;
        half_units += 2 * wins + ties;
        pairs += honest_scores.len() as u64;
    }
    (half_units, pairs)
}

/// One evaluator's `(correct, pairs)` classification tally.
fn decision_partial(community: &Community, evaluator: PeerId, row: &[TrustEstimate]) -> (u64, u64) {
    let mut correct: u64 = 0;
    let mut pairs: u64 = 0;
    for subject in community.agent_ids() {
        if subject == evaluator {
            continue;
        }
        let predicted_honest = row[subject.index()].p_honest >= 0.5;
        if predicted_honest == community.is_honest(subject) {
            correct += 1;
        }
        pairs += 1;
    }
    (correct, pairs)
}

/// Ground-truth class split, in id order.
fn truth_classes(community: &Community) -> (Vec<PeerId>, Vec<PeerId>) {
    community.agent_ids().partition(|&a| community.is_honest(a))
}

/// Sequential pair-order MAE fold: one running accumulator over the
/// per-evaluator error slices reproduces the naive walk's float
/// association exactly.
fn fold_mae<'a>(rows: impl Iterator<Item = &'a Vec<f64>>) -> f64 {
    let mut total = 0.0;
    let mut count = 0usize;
    for row in rows {
        for err in row {
            total += err;
            count += 1;
        }
    }
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

fn fold_rank(partials: impl Iterator<Item = (u64, u64)>) -> f64 {
    let (half_units, pairs) = partials.fold((0u64, 0u64), |(h, p), (dh, dp)| (h + dh, p + dp));
    if pairs == 0 {
        0.5
    } else {
        half_units as f64 / (2 * pairs) as f64
    }
}

fn fold_decision(partials: impl Iterator<Item = (u64, u64)>) -> f64 {
    let (correct, pairs) = partials.fold((0u64, 0u64), |(c, p), (dc, dp)| (c + dc, p + dp));
    if pairs == 0 {
        1.0
    } else {
        correct as f64 / pairs as f64
    }
}

/// Computes MAE, ranking accuracy and decision accuracy from **one**
/// batch of evaluator prediction rows — each (evaluator, subject) pair
/// is predicted exactly once.
///
/// `threads` resolves as in [`resolve_threads`] (0 = the process
/// default); the result is bit-identical for every value.
///
/// # Panics
///
/// Panics if `truth.len()` differs from the community size.
pub fn accuracy_metrics(community: &Community, truth: &[f64], threads: usize) -> AccuracyMetrics {
    assert_eq!(truth.len(), community.len(), "truth buffer size mismatch");
    let (honest, dishonest) = truth_classes(community);
    let ranked = !honest.is_empty() && !dishonest.is_empty();
    struct Partial {
        abs_err: Vec<f64>,
        rank: (u64, u64),
        decision: (u64, u64),
    }
    let partials = map_evaluator_rows(community, threads, |evaluator, row| Partial {
        abs_err: abs_errors(evaluator, row, truth),
        rank: if ranked {
            rank_partial(evaluator, row, &honest, &dishonest)
        } else {
            (0, 0)
        },
        decision: decision_partial(community, evaluator, row),
    });
    AccuracyMetrics {
        mae: fold_mae(partials.iter().map(|p| &p.abs_err)),
        rank_accuracy: if ranked {
            fold_rank(partials.iter().map(|p| p.rank))
        } else {
            0.5
        },
        decision_accuracy: fold_decision(partials.iter().map(|p| p.decision)),
    }
}

/// Mean absolute error of trust estimates against a precomputed
/// [`cooperation_truth`] buffer, averaged over all ordered
/// evaluator→subject pairs (`evaluator ≠ subject`) — the MAE part of
/// [`accuracy_metrics`], for the per-round tracking hot path.
///
/// `threads` is a worker-thread count (0 = process default); the value
/// never changes the result.
///
/// # Panics
///
/// Panics if `truth.len()` differs from the community size.
pub(crate) fn trust_mae_with_truth_threads(
    community: &Community,
    truth: &[f64],
    threads: usize,
) -> f64 {
    assert_eq!(truth.len(), community.len(), "truth buffer size mismatch");
    let rows = map_evaluator_rows(community, threads, |evaluator, row| {
        abs_errors(evaluator, row, truth)
    });
    fold_mae(rows.iter())
}

/// The unbatched per-pair metric walks the engine replaced, retained
/// verbatim as differential-test oracles: the batched parallel versions
/// must agree **bit-for-bit** for any community and thread count.
#[doc(hidden)]
pub mod naive {
    use super::*;

    /// Pair-by-pair MAE with a single running accumulator.
    pub fn trust_mae_with_truth(community: &Community, truth: &[f64]) -> f64 {
        assert_eq!(truth.len(), community.len(), "truth buffer size mismatch");
        let mut total = 0.0;
        let mut count = 0usize;
        for e in community.agent_ids() {
            for s in community.agent_ids() {
                if e == s {
                    continue;
                }
                let est = community.predict(e, s).p_honest;
                total += (est - truth[s.index()]).abs();
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }

    /// Per-evaluator sorted Mann–Whitney U count, one `predict` call per
    /// cell (the pre-batching implementation).
    pub fn rank_accuracy(community: &Community) -> f64 {
        let ids: Vec<PeerId> = community.agent_ids().collect();
        let honest: Vec<PeerId> = ids
            .iter()
            .copied()
            .filter(|a| community.is_honest(*a))
            .collect();
        let dishonest: Vec<PeerId> = ids
            .iter()
            .copied()
            .filter(|a| !community.is_honest(*a))
            .collect();
        if honest.is_empty() || dishonest.is_empty() {
            return 0.5;
        }
        let mut half_units: u64 = 0;
        let mut count: u64 = 0;
        let mut honest_scores: Vec<f64> = Vec::with_capacity(honest.len());
        for &e in &ids {
            honest_scores.clear();
            honest_scores.extend(
                honest
                    .iter()
                    .filter(|&&h| h != e)
                    .map(|&h| community.predict(e, h).p_honest),
            );
            if honest_scores.is_empty() {
                continue;
            }
            honest_scores.sort_unstable_by(f64::total_cmp);
            for &d in &dishonest {
                if d == e {
                    continue;
                }
                let pd = community.predict(e, d).p_honest;
                let below = honest_scores.partition_point(|&ph| ph.total_cmp(&pd).is_lt());
                let below_or_tied = honest_scores.partition_point(|&ph| ph.total_cmp(&pd).is_le());
                let wins = (honest_scores.len() - below_or_tied) as u64;
                let ties = (below_or_tied - below) as u64;
                half_units += 2 * wins + ties;
                count += honest_scores.len() as u64;
            }
        }
        if count == 0 {
            0.5
        } else {
            half_units as f64 / (2 * count) as f64
        }
    }

    /// Pair-by-pair thresholded classification walk.
    pub fn decision_accuracy(community: &Community) -> f64 {
        let ids: Vec<PeerId> = community.agent_ids().collect();
        let mut correct = 0usize;
        let mut count = 0usize;
        for &e in &ids {
            for &s in &ids {
                if e == s {
                    continue;
                }
                let predicted_honest = community.predict(e, s).p_honest >= 0.5;
                if predicted_honest == community.is_honest(s) {
                    correct += 1;
                }
                count += 1;
            }
        }
        if count == 0 {
            1.0
        } else {
            correct as f64 / count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::ModelKind;
    use trustex_agents::profile::PopulationMix;
    use trustex_netsim::rng::SimRng;
    use trustex_trust::model::Conduct;

    fn community(dishonest: f64) -> Community {
        community_with(dishonest, ModelKind::Beta, 10)
    }

    fn community_with(dishonest: f64, kind: ModelKind, n: usize) -> Community {
        let mut rng = SimRng::new(1);
        Community::new(n, &PopulationMix::standard(dishonest, 0.0), kind, &mut rng)
    }

    /// Feed every evaluator perfect direct experience about everyone.
    fn educate(c: &mut Community, reps: u64) {
        let ids: Vec<PeerId> = c.agent_ids().collect();
        for &e in &ids {
            for &s in &ids {
                if e == s {
                    continue;
                }
                let conduct = Conduct::from_honest(c.is_honest(s));
                for r in 0..reps {
                    c.record_direct(e, s, conduct, r);
                }
            }
        }
    }

    fn metrics(c: &Community) -> AccuracyMetrics {
        accuracy_metrics(c, &cooperation_truth(c), 0)
    }

    #[test]
    fn mae_decreases_with_evidence() {
        let mut c = community(0.5);
        let cold = metrics(&c).mae;
        assert!((cold - 0.5).abs() < 1e-9, "uninformed prior is 0.5 off");
        educate(&mut c, 10);
        let warm = metrics(&c).mae;
        assert!(warm < 0.2, "educated community MAE: {warm}");
    }

    #[test]
    fn rank_accuracy_perfect_after_education() {
        let mut c = community(0.5);
        assert!(
            (metrics(&c).rank_accuracy - 0.5).abs() < 1e-9,
            "cold start is a coin flip"
        );
        educate(&mut c, 5);
        assert_eq!(metrics(&c).rank_accuracy, 1.0);
    }

    #[test]
    fn decision_accuracy_after_education() {
        let mut c = community(0.3);
        educate(&mut c, 10);
        assert!(metrics(&c).decision_accuracy > 0.95);
    }

    /// The naive O(n³) pair walk — one step below even [`naive`]'s
    /// sorted formulation — as the ground-truth rank oracle.
    fn rank_accuracy_pair_walk(community: &Community) -> f64 {
        let ids: Vec<PeerId> = community.agent_ids().collect();
        let honest: Vec<PeerId> = ids
            .iter()
            .copied()
            .filter(|a| community.is_honest(*a))
            .collect();
        let dishonest: Vec<PeerId> = ids
            .iter()
            .copied()
            .filter(|a| !community.is_honest(*a))
            .collect();
        if honest.is_empty() || dishonest.is_empty() {
            return 0.5;
        }
        let mut score = 0.0;
        let mut count = 0usize;
        for &e in &ids {
            for &h in &honest {
                if h == e {
                    continue;
                }
                for &d in &dishonest {
                    if d == e {
                        continue;
                    }
                    let ph = community.predict(e, h).p_honest;
                    let pd = community.predict(e, d).p_honest;
                    score += if ph > pd {
                        1.0
                    } else if ph == pd {
                        0.5
                    } else {
                        0.0
                    };
                    count += 1;
                }
            }
        }
        if count == 0 {
            0.5
        } else {
            score / count as f64
        }
    }

    /// Batched metrics must agree bit-for-bit with the retained naive
    /// walks (and rank with the O(n³) pair walk) on cold, partially
    /// educated and fully educated communities, for every model kind
    /// and several thread counts.
    #[test]
    fn batched_metrics_match_naive_reference() {
        for kind in ModelKind::ALL {
            for dishonest_frac in [0.3, 0.5, 0.7] {
                let mut c = community_with(dishonest_frac, kind, 12);
                let stages: [&dyn Fn(&mut Community); 3] = [
                    &|_| {},
                    &|c| {
                        // Partial education: some evaluators learn,
                        // leaving a mix of informative and cold rows.
                        let ids: Vec<PeerId> = c.agent_ids().collect();
                        for &e in ids.iter().take(4) {
                            for &s in &ids {
                                if e != s {
                                    let conduct = Conduct::from_honest(c.is_honest(s));
                                    c.record_direct(e, s, conduct, 0);
                                }
                            }
                        }
                    },
                    &|c| educate(c, 7),
                ];
                for stage in stages {
                    stage(&mut c);
                    let truth = cooperation_truth(&c);
                    let expected_mae = naive::trust_mae_with_truth(&c, &truth);
                    let expected_rank = naive::rank_accuracy(&c);
                    let expected_decision = naive::decision_accuracy(&c);
                    assert_eq!(expected_rank, rank_accuracy_pair_walk(&c), "{kind:?}");
                    for threads in [1usize, 2, 8] {
                        let m = accuracy_metrics(&c, &truth, threads);
                        assert_eq!(m.mae, expected_mae, "{kind:?} t={threads}");
                        assert_eq!(m.rank_accuracy, expected_rank, "{kind:?} t={threads}");
                        assert_eq!(
                            m.decision_accuracy, expected_decision,
                            "{kind:?} t={threads}"
                        );
                        assert_eq!(
                            trust_mae_with_truth_threads(&c, &truth, threads),
                            expected_mae,
                            "{kind:?} t={threads}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "truth buffer size mismatch")]
    fn trust_mae_with_wrong_buffer_panics() {
        let c = community(0.4);
        trust_mae_with_truth_threads(&c, &[0.5; 3], 1);
    }

    #[test]
    #[should_panic(expected = "truth buffer size mismatch")]
    fn accuracy_metrics_with_wrong_buffer_panics() {
        let c = community(0.4);
        accuracy_metrics(&c, &[0.5; 3], 1);
    }

    #[test]
    fn degenerate_populations() {
        let c = community(0.0);
        let m = metrics(&c);
        assert_eq!(m.rank_accuracy, 0.5, "no dishonest class");
        // Decision accuracy with the cold prior (0.5 ≥ 0.5 ⇒ honest)
        // is exactly the honest fraction.
        assert!((m.decision_accuracy - 1.0).abs() < 1e-9);
        let truth = cooperation_truth(&c);
        assert_eq!(m.mae, trust_mae_with_truth_threads(&c, &truth, 2));
    }
}
