//! Differential suite for the epoch-swapped trust engine.
//!
//! The engine's contract is that its read path is a pure function of the
//! *published* event prefix: after every publish, a snapshot's
//! predictions must equal a reference model that applied exactly the
//! published events directly, bit for bit — regardless of the arrival
//! order of the submissions (the publish fold is pinned by sequence
//! numbers) and regardless of how many snapshots readers are still
//! holding. These tests pin that on random write/publish interleavings
//! for all four model kinds.
//!
//! A second group pins the per-epoch materialized row behind
//! `TrustSnapshot::predict_row_into` against the sealed model's own
//! sweep, bit for bit: requests shorter than, equal to and longer than
//! the cache-filling one, first readers racing on the pool, snapshots
//! held across later publishes, and engines restored from bytes.

use proptest::prelude::*;
use trustex_netsim::pool::parallel_map;
use trustex_persist::snapshot::{from_bytes, to_bytes, Persistable};
use trustex_trust::baselines::{EwmaTrust, MeanTrust};
use trustex_trust::beta::BetaTrust;
use trustex_trust::complaints::ComplaintTrust;
use trustex_trust::engine::{TrustEngine, TrustEvent, TrustSnapshot};
use trustex_trust::model::{Conduct, PeerId, TrustEstimate, TrustModel, WitnessReport};

const POP: u32 = 12;

/// Longest row request in the materialized-row checks: twice the
/// population, so rows also cover never-observed subjects.
const ROW: usize = 2 * POP as usize;

/// A slot value no model produces, so an unwritten slot fails the
/// bit-for-bit comparison.
const UNWRITTEN: TrustEstimate = TrustEstimate {
    p_honest: f64::NAN,
    confidence: f64::NAN,
};

/// One step of a random engine workout: a feedback event or a publish
/// boundary.
#[derive(Debug, Clone, Copy)]
enum Step {
    Direct {
        subject: u32,
        honest: bool,
        round: u64,
    },
    Witness {
        witness: u32,
        subject: u32,
        honest: bool,
        round: u64,
    },
    Publish,
}

fn steps(max_len: usize) -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (0u8..5, 0u32..POP, 0u32..POP, any::<bool>(), 0u64..20).prop_map(
            |(kind, a, b, honest, round)| match kind {
                0 => Step::Publish,
                1 | 2 => Step::Witness {
                    witness: a,
                    subject: b,
                    honest,
                    round,
                },
                _ => Step::Direct {
                    subject: a,
                    honest,
                    round,
                },
            },
        ),
        0..max_len,
    )
}

fn event_of(step: Step) -> Option<TrustEvent> {
    match step {
        Step::Publish => None,
        Step::Direct {
            subject,
            honest,
            round,
        } => Some(TrustEvent::direct(
            PeerId(subject),
            Conduct::from_honest(honest),
            round,
        )),
        Step::Witness {
            witness,
            subject,
            honest,
            round,
        } => Some(TrustEvent::Witness(WitnessReport {
            witness: PeerId(witness),
            subject: PeerId(subject),
            conduct: Conduct::from_honest(honest),
            round,
        })),
    }
}

fn assert_estimates_eq(got: &[TrustEstimate], want: &[TrustEstimate], context: &str) {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            (g.p_honest, g.confidence),
            (w.p_honest, w.confidence),
            "{context}: subject {i} diverged"
        );
    }
}

/// Drives `steps` through an engine while a reference model applies the
/// same *published* prefix directly. After every publish — i.e. after
/// every prefix of the interleaving — the fresh snapshot's full row must
/// match the reference bit for bit; within a window the pending events
/// must stay invisible. Submission arrival order is scrambled (each
/// window is submitted back to front, keeping the original sequence
/// numbers) to pin the seq-ordered publish fold. Every snapshot ever
/// taken is retained and re-checked against its own epoch's reference at
/// the end, so old epochs provably never move.
fn check_engine_against_reference<M>(model: M, steps: &[Step])
where
    M: TrustModel + Clone + Send + Sync + 'static,
{
    let reference_base = model.clone();
    let engine = TrustEngine::new(model);
    let mut reference = reference_base;
    let mut row = vec![TrustEstimate::UNKNOWN; POP as usize];
    let mut want = vec![TrustEstimate::UNKNOWN; POP as usize];

    // (epoch, reference row at that epoch, snapshot taken then).
    let mut history = Vec::new();
    let mut window: Vec<(u64, TrustEvent)> = Vec::new();
    let mut seq = 0u64;
    let mut boundaries = 0usize;

    for &step in steps {
        match event_of(step) {
            Some(event) => {
                window.push((seq, event));
                seq += 1;
            }
            None => {
                boundaries += 1;
                // Pending events are invisible before the publish.
                let pre = engine.snapshot();
                pre.predict_row_into(&mut row);
                reference.predict_row_into(&mut want);
                assert_estimates_eq(&row, &want, &format!("pre-publish {boundaries}"));

                // Scrambled arrival: back to front, original seqs.
                engine.submit_batch(window.iter().rev().cloned());
                for (_, event) in window.drain(..) {
                    event.apply(&mut reference);
                }
                let epoch = engine.publish();

                let snap = engine.snapshot();
                assert_eq!(snap.epoch(), epoch);
                snap.predict_row_into(&mut row);
                reference.predict_row_into(&mut want);
                assert_estimates_eq(&row, &want, &format!("post-publish {boundaries}"));
                history.push((epoch, want.clone(), snap));
            }
        }
    }

    // No epoch ever moves: every retained snapshot still serves exactly
    // its own published prefix.
    for (epoch, want, snap) in &history {
        assert_eq!(snap.epoch(), *epoch);
        snap.predict_row_into(&mut row);
        assert_estimates_eq(&row, want, &format!("retained epoch {epoch}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn beta_engine_matches_direct_folds(steps in steps(120)) {
        check_engine_against_reference(BetaTrust::with_population(POP as usize), &steps);
    }

    #[test]
    fn complaint_engine_matches_direct_folds(steps in steps(120)) {
        check_engine_against_reference(ComplaintTrust::with_population(POP as usize), &steps);
    }

    #[test]
    fn mean_engine_matches_direct_folds(steps in steps(120)) {
        check_engine_against_reference(MeanTrust::new(), &steps);
    }

    #[test]
    fn ewma_engine_matches_direct_folds(steps in steps(120)) {
        check_engine_against_reference(EwmaTrust::new(0.3), &steps);
    }
}

fn assert_bits_eq(got: &[TrustEstimate], want: &[TrustEstimate], context: &str) {
    assert_eq!(got.len(), want.len(), "{context}: row length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            (g.p_honest.to_bits(), g.confidence.to_bits()),
            (w.p_honest.to_bits(), w.confidence.to_bits()),
            "{context}: subject {i} diverged"
        );
    }
}

/// The snapshot's row of length `len`, read through the engine's
/// served path into a buffer of [`UNWRITTEN`] slots.
fn served_row<M: TrustModel>(snap: &TrustSnapshot<M>, len: usize) -> Vec<TrustEstimate> {
    let mut row = vec![UNWRITTEN; len];
    snap.predict_row_into(&mut row);
    row
}

/// The sealed model's own sweep of length `len`, bypassing the
/// snapshot's materialized row.
fn model_row<M: TrustModel>(snap: &TrustSnapshot<M>, len: usize) -> Vec<TrustEstimate> {
    let mut row = vec![UNWRITTEN; len];
    snap.model().predict_row_into(&mut row);
    row
}

/// Reads `snap`'s row at each length in `lens`, in order, and checks
/// each read against the sealed model. On a fresh epoch the first read
/// fills the materialized row, so the later lengths are served from a
/// row that is shorter than, as long as or longer than their request.
fn assert_rows_exact<M: TrustModel>(snap: &TrustSnapshot<M>, lens: &[usize], context: &str) {
    for &len in lens {
        assert_bits_eq(
            &served_row(snap, len),
            &model_row(snap, len),
            &format!("{context}, epoch {}, len {len}", snap.epoch()),
        );
    }
}

/// Checks that a restored engine's current epoch serves the live
/// engine's rows. The restored row is filled first, at the last length
/// in `lens`; the live one at the first, unless it was already filled.
fn assert_restored_rows_match<M: TrustModel + Clone>(
    live: &TrustEngine<M>,
    restored: &TrustEngine<M>,
    lens: &[usize],
) {
    let (live, back) = (live.snapshot(), restored.snapshot());
    assert_eq!(live.epoch(), back.epoch());
    for &len in lens.iter().rev() {
        assert_bits_eq(
            &served_row(&back, len),
            &model_row(&back, len),
            &format!("restored, epoch {}, len {len}", back.epoch()),
        );
    }
    for &len in lens {
        assert_bits_eq(
            &served_row(&back, len),
            &served_row(&live, len),
            &format!("restored vs live, epoch {}, len {len}", live.epoch()),
        );
    }
}

/// Drives `steps` through an engine. At every publish boundary it
/// restores a copy of the engine from its bytes (pending delta
/// included), checks that both serve the same rows before and after
/// both publish, and checks the new epoch's rows at every length in
/// `lens`. Every published snapshot is held, and at the end each must
/// still serve its own epoch's row.
fn check_materialized_rows<M>(model: M, steps: &[Step], lens: &[usize])
where
    M: TrustModel + Clone + Persistable,
{
    let engine = TrustEngine::new(model);
    // (snapshot, its full row when it was published).
    let mut held = Vec::new();
    let mut seq = 0u64;
    for &step in steps {
        if let Some(event) = event_of(step) {
            engine.submit(seq, event);
            seq += 1;
            continue;
        }
        let restored: TrustEngine<M> =
            from_bytes(&to_bytes(&engine)).expect("own snapshot must restore");
        assert_restored_rows_match(&engine, &restored, lens);
        assert_eq!(engine.publish(), restored.publish());
        assert_restored_rows_match(&engine, &restored, lens);
        let snap = engine.snapshot();
        assert_rows_exact(&snap, lens, "published");
        held.push((snap.clone(), model_row(&snap, ROW)));
    }
    for (snap, want) in &held {
        assert_rows_exact(snap, lens, "held");
        assert_bits_eq(
            &served_row(snap, ROW),
            want,
            &format!("held epoch {}", snap.epoch()),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn beta_snapshot_rows_are_exact(
        steps in steps(80),
        lens in prop::collection::vec(0..=ROW, 1..6),
    ) {
        check_materialized_rows(BetaTrust::with_population(POP as usize), &steps, &lens);
    }

    #[test]
    fn complaint_snapshot_rows_are_exact(
        steps in steps(80),
        lens in prop::collection::vec(0..=ROW, 1..6),
    ) {
        check_materialized_rows(ComplaintTrust::with_population(POP as usize), &steps, &lens);
    }

    #[test]
    fn mean_snapshot_rows_are_exact(
        steps in steps(80),
        lens in prop::collection::vec(0..=ROW, 1..6),
    ) {
        check_materialized_rows(MeanTrust::new(), &steps, &lens);
    }

    #[test]
    fn ewma_snapshot_rows_are_exact(
        steps in steps(80),
        lens in prop::collection::vec(0..=ROW, 1..6),
    ) {
        check_materialized_rows(EwmaTrust::new(0.3), &steps, &lens);
    }
}

/// First readers of a fresh epoch race through `parallel_map` with
/// mixed request lengths, so which length fills the row depends on
/// scheduling. Every reader must still get the sealed model's row.
fn check_racing_first_readers<M>(model: M)
where
    M: TrustModel + Clone + Send + Sync + 'static,
{
    let engine = TrustEngine::new(model);
    let mut seq = 0u64;
    for round in 0..6u64 {
        for i in 0..40u32 {
            let subject = PeerId((i * 7 + round as u32) % POP);
            let conduct = Conduct::from_honest(!(i + round as u32).is_multiple_of(3));
            let event = if i.is_multiple_of(4) {
                TrustEvent::Witness(WitnessReport {
                    witness: PeerId((i + 1) % POP),
                    subject,
                    conduct,
                    round,
                })
            } else {
                TrustEvent::direct(subject, conduct, round)
            };
            engine.submit(seq, event);
            seq += 1;
        }
        let lens: Vec<usize> = (0..48)
            .map(|j| [ROW, POP as usize / 2, POP as usize, 1][(j + round as usize) % 4])
            .collect();
        for threads in [1, 2, 8] {
            // Each thread count races on a new epoch, whose row is empty.
            engine.publish();
            let snap = engine.snapshot();
            let rows = parallel_map(threads, lens.clone(), |_, len| served_row(&snap, len));
            for (len, row) in lens.iter().zip(&rows) {
                assert_bits_eq(
                    row,
                    &model_row(&snap, *len),
                    &format!("threads {threads}, epoch {}, len {len}", snap.epoch()),
                );
            }
        }
    }
}

#[test]
fn first_readers_race_to_exact_rows() {
    check_racing_first_readers(BetaTrust::with_population(POP as usize));
    check_racing_first_readers(ComplaintTrust::with_population(POP as usize));
    check_racing_first_readers(MeanTrust::new());
    check_racing_first_readers(EwmaTrust::new(0.3));
}
