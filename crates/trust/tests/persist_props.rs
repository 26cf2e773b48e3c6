//! Property suite for the durable-evidence codec on the trust side.
//!
//! Four contracts, pinned on random evidence histories, the first three
//! across all four model kinds:
//!
//! 1. **Round-trip identity** — `decode(encode(m))` serves the exact
//!    same predictions as `m`, bit for bit, and re-encodes to the exact
//!    same bytes (the format is canonical, not merely invertible).
//! 2. **Engine capture** — persisting a [`TrustEngine`] mid-window
//!    preserves the published epoch *and* the pending seq-tagged delta:
//!    the restored engine publishes to the same row the live one does.
//! 3. **Total decoding** — every single-byte corruption and every
//!    truncation of a real snapshot is a typed error, never a panic and
//!    never an `Ok`.
//! 4. **Log dedup** — evidence-log replay keeps the first frame of each
//!    `(issuer, seq)`, exactly as a first-wins hash-set fold does.

use proptest::prelude::*;
use trustex_persist::codec::ByteWriter;
use trustex_persist::snapshot::{from_bytes, to_bytes, Persistable, SnapshotWriter, VALUE_MAGIC};
use trustex_persist::PersistError;
use trustex_trust::baselines::{EwmaTrust, MeanTrust};
use trustex_trust::beta::{BetaConfig, BetaTrust};
use trustex_trust::complaints::{ComplaintConfig, ComplaintTrust};
use trustex_trust::engine::{TrustEngine, TrustEvent};
use trustex_trust::evidence_log::{EvidenceLog, EvidenceRecord};
use trustex_trust::model::{Conduct, PeerId, TrustEstimate, TrustModel, WitnessReport};

const POP: u32 = 10;

#[derive(Debug, Clone, Copy)]
struct Obs {
    witness: u32, // == subject ⇒ direct experience
    subject: u32,
    honest: bool,
    round: u64,
}

fn observation() -> impl Strategy<Value = Obs> {
    (0u32..POP, 0u32..POP, any::<bool>(), 0u64..50).prop_map(|(w, s, honest, round)| Obs {
        witness: w,
        subject: s,
        honest,
        round,
    })
}

fn observations(max_len: usize) -> impl Strategy<Value = Vec<Obs>> {
    prop::collection::vec(observation(), 0..max_len)
}

fn apply(model: &mut dyn TrustModel, obs: &[Obs]) {
    for o in obs {
        if o.witness == o.subject {
            model.record_direct(PeerId(o.subject), Conduct::from_honest(o.honest), o.round);
        } else {
            model.record_witness(WitnessReport {
                witness: PeerId(o.witness),
                subject: PeerId(o.subject),
                conduct: Conduct::from_honest(o.honest),
                round: o.round,
            });
        }
    }
}

/// encode → decode → identical rows, identical bytes.
fn check_round_trip<M>(model: &M)
where
    M: TrustModel + Persistable,
{
    let blob = to_bytes(model);
    let restored: M = from_bytes(&blob).expect("own snapshot must restore");
    let mut live = vec![TrustEstimate::UNKNOWN; POP as usize];
    let mut back = vec![TrustEstimate::UNKNOWN; POP as usize];
    model.predict_row_into(&mut live);
    restored.predict_row_into(&mut back);
    for (i, (l, b)) in live.iter().zip(&back).enumerate() {
        assert_eq!(
            (l.p_honest, l.confidence),
            (b.p_honest, b.confidence),
            "subject {i} diverged after restore"
        );
    }
    assert_eq!(to_bytes(&restored), blob, "re-encode must be canonical");
}

/// Every prefix cut and every byte flip of a real snapshot must fail
/// typed. Run on a handful of blobs per test, not in the proptest loop —
/// the matrix is O(len · 8) decodes.
fn check_corruption_matrix(blob: &[u8], decode: &dyn Fn(&[u8]) -> bool) {
    for cut in 0..blob.len() {
        assert!(!decode(&blob[..cut]), "truncation at {cut} must fail");
    }
    for i in 0..blob.len() {
        for bit in 0..8 {
            let mut corrupt = blob.to_vec();
            corrupt[i] ^= 1 << bit;
            assert!(!decode(&corrupt), "flip of byte {i} bit {bit} must fail");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn beta_round_trips(obs in observations(120), graded in prop::collection::vec((0u32..POP, any::<bool>()), 0..10)) {
        let mut model = BetaTrust::with_population(POP as usize);
        apply(&mut model, &obs);
        for (w, ok) in graded {
            model.grade_witness(PeerId(w), ok, 7);
        }
        check_round_trip(&model);
    }

    #[test]
    fn complaint_round_trips(obs in observations(120)) {
        let mut model = ComplaintTrust::with_population(POP as usize);
        apply(&mut model, &obs);
        check_round_trip(&model);
    }

    #[test]
    fn mean_round_trips(obs in observations(120)) {
        let mut model = MeanTrust::with_population(POP as usize);
        apply(&mut model, &obs);
        check_round_trip(&model);
    }

    #[test]
    fn ewma_round_trips(obs in observations(120), rate in 0.05f64..1.0) {
        let mut model = EwmaTrust::with_population(rate, POP as usize);
        apply(&mut model, &obs);
        check_round_trip(&model);
    }

    /// Snapshot an engine mid-window: restored engine must serve the
    /// same published row now, and fold the preserved pending delta to
    /// the same row on the next publish.
    #[test]
    fn engine_round_trips_with_pending_delta(
        published in observations(60),
        pending in observations(20),
    ) {
        let engine = TrustEngine::new(BetaTrust::with_population(POP as usize));
        engine.submit_batch(published.iter().enumerate().map(|(i, o)| (i as u64, event_of(*o))));
        engine.publish();
        engine.submit_batch(
            pending
                .iter()
                .enumerate()
                .map(|(i, o)| ((published.len() + i) as u64, event_of(*o))),
        );

        let blob = to_bytes(&engine);
        let restored: TrustEngine<BetaTrust> = from_bytes(&blob).expect("engine snapshot");

        let mut live = vec![TrustEstimate::UNKNOWN; POP as usize];
        let mut back = vec![TrustEstimate::UNKNOWN; POP as usize];
        let live_snap = engine.snapshot();
        let back_snap = restored.snapshot();
        prop_assert_eq!(live_snap.epoch(), back_snap.epoch());
        live_snap.predict_row_into(&mut live);
        back_snap.predict_row_into(&mut back);
        for (l, b) in live.iter().zip(&back) {
            prop_assert_eq!((l.p_honest, l.confidence), (b.p_honest, b.confidence));
        }

        // The pending window crossed the snapshot intact.
        prop_assert_eq!(engine.publish(), restored.publish());
        engine.snapshot().predict_row_into(&mut live);
        restored.snapshot().predict_row_into(&mut back);
        for (l, b) in live.iter().zip(&back) {
            prop_assert_eq!((l.p_honest, l.confidence), (b.p_honest, b.confidence));
        }
        prop_assert_eq!(to_bytes(&restored), to_bytes(&engine));
    }

    /// Replay folds duplicates first-wins, whatever the interleaving.
    #[test]
    fn evidence_log_replay_dedups(
        obs in observations(40),
        dup_every in 1usize..5,
    ) {
        let mut log = EvidenceLog::new();
        let mut expect = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for (i, o) in obs.iter().enumerate() {
            let rec = EvidenceRecord {
                issuer: PeerId(o.witness),
                seq: (i / dup_every) as u64, // collides every `dup_every` records
                event: event_of(*o),
            };
            log.append(&rec);
            if seen.insert((rec.issuer, rec.seq)) {
                expect.push(rec);
            }
        }
        let replay = EvidenceLog::replay(log.as_bytes()).unwrap();
        prop_assert_eq!(replay.records, expect);
        prop_assert_eq!(replay.duplicates + replay_len(&log), obs.len());
    }
}

/// The issuers and seqs the oracle draws keys from: a small space, so
/// keys repeat far apart and out of order, with the extremes that catch
/// a slip in packing `(issuer, seq, frame index)` into one `u128`.
const ORACLE_ISSUERS: [u32; 4] = [0, 1, u32::MAX - 1, u32::MAX];
const ORACLE_SEQS: [u64; 6] = [0, 1, u32::MAX as u64, 1 << 32, u64::MAX - 1, u64::MAX];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Replay equals a first-wins hash-set fold: the same records in the
    /// same order and the same duplicate count. Repeated keys may carry
    /// different payloads; `open` counts every frame.
    #[test]
    fn evidence_log_replay_matches_hash_set_oracle(
        frames in prop::collection::vec(
            (0..ORACLE_ISSUERS.len(), 0..ORACLE_SEQS.len(), observation()),
            0..80,
        ),
    ) {
        let mut log = EvidenceLog::new();
        let mut expect = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for &(issuer, seq, obs) in &frames {
            let rec = EvidenceRecord {
                issuer: PeerId(ORACLE_ISSUERS[issuer]),
                seq: ORACLE_SEQS[seq],
                event: event_of(obs),
            };
            log.append(&rec);
            if seen.insert((rec.issuer, rec.seq)) {
                expect.push(rec);
            }
        }
        let replay = EvidenceLog::replay(log.as_bytes()).unwrap();
        prop_assert_eq!(replay.duplicates, frames.len() - expect.len());
        prop_assert_eq!(replay.records, expect);
        prop_assert_eq!(EvidenceLog::open(log.into_bytes()).unwrap().frames(), frames.len());
    }
}

fn replay_len(log: &EvidenceLog) -> usize {
    EvidenceLog::replay(log.as_bytes()).unwrap().records.len()
}

fn event_of(o: Obs) -> TrustEvent {
    if o.witness == o.subject {
        TrustEvent::direct(PeerId(o.subject), Conduct::from_honest(o.honest), o.round)
    } else {
        TrustEvent::Witness(WitnessReport {
            witness: PeerId(o.witness),
            subject: PeerId(o.subject),
            conduct: Conduct::from_honest(o.honest),
            round: o.round,
        })
    }
}

fn workout<M: TrustModel>(mut model: M) -> M {
    let obs: Vec<Obs> = (0..60)
        .map(|i| Obs {
            witness: i % POP,
            subject: (i * 7 + 3) % POP,
            honest: i % 3 != 0,
            round: i as u64,
        })
        .collect();
    apply(&mut model, &obs);
    model
}

#[test]
fn beta_corruption_matrix() {
    let model = workout(BetaTrust::with_population(POP as usize));
    let blob = to_bytes(&model);
    check_corruption_matrix(&blob, &|b| from_bytes::<BetaTrust>(b).is_ok());
}

#[test]
fn complaint_corruption_matrix() {
    let model = workout(ComplaintTrust::with_population(POP as usize));
    let blob = to_bytes(&model);
    check_corruption_matrix(&blob, &|b| from_bytes::<ComplaintTrust>(b).is_ok());
}

#[test]
fn mean_corruption_matrix() {
    let model = workout(MeanTrust::with_population(POP as usize));
    let blob = to_bytes(&model);
    check_corruption_matrix(&blob, &|b| from_bytes::<MeanTrust>(b).is_ok());
}

#[test]
fn ewma_corruption_matrix() {
    let model = workout(EwmaTrust::with_population(0.3, POP as usize));
    let blob = to_bytes(&model);
    check_corruption_matrix(&blob, &|b| from_bytes::<EwmaTrust>(b).is_ok());
}

#[test]
fn engine_corruption_matrix() {
    let engine = TrustEngine::new(workout(BetaTrust::with_population(POP as usize)));
    engine.publish();
    engine.submit(0, TrustEvent::direct(PeerId(1), Conduct::Dishonest, 9));
    let blob = to_bytes(&engine);
    check_corruption_matrix(&blob, &|b| from_bytes::<TrustEngine<BetaTrust>>(b).is_ok());
}

/// A snapshot from a hypothetical newer format version must be refused,
/// not guessed at.
#[test]
fn future_version_is_refused() {
    let blob = to_bytes(&workout(MeanTrust::new()));
    let mut future = blob.clone();
    future[4] = future[4].wrapping_add(1); // version lives after the 4-byte magic
    assert!(matches!(
        from_bytes::<MeanTrust>(&future),
        Err(PersistError::UnsupportedVersion { .. })
    ));
}

/// Encodes `value`, overwrites the bytes at `offset` with `patch`,
/// reseals the payload under a valid CRC and decodes it again.
fn reseal<T: Persistable>(value: &T, offset: usize, patch: &[u8]) -> Result<T, PersistError> {
    let mut payload = ByteWriter::new();
    value.encode_state(&mut payload);
    let mut payload = payload.into_bytes();
    payload[offset..offset + patch.len()].copy_from_slice(patch);
    let mut w = SnapshotWriter::new(VALUE_MAGIC);
    w.raw_section(T::TAG, payload);
    from_bytes::<T>(&w.into_bytes())
}

/// Runs a constructor that must panic and returns its panic message.
fn panic_message(construct: impl FnOnce() + std::panic::UnwindSafe) -> String {
    let payload = std::panic::catch_unwind(construct).expect_err("constructor accepted the value");
    *payload
        .downcast::<String>()
        .expect("a formatted panic message")
}

/// Each config bound is one rule: a finite out-of-range value resealed
/// into a checksummed snapshot decodes as `Invalid`, and the constructor
/// panics on the same value, and on NaN, naming the same bound.
#[test]
fn resealed_out_of_range_configs_decode_as_invalid() {
    fn check<T: Persistable + std::fmt::Debug>(
        what: &str,
        decoded: Result<T, PersistError>,
        construct: impl Fn(f64) + std::panic::RefUnwindSafe,
        bad: f64,
    ) {
        let context = match decoded {
            Err(PersistError::Invalid { context }) => context,
            other => panic!("{what} = {bad}: expected Invalid, got {other:?}"),
        };
        assert_eq!(panic_message(|| construct(bad)), context, "{what} = {bad}");
        assert_eq!(
            panic_message(|| construct(f64::NAN)),
            context,
            "{what} = NaN"
        );
    }

    /// Writes one config field.
    type SetField<C> = fn(&mut C, f64);

    // Beta payload: prior_honest, prior_dishonest, forgetting,
    // witness_weight, witness_prior — one f64 each, in that order.
    let beta_fields: [(&str, usize, f64, SetField<BetaConfig>); 6] = [
        ("prior_honest", 0, 0.0, |c, v| c.prior_honest = v),
        ("prior_dishonest", 8, -1.0, |c, v| c.prior_dishonest = v),
        ("forgetting", 16, 1.5, |c, v| c.forgetting = v),
        ("forgetting", 16, 0.0, |c, v| c.forgetting = v),
        ("witness_weight", 24, -0.25, |c, v| c.witness_weight = v),
        ("witness_prior", 32, 1.25, |c, v| c.witness_prior = v),
    ];
    for (what, offset, bad, set) in beta_fields {
        let decoded = reseal(&BetaTrust::new(), offset, &bad.to_le_bytes());
        let construct = move |v: f64| {
            let mut cfg = BetaConfig::default();
            set(&mut cfg, v);
            BetaTrust::with_config(cfg);
        };
        check(what, decoded, construct, bad);
    }

    // Complaint payload: outlier_factor, witness_weight.
    let complaint_fields: [(&str, usize, f64, SetField<ComplaintConfig>); 2] = [
        ("outlier_factor", 0, 0.5, |c, v| c.outlier_factor = v),
        ("witness_weight", 8, 1.5, |c, v| c.witness_weight = v),
    ];
    for (what, offset, bad, set) in complaint_fields {
        let decoded = reseal(&ComplaintTrust::new(), offset, &bad.to_le_bytes());
        let construct = move |v: f64| {
            let mut cfg = ComplaintConfig::default();
            set(&mut cfg, v);
            ComplaintTrust::with_config(cfg);
        };
        check(what, decoded, construct, bad);
    }

    // EWMA payload: rate first.
    for bad in [0.0f64, 1.5] {
        let decoded = reseal(&EwmaTrust::new(0.3), 0, &bad.to_le_bytes());
        check("rate", decoded, |v| drop(EwmaTrust::new(v)), bad);
    }
}
