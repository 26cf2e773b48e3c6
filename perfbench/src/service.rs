//! `service`: the trust service after a crash (e12 + e13).
//!
//! The input is a TXEL evidence log over 10 000 subjects in which every
//! fourth frame is re-sent. Set-up is crash recovery: replay the log
//! (dedup by `(issuer, seq)`), `submit_batch` the surviving records into
//! a fresh complaint-model engine and publish once. The measured work is
//! a closed loop of 4096-event windows: 80 % full-row `predict_row_into`
//! queries fanned over the worker pool against the window's snapshot,
//! 20 % feedback (a quarter of it witness reports) sent through
//! `submit`, and a `publish` at each window's end. The run ends with a
//! snapshot and restore of the engine.

use crate::trace::Tracer;
use crate::{derive_seed, quantile_sorted, secs, span_median_s, span_us};
use crate::{Chunks, Outcome, Scale, Workload};
use std::time::Instant;
use trustex_netsim::pool::parallel_map;
use trustex_netsim::rng::SimRng;
use trustex_persist::snapshot::{from_bytes, to_bytes};
use trustex_trust::complaints::ComplaintTrust;
use trustex_trust::engine::{TrustEngine, TrustEvent};
use trustex_trust::evidence_log::{EvidenceLog, EvidenceRecord};
use trustex_trust::model::{Conduct, PeerId, TrustEstimate, WitnessReport};

/// Events per second the measured work is sized for (2-core host).
const NOMINAL_EVENTS_PER_S: u64 = 45_000;

/// Checkpoints per run; `checkpoint_s` and `restore_s` are medians.
const CHECKPOINTS: usize = 200;

/// The seed whose recovery and first windows are pinned by
/// [`PINNED_PREFIX`].
const PINNED_SEED: u64 = 1;

/// Work counts and the served-prediction checksum at full scale for
/// [`PINNED_SEED`] after the first `prefix_windows` windows.
const PINNED_PREFIX: &str = "records=2000000 duplicates=500000 queries=26170 feedbacks=6598 \
epochs=8 checksum=0x40d78ecc9f41bdc8";

/// Parameters of the `service` workload.
#[derive(Debug, Clone)]
pub struct Service {
    pub subjects: usize,
    /// Distinct records in the evidence log.
    pub log_records: usize,
    pub window: usize,
    pub windows: usize,
    /// Windows after which the pinned checksum is taken.
    pub prefix_windows: usize,
    /// Whether this is the full-scale shape the pinned digest covers.
    pub pinned: bool,
}

impl Service {
    pub fn new(scale: Scale) -> Service {
        match scale {
            Scale::Full { seconds } => {
                let window = 4096;
                let prefix_windows = 8;
                Service {
                    subjects: 10_000,
                    log_records: 2_000_000,
                    window,
                    windows: ((seconds * NOMINAL_EVENTS_PER_S) as usize / window)
                        .max(prefix_windows),
                    prefix_windows,
                    pinned: true,
                }
            }
            Scale::Reduced => Service {
                subjects: 300,
                log_records: 6_000,
                window: 256,
                windows: 6,
                prefix_windows: 3,
                pinned: false,
            },
        }
    }
}

/// The generated inputs: the evidence log and the ground truth the
/// feedback stream draws conduct from.
pub struct Inputs {
    log: Vec<u8>,
    duplicates: usize,
    honesty: Vec<f64>,
}

/// One feedback event over `n` subjects: direct, or (a quarter of the
/// time) a witness report.
fn feedback(rng: &mut SimRng, honesty: &[f64], round: u64) -> TrustEvent {
    let n = honesty.len();
    let subject = PeerId(rng.index(n) as u32);
    let conduct = Conduct::from_honest(rng.chance(honesty[subject.index()]));
    if rng.chance(0.25) {
        TrustEvent::Witness(WitnessReport {
            witness: PeerId(rng.index(n) as u32),
            subject,
            conduct,
            round,
        })
    } else {
        TrustEvent::direct(subject, conduct, round)
    }
}

/// Recovers the engine from the log. Returns the engine and the
/// replayed record and duplicate counts.
fn recover(inputs: &Inputs, n: usize, tr: &mut Tracer) -> (TrustEngine<ComplaintTrust>, u64, u64) {
    let replay = tr.call("trust.evidence_log.replay", || {
        EvidenceLog::replay(&inputs.log)
    });
    let replay = replay.expect("the generated log is well-formed");
    let engine = TrustEngine::new(ComplaintTrust::with_population(n));
    tr.call("trust.engine.submit_batch", || {
        engine.submit_batch(
            replay
                .records
                .iter()
                .enumerate()
                .map(|(i, r)| (i as u64, r.event)),
        )
    });
    tr.call("trust.engine.warm_publish", || engine.publish());
    (
        engine,
        replay.records.len() as u64,
        replay.duplicates as u64,
    )
}

/// Work counts of the measured loop so far.
#[derive(Debug, Default, Clone, PartialEq)]
struct Tally {
    events: u64,
    queries: u64,
    feedbacks: u64,
    epochs: u64,
    pending_max: u64,
    checksum: f64,
}

impl Workload for Service {
    type Inputs = Inputs;

    fn params(&self) -> Vec<(&'static str, String)> {
        vec![
            ("model", "complaints".into()),
            ("subjects", self.subjects.to_string()),
            ("log_records", self.log_records.to_string()),
            ("log_resend", "every 4th frame".into()),
            ("window", self.window.to_string()),
            ("windows", self.windows.to_string()),
            ("query_share", "0.8".into()),
            ("witness_share_of_feedback", "0.25".into()),
        ]
    }

    fn inputs(&self, seed: u64) -> Inputs {
        let n = self.subjects;
        let mut rng = SimRng::new(derive_seed(seed, 0x7E1));
        let honesty: Vec<f64> = (0..n).map(|_| rng.f64()).collect();
        let mut next_seq = vec![0u64; n];
        let mut log = EvidenceLog::new();
        let mut duplicates = 0;
        for i in 0..self.log_records {
            let issuer = rng.index(n);
            let record = EvidenceRecord {
                issuer: PeerId(issuer as u32),
                seq: next_seq[issuer],
                event: feedback(&mut rng, &honesty, (i / self.window) as u64),
            };
            next_seq[issuer] += 1;
            log.append(&record);
            if i % 4 == 3 {
                log.append(&record);
                duplicates += 1;
            }
        }
        Inputs {
            log: log.into_bytes(),
            duplicates,
            honesty,
        }
    }

    fn run(
        &self,
        inputs: &Inputs,
        seed: u64,
        threads: usize,
        setups: usize,
        tr: &mut Tracer,
    ) -> Outcome {
        let n = self.subjects;
        let mut out = Outcome::default();
        let mut setup_s = Vec::new();
        let mut recovered = None;
        for _ in 0..setups {
            drop(recovered.take());
            let open = tr.enter("bench.setup");
            let t0 = Instant::now();
            recovered = Some(recover(inputs, n, tr));
            setup_s.push(secs(t0));
            tr.exit(open);
        }
        let (engine, records, duplicates) = recovered.expect("at least one set-up");
        out.check(
            format!("log replay keeps {} records", self.log_records),
            records == self.log_records as u64,
        );
        out.check(
            format!("log replay drops {} re-sent frames", inputs.duplicates),
            duplicates == inputs.duplicates as u64,
        );

        // The measured closed loop.
        let open = tr.enter("bench.measure");
        let mut rng = SimRng::new(derive_seed(seed, 0x5E7));
        let mut t = Tally::default();
        let mut latency_us: Vec<f64> = Vec::new();
        let mut chunks = Chunks::default();
        let mut seq = records;
        let mut row = vec![TrustEstimate::UNKNOWN; n];
        let mut prefix_checked = !(self.pinned && seed == PINNED_SEED);
        for w in 0..self.windows {
            let window_start = Instant::now();
            let round = w as u64;
            let mut probes: Vec<usize> = Vec::with_capacity(self.window);
            for _ in 0..self.window {
                if rng.chance(0.8) {
                    probes.push(rng.index(n));
                } else {
                    let event = feedback(&mut rng, &inputs.honesty, round);
                    tr.call("trust.engine.submit", || engine.submit(seq, event));
                    seq += 1;
                    t.feedbacks += 1;
                }
            }
            t.pending_max = t.pending_max.max(engine.pending_len() as u64);
            t.queries += probes.len() as u64;

            // Fan the window's queries over the pool against the
            // window's snapshot; results come back in submission order.
            let pool = tr.enter("netsim.pool.parallel_map");
            let snapshot = engine.snapshot();
            let chunk_len = probes.len().div_ceil(threads * 4).max(1);
            let jobs: Vec<Vec<usize>> = probes.chunks(chunk_len).map(<[usize]>::to_vec).collect();
            let served = parallel_map(threads, jobs, |_, job| {
                let mut row = vec![TrustEstimate::UNKNOWN; n];
                job.into_iter()
                    .map(|probe| {
                        let t0 = Instant::now();
                        snapshot.predict_row_into(&mut row);
                        let t1 = Instant::now();
                        (row[probe].p_honest, t0, t1)
                    })
                    .collect::<Vec<_>>()
            });
            for (probed, t0, t1) in served.into_iter().flatten() {
                t.checksum += probed;
                latency_us.push((t1 - t0).as_nanos() as f64 / 1e3);
                tr.record("trust.engine.predict_row_into", t0, t1);
            }
            tr.exit(pool);

            tr.call("trust.engine.publish", || engine.publish());
            t.epochs += 1;
            chunks.rate(self.window as u64, secs(window_start), tr);
            chunks.latency(&mut latency_us);
            if !prefix_checked && w + 1 == self.prefix_windows {
                let got = format!(
                    "records={records} duplicates={duplicates} queries={} feedbacks={} \
                     epochs={} checksum={:#018x}",
                    t.queries,
                    t.feedbacks,
                    t.epochs,
                    t.checksum.to_bits()
                );
                out.check(
                    format!("pinned seed first windows digest (got {got})"),
                    got == PINNED_PREFIX,
                );
                prefix_checked = true;
            }
        }
        tr.set_recording(true);
        tr.exit(open);
        t.events = t.queries + t.feedbacks;
        out.check(
            "one epoch per window",
            engine.epoch() == 1 + self.windows as u64,
        );
        engine.snapshot().predict_row_into(&mut row);
        out.check(
            "served predictions are probabilities",
            t.checksum.is_finite() && row.iter().all(|e| (0.0..=1.0).contains(&e.p_honest)),
        );
        let final_row: f64 = row.iter().map(|e| e.p_honest).sum();

        // Checkpoint: snapshot and restore the engine.
        let open = tr.enter("bench.checkpoint");
        let (mut checkpoint_s, mut restore_s) = (Vec::new(), Vec::new());
        let mut snapshot_bytes = 0;
        for i in 0..CHECKPOINTS {
            let t0 = Instant::now();
            let bytes = tr.call("persist.snapshot.encode", || to_bytes(&engine));
            checkpoint_s.push(secs(t0));
            let t0 = Instant::now();
            let restored = tr.call("persist.snapshot.decode", || {
                from_bytes::<TrustEngine<ComplaintTrust>>(&bytes)
            });
            restore_s.push(secs(t0));
            snapshot_bytes = bytes.len();
            match restored {
                // Encoding is deterministic: checking the first restore
                // covers the repeats.
                Ok(_) if i > 0 => {}
                Ok(restored) => {
                    let mut restored_row = vec![TrustEstimate::UNKNOWN; n];
                    restored.snapshot().predict_row_into(&mut restored_row);
                    out.check(
                        "restored engine re-encodes byte-identically and serves the same row",
                        to_bytes(&restored) == bytes && restored_row == row,
                    );
                }
                Err(e) => out.check(format!("engine snapshot restores ({e})"), false),
            }
        }
        tr.exit(open);

        out.attempted = t.events;
        out.counts = vec![
            ("records", records),
            ("duplicates", duplicates),
            ("events", t.events),
            ("queries", t.queries),
            ("feedbacks", t.feedbacks),
            ("epochs", t.epochs),
            ("pending_max", t.pending_max),
            ("checksum_bits", (t.checksum + final_row).to_bits()),
        ];
        out.set_end_to_end(&setup_s, &chunks, &checkpoint_s, &restore_s);
        if tr.is_on() {
            let predict_us = span_us(tr, "trust.engine.predict_row_into");
            let busy = predict_us.iter().sum::<f64>() / 1e6;
            let fan_out = tr.total_s("netsim.pool.parallel_map");
            let submit_us = span_us(tr, "trust.engine.submit");
            let submit_ns = submit_us.iter().sum::<f64>() * 1e3 / submit_us.len().max(1) as f64;
            let layer = [
                (
                    "trust.evidence_log.replay_s",
                    span_median_s(tr, "trust.evidence_log.replay"),
                ),
                ("trust.evidence_log.frames", (records + duplicates) as f64),
                ("trust.evidence_log.duplicates", duplicates as f64),
                (
                    "trust.engine.submit_batch_s",
                    span_median_s(tr, "trust.engine.submit_batch"),
                ),
                (
                    "trust.engine.warm_publish_s",
                    span_median_s(tr, "trust.engine.warm_publish"),
                ),
                (
                    "trust.engine.predict_row_p50_us",
                    quantile_sorted(&predict_us, 0.50),
                ),
                (
                    "trust.engine.predict_row_p99_us",
                    quantile_sorted(&predict_us, 0.99),
                ),
                ("trust.engine.submit_ns", submit_ns),
                (
                    "trust.engine.publish_us",
                    span_median_s(tr, "trust.engine.publish") * 1e6,
                ),
                ("trust.engine.pending_max", t.pending_max as f64),
                ("trust.engine.epochs", t.epochs as f64),
                ("trust.engine.predictions", t.queries as f64),
                ("netsim.pool.busy_share", busy / (threads as f64 * fan_out)),
                (
                    "persist.snapshot.encode_s",
                    span_median_s(tr, "persist.snapshot.encode"),
                ),
                (
                    "persist.snapshot.decode_s",
                    span_median_s(tr, "persist.snapshot.decode"),
                ),
                ("persist.snapshot.bytes", snapshot_bytes as f64),
            ];
            out.layer.extend(layer);
        }
        out
    }
}
