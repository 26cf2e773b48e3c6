//! `market`: the paper's marketplace at e8's heaviest arm shape.
//!
//! Each pass builds a `MarketSim` (set-up) and runs it (the measured
//! work): file-sharing deals, trust-aware scheduling, the beta model, a
//! 30 %-dishonest population with 3 gossip witnesses, chaos off, one
//! thread (see [`Workload::threads`] below). The
//! measured work is sized to `seconds` at a nominal session rate, so
//! every run of a seed does the same work. The first pass warms the
//! allocator and is checked but not timed.
//!
//! The checkpoint encodes a community that holds evidence, one snapshot
//! section per agent model. `MarketSim::run` consumes the sim, so its
//! trained community cannot be had; the checkpoint instead trains the
//! last pass's community, built again on its own, with one pass's worth
//! of seeded sessions through `record_direct` and
//! `deliver_witness_report`.
//!
//! `run` hides its phases, so the traced run adds layer probes before
//! the first pass runs: the same public functions `run` calls
//! (`predict`, `plan`, `record_direct`, `deliver_witness_report`,
//! `accuracy_metrics`), driven with the workload's own deals and an
//! identically seeded community.

use crate::trace::Tracer;
use crate::{derive_seed, quantile_sorted, rss_bytes, secs, span_median_s, span_us};
use crate::{Chunks, Outcome, Scale, Workload};
use std::hint::black_box;
use std::time::Instant;
use trustex_agents::profile::PopulationMix;
use trustex_market::metrics::{accuracy_metrics, cooperation_truth};
use trustex_market::population::{AnyModel, Community, DefenseConfig, ModelKind};
use trustex_market::sim::{MarketConfig, MarketReport, MarketSim};
use trustex_market::strategy::{plan, Strategy};
use trustex_market::workload::Workload as Deals;
use trustex_netsim::rng::SimRng;
use trustex_persist::codec::ByteWriter;
use trustex_persist::snapshot::{Persistable, SnapshotReader, SnapshotWriter};
use trustex_trust::beta::BetaTrust;
use trustex_trust::model::{Conduct, PeerId, TrustEstimate, TrustModel, WitnessReport};

/// Sessions per second the measured work is sized for (2-core host).
const NOMINAL_SESSIONS_PER_S: u64 = 90_000;

/// Timed passes per chunk (see [`Chunks`]): the latency percentiles of a
/// chunk are over its pass times.
const PASSES_PER_CHUNK: u64 = 8;

/// Snapshot magic of the market checkpoint.
const CHECKPOINT_MAGIC: [u8; 4] = *b"TXMK";

/// Checkpoints per run; `checkpoint_s` and `restore_s` are medians.
const CHECKPOINTS: usize = 3;

/// The seed whose first pass is pinned by [`PINNED_PASS`].
const PINNED_SEED: u64 = 1;

/// The first pass's report at full scale for [`PINNED_SEED`].
const PINNED_PASS: &str = "sessions=25000 completed=17055 aborted=7088 no_trade=857 \
witness_attempted=144858 witness_delivered=144858 welfare=0x4104a52e5cd2d44d \
mae=0x3fdf82633dc2f047";

/// Parameters of the `market` workload.
#[derive(Debug, Clone)]
pub struct Market {
    pub agents: usize,
    pub sessions_per_round: usize,
    pub rounds_per_pass: u64,
    /// Passes, the untimed warm-up pass included.
    pub passes: usize,
    /// Calls per layer probe in the traced run.
    pub probes: usize,
    /// Whether this is the full-scale shape the pinned digest covers.
    pub pinned: bool,
}

impl Market {
    pub fn new(scale: Scale) -> Market {
        match scale {
            Scale::Full { seconds } => {
                let (agents, sessions_per_round, rounds_per_pass) = (1000, 1000, 25);
                let per_chunk = sessions_per_round as u64 * rounds_per_pass * PASSES_PER_CHUNK;
                let chunks = (seconds * NOMINAL_SESSIONS_PER_S).div_ceil(per_chunk);
                Market {
                    agents,
                    sessions_per_round,
                    rounds_per_pass,
                    passes: 1 + (chunks * PASSES_PER_CHUNK) as usize,
                    probes: 20_000,
                    pinned: true,
                }
            }
            Scale::Reduced => Market {
                agents: 60,
                sessions_per_round: 60,
                rounds_per_pass: 6,
                passes: 1 + PASSES_PER_CHUNK as usize,
                probes: 200,
                pinned: false,
            },
        }
    }

    fn config(&self, seed: u64, threads: usize) -> MarketConfig {
        MarketConfig {
            n_agents: self.agents,
            rounds: self.rounds_per_pass,
            sessions_per_round: self.sessions_per_round,
            mix: PopulationMix::standard(0.3, 0.25),
            model: ModelKind::Beta,
            strategy: Strategy::TrustAware,
            workload: Deals::FileSharing,
            gossip_witnesses: 3,
            seed,
            chaos: None,
            threads,
            ..MarketConfig::default()
        }
    }
}

/// The deterministic fields of a pass report, as pinned by
/// [`PINNED_PASS`].
fn digest(r: &MarketReport) -> String {
    format!(
        "sessions={} completed={} aborted={} no_trade={} witness_attempted={} \
         witness_delivered={} welfare={:#018x} mae={:#018x}",
        r.sessions,
        r.completed,
        r.aborted,
        r.no_trade,
        r.witness_attempted,
        r.witness_delivered,
        r.total_welfare.to_bits(),
        r.final_mae.to_bits()
    )
}

fn beta(model: &AnyModel) -> &BetaTrust {
    match model {
        AnyModel::Beta(m) => m,
        _ => unreachable!("the market workload runs the beta model"),
    }
}

/// Encodes every agent's model as one section of a snapshot.
fn checkpoint(community: &Community) -> Vec<u8> {
    let mut w = SnapshotWriter::new(CHECKPOINT_MAGIC);
    for agent in community.agent_ids() {
        let mut section = ByteWriter::new();
        beta(community.model(agent)).encode_state(&mut section);
        w.raw_section(agent.0.to_be_bytes(), section.into_bytes());
    }
    w.into_bytes()
}

/// Decodes a [`checkpoint`] of `agents` models.
fn restore(bytes: &[u8], agents: usize) -> Option<Vec<BetaTrust>> {
    let reader = SnapshotReader::parse(bytes, CHECKPOINT_MAGIC).ok()?;
    (0..agents as u32)
        .map(|a| reader.decode_tag::<BetaTrust>(a.to_be_bytes()).ok())
        .collect()
}

/// The community `MarketSim::new` builds for `cfg`, built on its own.
fn community(cfg: &MarketConfig) -> Community {
    Community::with_defense(
        cfg.n_agents,
        &cfg.mix,
        cfg.model,
        DefenseConfig::default(),
        &mut SimRng::new(cfg.seed),
    )
}

/// A seeded pair of distinct agents out of `n`.
fn pair(n: usize, rng: &mut SimRng) -> (PeerId, PeerId) {
    let a = rng.index(n);
    let b = (a + 1 + rng.index(n - 1)) % n;
    (PeerId(a as u32), PeerId(b as u32))
}

/// One side of a session's evidence: `evaluator`'s direct record of
/// `subject`'s true conduct, and `evaluator`'s witness report of it
/// delivered to `target`.
fn record(
    community: &mut Community,
    evaluator: PeerId,
    subject: PeerId,
    target: PeerId,
    round: u64,
) {
    let conduct = Conduct::from_honest(community.is_honest(subject));
    community.record_direct(evaluator, subject, conduct, round);
    let report = WitnessReport {
        witness: evaluator,
        subject,
        conduct,
        round,
    };
    community.deliver_witness_report(target, report);
}

/// `cfg`'s community after one pass's worth of seeded sessions: in each,
/// both sides record the other and report it to a random agent.
fn trained(cfg: &MarketConfig) -> Community {
    let mut community = community(cfg);
    let mut rng = SimRng::new(derive_seed(cfg.seed, 0x7EA1));
    let n = cfg.n_agents;
    for round in 0..cfg.rounds {
        for _ in 0..cfg.sessions_per_round {
            let (a, b) = pair(n, &mut rng);
            for (evaluator, subject) in [(a, b), (b, a)] {
                let target = PeerId(rng.index(n) as u32);
                record(&mut community, evaluator, subject, target, round);
            }
        }
    }
    community
}

/// Whether every agent's restored model predicts the same row as its
/// live one, with how many live estimates rest on evidence.
fn same_rows(community: &Community, models: &[BetaTrust]) -> (bool, u64) {
    let n = community.len();
    let mut live = vec![TrustEstimate::UNKNOWN; n];
    let mut restored = live.clone();
    let (mut same, mut evidenced) = (models.len() == n, 0);
    for (agent, model) in community.agent_ids().zip(models) {
        community.predict_row_into(agent, &mut live);
        model.predict_row_into(&mut restored);
        evidenced += live.iter().filter(|e| e.confidence > 0.0).count() as u64;
        same &= live == restored;
    }
    (same, evidenced)
}

/// Re-encodes restored models the way [`checkpoint`] encodes them.
fn re_encode(models: &[BetaTrust]) -> Vec<u8> {
    let mut w = SnapshotWriter::new(CHECKPOINT_MAGIC);
    for (a, model) in models.iter().enumerate() {
        let mut section = ByteWriter::new();
        model.encode_state(&mut section);
        w.raw_section((a as u32).to_be_bytes(), section.into_bytes());
    }
    w.into_bytes()
}

/// Layer probes: the public functions `MarketSim::run` calls, each
/// timed on its own with the workload's deals and community.
fn probe(m: &Market, cfg: &MarketConfig, threads: usize, tr: &mut Tracer) {
    let open = tr.enter("bench.probe");
    let mut community = community(cfg);
    let mut rng = SimRng::new(derive_seed(cfg.seed, 0x9B0E));
    let n = cfg.n_agents;
    let pairs: Vec<(PeerId, PeerId)> = (0..m.probes).map(|_| pair(n, &mut rng)).collect();
    let targets: Vec<PeerId> = (0..m.probes).map(|_| PeerId(rng.index(n) as u32)).collect();
    for chunk in pairs.chunks(1024) {
        tr.call("market.population.predict", || {
            for &(a, b) in chunk {
                black_box(community.predict(a, b));
            }
        });
    }
    for &(supplier, consumer) in &pairs {
        let deal = cfg.workload.generate_deal(&mut rng);
        let s_trust = community.predict(supplier, consumer);
        let c_trust = community.predict(consumer, supplier);
        let _planned = tr.call("market.strategy.plan", || {
            black_box(plan(
                cfg.strategy,
                &deal,
                s_trust,
                c_trust,
                cfg.payment_policy,
            ))
        });
    }
    let sessions: Vec<_> = pairs.iter().zip(&targets).collect();
    for (round, chunk) in sessions.chunks(256).enumerate() {
        tr.call("market.population.record", || {
            for &(&(evaluator, subject), &target) in chunk {
                record(&mut community, evaluator, subject, target, round as u64);
            }
        });
    }
    let truth = cooperation_truth(&community);
    tr.call("market.metrics.accuracy", || {
        black_box(accuracy_metrics(&community, &truth, threads))
    });
    tr.exit(open);
}

impl Workload for Market {
    type Inputs = ();

    fn params(&self) -> Vec<(&'static str, String)> {
        vec![
            ("agents", self.agents.to_string()),
            ("sessions_per_round", self.sessions_per_round.to_string()),
            ("rounds_per_pass", self.rounds_per_pass.to_string()),
            ("passes", self.passes.to_string()),
            ("deals", "file-sharing".into()),
            ("strategy", "trust-aware".into()),
            ("model", "beta".into()),
            ("mix", "standard(0.3,0.25)".into()),
            ("gossip_witnesses", "3".into()),
            ("probes", self.probes.to_string()),
        ]
    }

    /// One thread: the pool spawns its workers afresh for every round,
    /// and on a 2-vCPU guest that made the 2-thread market's throughput
    /// spread 31 % between runs, against 4.5 % at one thread. The pool
    /// is measured at `nproc` threads by `service`.
    fn threads(&self, _nproc: usize) -> usize {
        1
    }

    /// The market draws its deals and population from the seed inside
    /// `MarketSim`; there is nothing to generate up front.
    fn inputs(&self, _seed: u64) {}

    fn run(&self, _: &(), seed: u64, threads: usize, _setups: usize, tr: &mut Tracer) -> Outcome {
        let mut out = Outcome::default();
        let (mut setup, mut pass_us) = (Vec::new(), Vec::new());
        let mut chunks = Chunks::default();
        let (mut checkpoint_s, mut restore_s) = (Vec::new(), Vec::new());
        let mut totals = [0u64; 7];
        let mut bytes_per_agent = 0.0;
        let mut snapshot_bytes = 0;
        let (mut balanced, mut witnessed) = (true, true);
        for pass in 0..self.passes {
            let cfg = self.config(derive_seed(seed, pass as u64), threads);
            let open = tr.enter("bench.setup");
            let rss = rss_bytes();
            let t0 = Instant::now();
            let sim = tr.call("market.sim.new", || MarketSim::new(cfg.clone()));
            let warm = pass > 0;
            if warm {
                setup.push(secs(t0));
            }
            if pass == 0 {
                bytes_per_agent = rss_bytes().saturating_sub(rss) as f64 / self.agents as f64;
            }
            tr.exit(open);
            if pass == 0 && tr.is_on() {
                probe(self, &cfg, threads, tr);
            }
            if pass + 1 == self.passes {
                let community = trained(&cfg);
                tr.set_recording(true);
                let open = tr.enter("bench.checkpoint");
                for i in 0..CHECKPOINTS {
                    let t0 = Instant::now();
                    let bytes = tr.call("persist.snapshot.encode", || checkpoint(&community));
                    checkpoint_s.push(secs(t0));
                    let t0 = Instant::now();
                    let restored =
                        tr.call("persist.snapshot.decode", || restore(&bytes, self.agents));
                    restore_s.push(secs(t0));
                    snapshot_bytes = bytes.len();
                    // Encoding is deterministic: checking the first
                    // restore in full covers the repeats.
                    match restored {
                        Some(_) if i > 0 => {}
                        Some(models) => {
                            let (same, evidenced) = same_rows(&community, &models);
                            out.check(
                                format!("market checkpoint holds evidence ({evidenced} estimates)"),
                                evidenced > 0,
                            );
                            out.check(
                                "restored models predict every agent's row identically",
                                same,
                            );
                            out.check(
                                "restored models re-encode byte-identically",
                                re_encode(&models) == bytes,
                            );
                        }
                        None => out.check("market checkpoint restores", false),
                    }
                }
                tr.exit(open);
            }
            let open = tr.enter("bench.measure");
            let t0 = Instant::now();
            let report = tr.call("market.sim.run", || sim.run());
            let took = secs(t0);
            tr.exit(open);
            if warm {
                pass_us.push(took * 1e6);
                chunks.rate(report.sessions, took, tr);
                if pass_us.len() as u64 == PASSES_PER_CHUNK {
                    chunks.latency(&mut pass_us);
                }
            }
            let r = &report;
            balanced &= r.sessions == r.completed + r.aborted + r.no_trade
                && r.sessions == self.rounds_per_pass * self.sessions_per_round as u64;
            witnessed &= r.witness_delivered <= r.witness_attempted;
            if pass == 0 && self.pinned && seed == PINNED_SEED {
                let got = digest(r);
                out.check(
                    format!("pinned seed first pass digest (got {got})"),
                    got == PINNED_PASS,
                );
            }
            for (total, v) in totals.iter_mut().zip([
                r.sessions,
                r.completed,
                r.aborted,
                r.no_trade,
                r.witness_attempted,
                r.witness_delivered,
                r.total_welfare.to_bits() ^ r.final_mae.to_bits(),
            ]) {
                *total = total.wrapping_add(v);
            }
        }
        out.check(
            "every pass: sessions == completed + aborted + no_trade == rounds x sessions_per_round",
            balanced,
        );
        out.check(
            "every pass: witness_delivered <= witness_attempted",
            witnessed,
        );
        let [sessions, completed, aborted, no_trade, attempted, delivered, fold] = totals;
        out.counts = vec![
            ("sessions", sessions),
            ("completed", completed),
            ("aborted", aborted),
            ("no_trade", no_trade),
            ("witness_attempted", attempted),
            ("witness_delivered", delivered),
            ("report_fold", fold),
        ];
        out.attempted = sessions;
        out.set_end_to_end(&setup, &chunks, &checkpoint_s, &restore_s);
        out.layer.insert("market.bytes_per_agent", bytes_per_agent);
        if tr.is_on() {
            let plan_us = span_us(tr, "market.strategy.plan");
            let per_call = |name: &str| tr.total_s(name) / self.probes as f64;
            let layer = [
                ("market.sim.new_s", span_median_s(tr, "market.sim.new")),
                ("market.sim.run_s", span_median_s(tr, "market.sim.run")),
                ("market.sim.sessions", sessions as f64),
                ("market.sim.trades", (completed + aborted) as f64),
                ("market.sim.no_trade", no_trade as f64),
                ("market.sim.witness_attempted", attempted as f64),
                ("market.sim.witness_delivered", delivered as f64),
                (
                    "market.strategy.plan_p50_us",
                    quantile_sorted(&plan_us, 0.5),
                ),
                (
                    "market.strategy.plan_p99_us",
                    quantile_sorted(&plan_us, 0.99),
                ),
                (
                    "market.population.predict_ns",
                    per_call("market.population.predict") * 1e9,
                ),
                (
                    "market.population.record_us",
                    per_call("market.population.record") * 1e6,
                ),
                (
                    "market.metrics.accuracy_s",
                    tr.total_s("market.metrics.accuracy"),
                ),
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
