//! `overlay`: the P-Grid as a storage service, at the e6 ladder's 2¹⁷
//! rung.
//!
//! Set-up builds the grid by the meeting protocol and seeds n/2
//! complaints. One generator then issues ops on a 500 µs virtual stagger
//! through a fault plane (5 % loss, 1 % duplication) with the standard
//! retry policy: 75 % `query_at`, 20 % `insert_at`, 5 % `join`/`leave`
//! pairs, origins drawn from live peers. The measured work is sized to
//! `seconds` at a nominal op rate. The run ends with a snapshot and
//! restore of the grid.

use crate::trace::Tracer;
use crate::{derive_seed, quantile_sorted, rss_bytes, secs, span_median_s, span_us};
use crate::{Chunks, Outcome, Scale, Workload};
use std::time::Instant;
use trustex_netsim::backoff::RetryPolicy;
use trustex_netsim::fault::{FaultConfig, FaultPlane};
use trustex_netsim::net::{NetConfig, Network};
use trustex_netsim::rng::SimRng;
use trustex_netsim::time::SimTime;
use trustex_persist::snapshot::{from_bytes, to_bytes};
use trustex_reputation::pgrid::{PGrid, PGridConfig};
use trustex_reputation::record::{key_for_peer, Complaint};
use trustex_trust::model::PeerId;

/// Ops per second the measured work is sized for (2-core host).
const NOMINAL_OPS_PER_S: u64 = 150_000;

/// Virtual-clock spacing between consecutive ops.
const STAGGER_US: u64 = 500;

/// Replicas per key.
const REPLICATION: usize = 4;

/// Share of link messages the fault plane loses.
const LOSS: f64 = 0.05;

/// Share of link messages the fault plane duplicates.
const DUPLICATE: f64 = 0.01;

/// Ops per chunk of the measured work (see [`Chunks`]).
const CHUNK_OPS: u64 = 50_000;

/// Checkpoints per run; `checkpoint_s` and `restore_s` are medians.
const CHECKPOINTS: usize = 3;

/// Queries replayed on the live and the restored grid, which must
/// answer identically.
const SAMPLE_QUERIES: usize = 512;

/// The seed whose op-stream prefix is pinned by [`PINNED_PREFIX`].
const PINNED_SEED: u64 = 1;

/// Work counts at full scale for [`PINNED_SEED`] after the seed inserts
/// and the first `prefix_ops` ops.
const PINNED_PREFIX: &str = "meetings=4390912 seed_replicas=262144 Tally { queries: 35731, \
unresolved: 0, inserts: 9575, unreplicated: 1, joins: 2347, failed_joins: 0, leaves: 2347, \
hops: 340095, routed: 45305 } net.sent=505997 net.dropped=25273 fault.decisions=501257 \
net.sent.route=361677 net.dropped.route=18149 net.sent.replicate=30536 \
net.dropped.replicate=1539 net.sent.replica_query=113784 net.dropped.replica_query=5585";

/// Parameters of the `overlay` workload.
#[derive(Debug, Clone)]
pub struct Overlay {
    pub peers: usize,
    pub ops: u64,
    /// Ops after which the pinned work counts are taken.
    pub prefix_ops: u64,
    /// Whether this is the full-scale shape the pinned digest covers.
    pub pinned: bool,
}

impl Overlay {
    pub fn new(scale: Scale) -> Overlay {
        match scale {
            Scale::Full { seconds } => {
                let prefix_ops = 50_000;
                Overlay {
                    peers: 1 << 17,
                    ops: (seconds * NOMINAL_OPS_PER_S).max(prefix_ops),
                    prefix_ops,
                    pinned: true,
                }
            }
            Scale::Reduced => Overlay {
                peers: 1 << 10,
                ops: 4_000,
                prefix_ops: 1_000,
                pinned: false,
            },
        }
    }
}

/// Live peers with O(1) uniform draw, insert and removal.
struct LiveSet {
    peers: Vec<usize>,
    /// `pos[peer]` = index of `peer` in `peers`.
    pos: Vec<usize>,
}

impl LiveSet {
    fn new(n: usize) -> LiveSet {
        LiveSet {
            peers: (0..n).collect(),
            pos: (0..n).collect(),
        }
    }

    fn pick(&self, rng: &mut SimRng) -> usize {
        self.peers[rng.index(self.peers.len())]
    }

    fn add(&mut self, peer: usize) {
        if self.pos.len() <= peer {
            self.pos.resize(peer + 1, usize::MAX);
        }
        self.pos[peer] = self.peers.len();
        self.peers.push(peer);
    }

    fn remove(&mut self, peer: usize) {
        let at = self.pos[peer];
        self.peers.swap_remove(at);
        if let Some(&moved) = self.peers.get(at) {
            self.pos[moved] = at;
        }
    }
}

/// Work counts of the op stream so far, in a fixed order.
#[derive(Debug, Default, Clone, PartialEq)]
struct Tally {
    queries: u64,
    unresolved: u64,
    inserts: u64,
    unreplicated: u64,
    joins: u64,
    failed_joins: u64,
    leaves: u64,
    hops: u64,
    routed: u64,
}

fn net_counts(net: &Network) -> Vec<(&'static str, u64)> {
    vec![
        ("net.sent", net.total_sent()),
        ("net.dropped", net.total_dropped()),
        ("fault.decisions", net.link_messages()),
        ("net.sent.route", net.sent("route")),
        ("net.dropped.route", net.dropped("route")),
        ("net.sent.replicate", net.sent("replicate")),
        ("net.dropped.replicate", net.dropped("replicate")),
        ("net.sent.replica_query", net.sent("replica_query")),
        ("net.dropped.replica_query", net.dropped("replica_query")),
    ]
}

fn prefix_digest(meetings: u64, seed_reached: u64, tally: &Tally, net: &Network) -> String {
    let mut s = format!("meetings={meetings} seed_replicas={seed_reached} {tally:?}");
    for (name, v) in net_counts(net) {
        s.push_str(&format!(" {name}={v}"));
    }
    s
}

/// Builds and seeds the grid, returning it with the bootstrap meeting
/// count and the replicas the seed inserts reached.
fn setup(m: &Overlay, seed: u64, tr: &mut Tracer) -> (PGrid, u64, u64) {
    let mut rng = SimRng::new(seed);
    let cfg = PGridConfig::for_population(m.peers, REPLICATION);
    let mut grid = tr.call("reputation.pgrid.build", || {
        PGrid::build(m.peers, cfg, &mut rng)
    });
    let meetings = grid.meetings_held();
    let mut net = Network::new(NetConfig::default());
    let reached = tr.call("reputation.pgrid.seed", || {
        let mut reached = 0;
        for i in 0..m.peers / 2 {
            let about = PeerId(i as u32);
            let item = Complaint {
                by: PeerId(((i + 1) % m.peers) as u32),
                about,
                round: 0,
            };
            let key = key_for_peer(about, cfg.key_bits);
            let receipt = grid.insert(i, key, item, None, &mut net, &mut rng);
            reached += receipt.replicas_reached as u64;
        }
        reached
    });
    (grid, meetings, reached)
}

impl Workload for Overlay {
    type Inputs = ();

    fn params(&self) -> Vec<(&'static str, String)> {
        vec![
            ("peers", self.peers.to_string()),
            ("replication", REPLICATION.to_string()),
            ("ops", self.ops.to_string()),
            ("mix", "query 0.75, insert 0.20, join+leave 0.05".into()),
            ("stagger_us", STAGGER_US.to_string()),
            ("loss", LOSS.to_string()),
            ("duplicate", DUPLICATE.to_string()),
            ("retry", "standard".into()),
        ]
    }

    /// The op generator draws from its own seeded stream while the ops
    /// run (origins must be live at the time of the op).
    fn inputs(&self, _seed: u64) {}

    fn run(&self, _: &(), seed: u64, _threads: usize, setups: usize, tr: &mut Tracer) -> Outcome {
        let mut out = Outcome::default();
        let mut setup_s = Vec::new();
        let mut built = None;
        let mut bytes_per_peer = 0.0;
        for i in 0..setups {
            // Free the previous grid before building the next one.
            drop(built.take());
            let open = tr.enter("bench.setup");
            let rss = rss_bytes();
            let t0 = Instant::now();
            built = Some(setup(self, seed, tr));
            setup_s.push(secs(t0));
            if i == 0 {
                bytes_per_peer = rss_bytes().saturating_sub(rss) as f64 / self.peers as f64;
            }
            tr.exit(open);
        }
        let (mut grid, meetings, seed_reached) = built.expect("at least one set-up");
        out.check(
            "every seed insert reached a replica",
            seed_reached >= self.peers as u64 / 2,
        );

        // The measured op stream.
        let open = tr.enter("bench.measure");
        let plane = FaultPlane::new(
            derive_seed(seed, 0xFA17),
            FaultConfig {
                loss: LOSS,
                duplicate: DUPLICATE,
                ..FaultConfig::default()
            },
        );
        let mut net = Network::with_fault_plane(NetConfig::default(), plane);
        let policy = RetryPolicy::standard();
        let mut gen = SimRng::new(derive_seed(seed, 0x0915));
        let mut rng = SimRng::new(derive_seed(seed, 0x6A1D));
        let mut live = LiveSet::new(self.peers);
        let w = grid.config().key_bits;
        let mut t = Tally::default();
        let mut latency_us: Vec<f64> = Vec::with_capacity(CHUNK_OPS as usize + 2);
        let mut chunks = Chunks::default();
        let mut chunk_start = (0, Instant::now());
        let mut op: u64 = 0;
        let mut prefix_checked = !(self.pinned && seed == PINNED_SEED);
        while op < self.ops {
            if !prefix_checked && op >= self.prefix_ops {
                let got = prefix_digest(meetings, seed_reached, &t, &net);
                out.check(
                    format!("pinned seed op-stream prefix digest (got {got})"),
                    got == PINNED_PREFIX,
                );
                prefix_checked = true;
            }
            if op - chunk_start.0 >= CHUNK_OPS {
                chunks.rate(op - chunk_start.0, secs(chunk_start.1), tr);
                chunks.latency(&mut latency_us);
                chunk_start = (op, Instant::now());
            }
            let start = SimTime::from_micros(op * STAGGER_US);
            let draw = gen.f64();
            let subject = PeerId(gen.index(grid.len()) as u32);
            let key = key_for_peer(subject, w);
            let origin = live.pick(&mut gen);
            if draw < 0.75 {
                let t0 = Instant::now();
                let res =
                    grid.query_at(origin, key, None, &mut net, &mut rng, start, Some(&policy));
                let t1 = Instant::now();
                tr.record("reputation.pgrid.query_at", t0, t1);
                latency_us.push((t1 - t0).as_nanos() as f64 / 1e3);
                t.queries += 1;
                if res.is_resolved() {
                    t.hops += u64::from(res.hops);
                    t.routed += 1;
                } else {
                    t.unresolved += 1;
                }
                op += 1;
            } else if draw < 0.95 {
                let item = Complaint {
                    by: PeerId(origin as u32),
                    about: subject,
                    round: op,
                };
                let t0 = Instant::now();
                let receipt = grid.insert_at(
                    origin,
                    key,
                    item,
                    None,
                    &mut net,
                    &mut rng,
                    start,
                    Some(&policy),
                );
                let t1 = Instant::now();
                tr.record("reputation.pgrid.insert_at", t0, t1);
                latency_us.push((t1 - t0).as_nanos() as f64 / 1e3);
                t.inserts += 1;
                if receipt.replicas_reached == 0 {
                    t.unreplicated += 1;
                } else {
                    t.hops += u64::from(receipt.hops);
                    t.routed += 1;
                }
                op += 1;
            } else {
                let t0 = Instant::now();
                let peer = grid.join(&mut rng);
                let t1 = Instant::now();
                tr.record("reputation.pgrid.join", t0, t1);
                latency_us.push((t1 - t0).as_nanos() as f64 / 1e3);
                t.joins += 1;
                if grid.is_live(peer) && !grid.path(peer).is_empty() {
                    live.add(peer);
                } else {
                    t.failed_joins += 1;
                }
                let victim = live.pick(&mut gen);
                let t0 = Instant::now();
                grid.leave(victim);
                let t1 = Instant::now();
                tr.record("reputation.pgrid.leave", t0, t1);
                latency_us.push((t1 - t0).as_nanos() as f64 / 1e3);
                live.remove(victim);
                t.leaves += 1;
                op += 2;
            }
        }
        chunks.rate(op - chunk_start.0, secs(chunk_start.1), tr);
        tr.set_recording(true);
        chunks.latency(&mut latency_us);
        tr.exit(open);
        let kinds = ["route", "replicate", "replica_query"];
        out.check(
            "every message is a route, replicate or replica_query",
            kinds.iter().map(|k| net.sent(k)).sum::<u64>() == net.total_sent()
                && kinds.iter().map(|k| net.dropped(k)).sum::<u64>() == net.total_dropped(),
        );
        // Each fault decision is one sent message; an injected duplicate
        // is one more.
        let decisions = net.link_messages().max(1) as f64;
        let lost = net.total_dropped() as f64 / decisions;
        let duplicated = net.total_sent().saturating_sub(net.link_messages()) as f64 / decisions;
        out.check(
            format!("fault plane loses {lost:.4} and duplicates {duplicated:.4} of link messages"),
            (lost - LOSS).abs() < 0.2 * LOSS && (duplicated - DUPLICATE).abs() < 0.5 * DUPLICATE,
        );

        // Checkpoint: snapshot and restore the grid.
        let open = tr.enter("bench.checkpoint");
        let (mut checkpoint_s, mut restore_s) = (Vec::new(), Vec::new());
        let mut snapshot_bytes = 0;
        for i in 0..CHECKPOINTS {
            let t0 = Instant::now();
            let bytes = tr.call("persist.snapshot.encode", || to_bytes(&grid));
            checkpoint_s.push(secs(t0));
            let t0 = Instant::now();
            let restored = tr.call("persist.snapshot.decode", || from_bytes::<PGrid>(&bytes));
            restore_s.push(secs(t0));
            snapshot_bytes = bytes.len();
            match restored {
                // Encoding is deterministic: checking the first restore
                // covers the repeats.
                Ok(_) if i > 0 => {}
                Ok(restored) => {
                    out.check(
                        "restored grid re-encodes byte-identically",
                        to_bytes(&restored) == bytes,
                    );
                    out.check(
                        "restored grid answers the query sample identically",
                        same_answers(&grid, &restored, &live, seed),
                    );
                }
                Err(e) => out.check(format!("grid snapshot restores ({e})"), false),
            }
        }
        tr.exit(open);

        out.attempted = op;
        out.failed = t.unresolved + t.unreplicated + t.failed_joins;
        out.counts = vec![
            ("meetings", meetings),
            ("seed_replicas", seed_reached),
            ("queries", t.queries),
            ("unresolved", t.unresolved),
            ("inserts", t.inserts),
            ("unreplicated", t.unreplicated),
            ("joins", t.joins),
            ("failed_joins", t.failed_joins),
            ("leaves", t.leaves),
            ("hops", t.hops),
        ];
        out.counts.extend(net_counts(&net));
        out.set_end_to_end(&setup_s, &chunks, &checkpoint_s, &restore_s);
        out.layer
            .insert("reputation.pgrid.bytes_per_peer", bytes_per_peer);
        if tr.is_on() {
            let mut layer = vec![
                (
                    "reputation.pgrid.build_s",
                    span_median_s(tr, "reputation.pgrid.build"),
                ),
                ("reputation.pgrid.meetings", meetings as f64),
                (
                    "reputation.pgrid.seed_s",
                    span_median_s(tr, "reputation.pgrid.seed"),
                ),
                (
                    "reputation.pgrid.hops_mean",
                    t.hops as f64 / t.routed.max(1) as f64,
                ),
                (
                    "netsim.net.msgs_per_op",
                    net.total_sent() as f64 / op as f64,
                ),
                (
                    "netsim.net.retry_share",
                    net.total_dropped() as f64 / net.total_sent().max(1) as f64,
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
            for (span, p50, p99) in [
                (
                    "reputation.pgrid.query_at",
                    "reputation.pgrid.query_p50_us",
                    "reputation.pgrid.query_p99_us",
                ),
                (
                    "reputation.pgrid.insert_at",
                    "reputation.pgrid.insert_p50_us",
                    "reputation.pgrid.insert_p99_us",
                ),
                (
                    "reputation.pgrid.join",
                    "reputation.pgrid.join_p50_us",
                    "reputation.pgrid.join_p99_us",
                ),
                (
                    "reputation.pgrid.leave",
                    "reputation.pgrid.leave_p50_us",
                    "reputation.pgrid.leave_p99_us",
                ),
            ] {
                let us = span_us(tr, span);
                layer.push((p50, quantile_sorted(&us, 0.50)));
                layer.push((p99, quantile_sorted(&us, 0.99)));
            }
            out.layer.extend(layer);
            for (name, v) in net_counts(&net) {
                if let Some(metric) = crate::PER_LAYER
                    .iter()
                    .find(|m| m.name.strip_prefix("netsim.") == Some(name))
                {
                    out.layer.insert(metric.name, v as f64);
                }
            }
        }
        out
    }
}

/// Replays a fixed query sample on both grids, each with a fresh
/// fault-free network and an identically seeded RNG, and compares the
/// answers.
fn same_answers(a: &PGrid, b: &PGrid, live: &LiveSet, seed: u64) -> bool {
    let mut pick = SimRng::new(derive_seed(seed, 0x5A3E));
    let (mut rng_a, mut rng_b) = (SimRng::new(seed), SimRng::new(seed));
    let mut net_a = Network::new(NetConfig::default());
    let mut net_b = Network::new(NetConfig::default());
    let w = a.config().key_bits;
    (0..SAMPLE_QUERIES).all(|_| {
        let key = key_for_peer(PeerId(pick.index(a.len()) as u32), w);
        let origin = live.pick(&mut pick);
        a.query(origin, key, None, &mut net_a, &mut rng_a)
            == b.query(origin, key, None, &mut net_b, &mut rng_b)
    })
}
