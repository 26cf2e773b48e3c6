//! E13 bench: composite service snapshot/restore — the warm-start path
//! (encode the overlay + engine, parse it back) against a fixed state —
//! the evidence-log replay that follows it, and the CRC-32C kernel that
//! frames every section and log record.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use trustex_market::experiments::{find, Scale};
use trustex_market::prelude::*;
use trustex_netsim::crc::crc32c;
use trustex_netsim::rng::SimRng;
use trustex_reputation::pgrid::{PGrid, PGridConfig};
use trustex_trust::engine::{TrustEngine, TrustEvent};
use trustex_trust::evidence_log::{EvidenceLog, EvidenceRecord};
use trustex_trust::model::{Conduct, PeerId};

fn service_state(n: usize, events: usize) -> (PGrid, TrustEngine<trustex_trust::beta::BetaTrust>) {
    let mut rng = SimRng::new(0xE13);
    let grid = PGrid::build(n, PGridConfig::for_population(n, 4), &mut rng);
    let engine = TrustEngine::new(trustex_trust::beta::BetaTrust::with_population(n));
    for i in 0..events {
        let subject = PeerId(rng.index(n) as u32);
        let conduct = Conduct::from_honest(!rng.chance(0.3));
        engine.submit(i as u64, TrustEvent::direct(subject, conduct, i as u64));
        if i % 1_000 == 999 {
            engine.publish();
        }
    }
    (grid, engine)
}

/// CRC-32C throughput over one snapshot-sized buffer and over a run of
/// evidence-log-sized frames (~30 bytes each, checksummed one by one).
fn bench_crc32c(c: &mut Criterion) {
    let mut rng = SimRng::new(0xC5C);
    let buf: Vec<u8> = (0..1 << 20).map(|_| rng.index(256) as u8).collect();
    let mut group = c.benchmark_group("e13/crc32c");
    group.throughput(Throughput::Bytes(buf.len() as u64));
    group.bench_function("1MiB", |b| b.iter(|| black_box(crc32c(black_box(&buf)))));
    let frames = &buf[..2_000 * 30];
    group.throughput(Throughput::Bytes(frames.len() as u64));
    group.bench_function("2000x30B", |b| {
        b.iter(|| {
            frames
                .chunks_exact(30)
                .fold(0u32, |acc, frame| acc ^ crc32c(black_box(frame)))
        })
    });
    group.finish();
}

/// Evidence-log replay: 250 000 frames from 1000 issuers, every fourth
/// frame re-sent (a gossip retry), checked, deduplicated on
/// `(issuer, seq)` and decoded.
fn bench_log_replay(c: &mut Criterion) {
    let issuers = 1_000;
    let mut rng = SimRng::new(0x7E1);
    let mut next_seq = vec![0u64; issuers];
    let mut log = EvidenceLog::new();
    for i in 0..200_000u64 {
        let issuer = rng.index(issuers);
        let record = EvidenceRecord {
            issuer: PeerId(issuer as u32),
            seq: next_seq[issuer],
            event: TrustEvent::direct(
                PeerId(rng.index(10_000) as u32),
                Conduct::from_honest(!rng.chance(0.3)),
                i,
            ),
        };
        next_seq[issuer] += 1;
        log.append(&record);
        if i % 4 == 3 {
            log.append(&record);
        }
    }
    assert_eq!(log.frames(), 250_000);
    let bytes = log.into_bytes();
    let mut group = c.benchmark_group("e13/log_replay");
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_function("250k_frames", |b| {
        b.iter(|| black_box(EvidenceLog::replay(black_box(&bytes)).expect("own log replays")))
    });
    group.finish();
}

fn bench_persistence(c: &mut Criterion) {
    let (grid, engine) = service_state(5_000, 50_000);
    let blob = snapshot_service(&grid, &engine);

    let mut group = c.benchmark_group("e13/persistence");
    group.throughput(Throughput::Bytes(blob.len() as u64));
    group.bench_function("snapshot", |b| {
        b.iter(|| black_box(snapshot_service(&grid, &engine)))
    });
    group.bench_function("restore", |b| {
        b.iter(|| {
            black_box(
                restore_service::<trustex_trust::beta::BetaTrust>(&blob)
                    .expect("own snapshot restores"),
            )
        })
    });
    group.finish();

    // The full experiment at smoke scale, as the registry runs it.
    let e13 = find("e13").expect("registered");
    c.bench_function("e13/experiment_smoke", |b| {
        b.iter(|| black_box((e13.run)(Scale::Smoke)))
    });
}

criterion_group!(benches, bench_crc32c, bench_log_replay, bench_persistence);
criterion_main!(benches);
