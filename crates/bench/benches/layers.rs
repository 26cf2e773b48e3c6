//! Layer benches: one group per layer of the paper's Figure 1, each
//! timing one kernel on its own — the scheduler, the decision pipeline,
//! the trust models, P-Grid storage, persistence and the market loop.
//!
//! Whole experiments are timed by `repro --bench-out`, not here. Select
//! one layer with a positional filter:
//! `cargo bench -p trustex-bench --bench layers -- pgrid/`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use trustex_agents::adversary::zoo_mix;
use trustex_agents::profile::PopulationMix;
use trustex_core::curves::{generate, CurveParams, CurveShape};
use trustex_core::deal::Deal;
use trustex_core::execute::{execute, Honest};
use trustex_core::goods::{Goods, ItemId};
use trustex_core::money::Money;
use trustex_core::policy::PaymentPolicy;
use trustex_core::safety::SafetyMargins;
use trustex_core::scheduler::{
    branch_and_bound_order, min_required_margin, sandholm_order_scan, schedule, subset_dp_order,
    Algorithm, Scheduler,
};
use trustex_decision::engage::EngagementRule;
use trustex_decision::exposure::{exposure_bound, ExposurePolicy};
use trustex_decision::negotiate::{plan_exchange, PartyInputs};
use trustex_market::prelude::*;
use trustex_netsim::crc::crc32c;
use trustex_netsim::fault::{FaultConfig, PartitionSpec};
use trustex_netsim::net::{NetConfig, Network};
use trustex_netsim::rng::SimRng;
use trustex_netsim::time::SimTime;
use trustex_reputation::pgrid::{PGrid, PGridConfig};
use trustex_reputation::record::key_for_peer;
use trustex_trust::baselines::{EwmaTrust, MeanTrust};
use trustex_trust::beta::BetaTrust;
use trustex_trust::complaints::ComplaintTrust;
use trustex_trust::engine::{TrustEngine, TrustEvent};
use trustex_trust::evidence_log::{EvidenceLog, EvidenceRecord};
use trustex_trust::model::{Conduct, PeerId, TrustEstimate, TrustModel};

// ---------------------------------------------------------------- scheduler

/// `n` random goods (costs in `[0.5, 20)`, values in `[0.5, 30)`).
fn instance(n: usize, seed: u64) -> Goods {
    let mut rng = SimRng::new(seed);
    Goods::new(
        (0..n)
            .map(|_| {
                (
                    Money::from_f64(rng.range_f64(0.5, 20.0)),
                    Money::from_f64(rng.range_f64(0.5, 30.0)),
                )
            })
            .collect(),
    )
    .expect("non-empty")
}

fn wide_margins(goods: &Goods) -> SafetyMargins {
    SafetyMargins::new(
        goods.total_supplier_cost() + goods.total_consumer_value(),
        Money::ZERO,
    )
    .expect("non-negative")
}

/// Safe-sequence existence per valuation shape, then runtime scaling:
/// the allocation-free greedy hot path to `n = 10⁶`, the indexed
/// `O(n log n)` Sandholm to `n = 10⁵`, the original `O(n²)` scan while
/// affordable, the exact oracles at their differential-suite sizes,
/// and full verified scheduling (order + payments + verification).
fn scheduler(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler/min_required_margin");
    let mut rng = SimRng::new(1);
    for shape in CurveShape::ALL {
        let mut draw = || rng.f64();
        let params = CurveParams {
            n_items: 32,
            ..CurveParams::default()
        };
        let goods = generate(shape, params, &mut draw).expect("non-empty");
        group.bench_with_input(
            BenchmarkId::from_parameter(shape.label()),
            &goods,
            |b, goods| b.iter(|| black_box(min_required_margin(goods))),
        );
    }
    group.finish();

    let mut group = c.benchmark_group("scheduler/greedy");
    let mut sched = Scheduler::new();
    for n in [1024usize, 16_384, 65_536, 262_144, 1_000_000] {
        let goods = instance(n, 2);
        group.bench_with_input(BenchmarkId::from_parameter(n), &goods, |b, g| {
            b.iter(|| black_box(sched.min_required_margin(g)))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("scheduler/sandholm");
    let mut sched = Scheduler::new();
    let mut order: Vec<ItemId> = Vec::new();
    for n in [1024usize, 16_384, 100_000] {
        let goods = instance(n, 3);
        let margins = wide_margins(&goods);
        group.bench_with_input(BenchmarkId::from_parameter(n), &goods, |b, g| {
            b.iter(|| {
                sched
                    .sandholm_order_into(g, margins, &mut order)
                    .expect("feasible");
                black_box(order.len())
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("scheduler/sandholm_scan");
    for n in [256usize, 1024, 4096] {
        let goods = instance(n, 3);
        let margins = wide_margins(&goods);
        group.bench_with_input(BenchmarkId::from_parameter(n), &goods, |b, g| {
            b.iter(|| black_box(sandholm_order_scan(g, margins).expect("feasible")))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("scheduler/subset_dp");
    for n in [8usize, 12, 16, 20] {
        let goods = instance(n, 4);
        let margins = wide_margins(&goods);
        group.bench_with_input(BenchmarkId::from_parameter(n), &goods, |b, g| {
            b.iter(|| black_box(subset_dp_order(g, margins).expect("size ok")))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("scheduler/bnb");
    for n in [16usize, 24, 30] {
        let goods = instance(n, 4);
        // The exact feasibility boundary, where the search actually
        // branches (wide margins hit the root completion bound).
        let req = min_required_margin(&goods);
        let margins = SafetyMargins::new(req, Money::ZERO).expect("non-negative");
        group.bench_with_input(BenchmarkId::from_parameter(n), &goods, |b, g| {
            b.iter(|| black_box(branch_and_bound_order(g, margins).expect("size ok")))
        });
    }
    group.finish();

    // Per workload under the lazy policy, then per payment policy on
    // one file-sharing deal; all at surplus-wide margins.
    let mut cases: Vec<(String, Deal, PaymentPolicy)> = Workload::ALL
        .into_iter()
        .map(|w| {
            let deal = w.generate_deal(&mut SimRng::new(5));
            (format!("workload/{}", w.label()), deal, PaymentPolicy::Lazy)
        })
        .collect();
    let deal = Workload::FileSharing.generate_deal(&mut SimRng::new(14));
    for policy in PaymentPolicy::ALL {
        cases.push((format!("policy/{}", policy.label()), deal.clone(), policy));
    }
    let mut group = c.benchmark_group("scheduler/schedule_verified");
    for (label, deal, policy) in &cases {
        let margins = SafetyMargins::symmetric(deal.goods().total_surplus()).expect("non-negative");
        group.bench_with_input(BenchmarkId::from_parameter(label), deal, |b, deal| {
            b.iter(|| {
                black_box(
                    schedule(deal, margins, *policy, Algorithm::Greedy)
                        .expect("feasible at surplus-wide margins"),
                )
            })
        });
    }
    group.finish();
}

// ----------------------------------------------------------------- decision

/// First deal of the workload stream that trusted parties can trade —
/// some teamwork bundles need more margin than even high trust grants,
/// and the bench needs uniform per-iteration work anyway.
fn tradeable_deal(w: Workload, trusted: TrustEstimate) -> Deal {
    let mut rng = SimRng::new(12);
    loop {
        let deal = w.generate_deal(&mut rng);
        if plan(
            Strategy::TrustAware,
            &deal,
            trusted,
            trusted,
            PaymentPolicy::Lazy,
        )
        .is_ok()
        {
            return deal;
        }
    }
}

/// The decision pipeline: an exposure bound, full bilateral planning,
/// and a complete exchange session (plan + execute) per workload.
fn decision(c: &mut Criterion) {
    let policy = ExposurePolicy::with_cap(Money::from_units(1_000));
    let est = TrustEstimate::new(0.9, 0.8);
    c.bench_function("decision/exposure_bound", |b| {
        b.iter(|| black_box(exposure_bound(est, Money::from_units(100), policy)))
    });

    let deal = Workload::Ebay.generate_deal(&mut SimRng::new(11));
    let inputs = PartyInputs {
        trust_in_opponent: TrustEstimate::new(0.95, 0.9),
        exposure: ExposurePolicy::with_cap(deal.price()),
        engagement: EngagementRule::default(),
    };
    c.bench_function("decision/plan_exchange", |b| {
        b.iter(|| black_box(plan_exchange(&deal, inputs, inputs, PaymentPolicy::Lazy)))
    });

    let mut group = c.benchmark_group("decision/session");
    let trusted = TrustEstimate::new(0.95, 0.9);
    for w in Workload::ALL {
        let deal = tradeable_deal(w, trusted);
        group.bench_with_input(BenchmarkId::from_parameter(w.label()), &deal, |b, deal| {
            b.iter(|| {
                let seq = plan(
                    Strategy::TrustAware,
                    deal,
                    trusted,
                    trusted,
                    PaymentPolicy::Lazy,
                )
                .expect("pre-selected tradeable deal");
                black_box(execute(deal, &seq, &mut Honest, &mut Honest))
            })
        });
    }
    group.finish();
}

// -------------------------------------------------------------------- trust

/// A model with 20 rounds of direct evidence on each of 100 subjects.
fn loaded<M: TrustModel>(mut model: M) -> M {
    for subject in 0..100u32 {
        for round in 0..20u64 {
            model.record_direct(
                PeerId(subject),
                Conduct::from_honest(subject % 3 != 0),
                round,
            );
        }
    }
    model
}

/// A community whose every member has met every other once.
fn educated_community(n: usize) -> Community {
    let mut rng = SimRng::new(13);
    let mut c = Community::new(
        n,
        &PopulationMix::standard(0.3, 0.0),
        ModelKind::Beta,
        &mut rng,
    );
    let ids: Vec<PeerId> = c.agent_ids().collect();
    for &e in &ids {
        for &s in &ids {
            if e != s {
                c.record_direct(e, s, Conduct::from_honest(c.is_honest(s)), 0);
            }
        }
    }
    c
}

/// Trust-model updates and predictions: point predicts against the
/// batched row sweep the accuracy metrics run on (the complaint
/// model's median amortization shows up there most starkly), the
/// O(n²) accuracy sweep itself, and the service replay loop —
/// interleaved query/feedback streams through the epoch-swapped engine.
fn trust(c: &mut Criterion) {
    let mut group = c.benchmark_group("trust/record_direct");
    group.bench_function("beta", |b| {
        let mut m = loaded(BetaTrust::new());
        let mut round = 0u64;
        b.iter(|| {
            round += 1;
            m.record_direct(PeerId(7), Conduct::Honest, round);
        })
    });
    group.bench_function("complaints", |b| {
        let mut m = loaded(ComplaintTrust::new());
        let mut round = 0u64;
        b.iter(|| {
            round += 1;
            m.record_direct(PeerId(7), Conduct::Dishonest, round);
        })
    });
    group.finish();

    let beta = loaded(BetaTrust::new());
    let complaints = loaded(ComplaintTrust::new());
    let mean = loaded(MeanTrust::new());
    let ewma = loaded(EwmaTrust::default());
    let point: [(&str, &dyn TrustModel); 4] = [
        ("beta", &beta),
        ("complaints", &complaints),
        ("mean", &mean),
        ("ewma", &ewma),
    ];
    let subjects: Vec<PeerId> = (0..100u32).map(PeerId).collect();
    let mut group = c.benchmark_group("trust/predict");
    for (label, model) in point {
        group.bench_with_input(BenchmarkId::from_parameter(label), &model, |b, model| {
            b.iter(|| {
                for s in &subjects {
                    black_box(model.predict(*s));
                }
            })
        });
    }
    group.finish();

    let beta = loaded(BetaTrust::with_population(100));
    let complaints = loaded(ComplaintTrust::with_population(100));
    let mean = loaded(MeanTrust::with_population(100));
    let ewma = loaded(EwmaTrust::with_population(0.2, 100));
    let dense: [(&str, &dyn TrustModel); 4] = [
        ("beta", &beta),
        ("complaints", &complaints),
        ("mean", &mean),
        ("ewma", &ewma),
    ];
    let mut group = c.benchmark_group("trust/predict_row_into");
    for (label, model) in dense {
        group.bench_with_input(BenchmarkId::from_parameter(label), &model, |b, model| {
            let mut row = vec![TrustEstimate::UNKNOWN; 100];
            b.iter(|| {
                model.predict_row_into(&mut row);
                black_box(row.last());
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("trust/accuracy_metrics");
    for n in [50usize, 100, 200] {
        let community = educated_community(n);
        let truth = cooperation_truth(&community);
        group.bench_with_input(
            BenchmarkId::from_parameter(n),
            &community,
            |b, community| b.iter(|| black_box(accuracy_metrics(community, &truth, 0))),
        );
    }
    group.finish();

    let mut group = c.benchmark_group("trust/replay");
    for model in ModelKind::ALL {
        let cfg = ReplayConfig {
            n_peers: 200,
            events: 20_000,
            window: 1_000,
            model,
            threads: 1,
            ..ReplayConfig::default()
        };
        group.bench_with_input(
            BenchmarkId::from_parameter(model.label()),
            &cfg,
            |b, cfg| b.iter(|| black_box(replay(cfg))),
        );
    }
    group.finish();
}

// -------------------------------------------------------------------- pgrid

/// P-Grid construction, query routing and admission across sizes.
fn pgrid(c: &mut Criterion) {
    let mut group = c.benchmark_group("pgrid/build");
    for n in [64usize, 256, 1024, 4096] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut rng = SimRng::new(9);
                black_box(PGrid::build(n, PGridConfig::for_population(n, 4), &mut rng))
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("pgrid/query");
    // 16384 exercises the leaf directory at depth 12 — a query there
    // was O(n) per replica-group resolution before the index.
    for n in [64usize, 256, 1024, 16384] {
        let mut rng = SimRng::new(10);
        let grid = PGrid::build(n, PGridConfig::for_population(n, 4), &mut rng);
        let mut net = Network::new(NetConfig::default());
        group.bench_with_input(BenchmarkId::from_parameter(n), &grid, |b, grid| {
            let mut i = 0u32;
            b.iter(|| {
                i = i.wrapping_add(1);
                let key = key_for_peer(PeerId(i), grid.config().key_bits);
                black_box(grid.query((i as usize) % grid.len(), key, None, &mut net, &mut rng))
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("pgrid/join");
    // One admission: subtree-sampled descent + replica handoff. The
    // subtree-count walk keeps this O(depth), so the cost should stay
    // flat as the population grows.
    for n in [256usize, 4096, 65536] {
        let mut rng = SimRng::new(11);
        let grid = PGrid::build(n, PGridConfig::for_population(n, 4), &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(n), &grid, |b, grid| {
            // One clone per measurement, then successive admissions into
            // the same overlay — each iteration is one join.
            let mut g = grid.clone();
            b.iter(|| black_box(g.join(&mut rng)))
        });
    }
    group.finish();
}

// ------------------------------------------------------------------ persist

/// A 5 000-peer grid plus a beta engine fed 50 000 events.
fn service_state(n: usize, events: usize) -> (PGrid, TrustEngine<BetaTrust>) {
    let mut rng = SimRng::new(0xE13);
    let grid = PGrid::build(n, PGridConfig::for_population(n, 4), &mut rng);
    let engine = TrustEngine::new(BetaTrust::with_population(n));
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

/// The CRC-32C kernel that frames every section and log record (over
/// one snapshot-sized buffer and a run of ~30-byte frames), the
/// evidence-log replay, and the composite service snapshot/restore.
fn persist(c: &mut Criterion) {
    let mut rng = SimRng::new(0xC5C);
    let buf: Vec<u8> = (0..1 << 20).map(|_| rng.index(256) as u8).collect();
    let mut group = c.benchmark_group("persist/crc32c");
    group.bench_function("1MiB", |b| b.iter(|| black_box(crc32c(black_box(&buf)))));
    let frames = &buf[..2_000 * 30];
    group.bench_function("2000x30B", |b| {
        b.iter(|| {
            frames
                .chunks_exact(30)
                .fold(0u32, |acc, frame| acc ^ crc32c(black_box(frame)))
        })
    });
    group.finish();

    // 250 000 frames from 1000 issuers, every fourth frame re-sent (a
    // gossip retry), checked, deduplicated on `(issuer, seq)` and decoded.
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
    c.bench_function("persist/log_replay/250k_frames", |b| {
        b.iter(|| black_box(EvidenceLog::replay(black_box(&bytes)).expect("own log replays")))
    });

    let (grid, engine) = service_state(5_000, 50_000);
    let blob = snapshot_service(&grid, &engine);
    c.bench_function("persist/snapshot", |b| {
        b.iter(|| black_box(snapshot_service(&grid, &engine)))
    });
    c.bench_function("persist/restore", |b| {
        b.iter(|| black_box(restore_service::<BetaTrust>(&blob).expect("own snapshot restores")))
    });
}

// ------------------------------------------------------------------- market

/// One market arm — the unit the e11 frontier and the e14 sweep fan
/// across the pool: a coordinated-attack zoo run per trust model (full
/// zoo, maximum coordination, defenses on), and a chaos run (5% loss,
/// 1% duplication, a bisect partition healing mid-run) with the
/// defenses off and on, which exercises the whole fault stack.
fn market(c: &mut Criterion) {
    let base = MarketConfig {
        n_agents: 60,
        rounds: 8,
        sessions_per_round: 60,
        workload: Workload::FileSharing,
        threads: 1,
        ..MarketConfig::default()
    };
    let mut arms: Vec<(String, MarketConfig)> = ModelKind::ALL
        .into_iter()
        .map(|model| {
            let cfg = MarketConfig {
                mix: zoo_mix(0.3, 1.0),
                model,
                defense: DefenseConfig {
                    scorer_weighted: true,
                    report_rate_cap: Some(8),
                },
                seed: 17,
                ..base.clone()
            };
            (format!("zoo/{}", model.label()), cfg)
        })
        .collect();
    let heal_at = SimTime::from_micros(base.rounds / 2 * ROUND_SPAN.as_micros());
    for (posture, defended) in [("undefended", false), ("defended", true)] {
        let chaos = ChaosConfig {
            fault: FaultConfig {
                loss: 0.05,
                duplicate: 0.01,
                extra_delay_max_us: 0,
                partition: PartitionSpec::Bisect { heal_at },
            },
            retry: defended,
            degrade: defended,
        };
        let cfg = MarketConfig {
            mix: PopulationMix::standard(0.3, 0.25),
            chaos: Some(chaos),
            seed: 0xE14,
            ..base.clone()
        };
        arms.push((format!("chaos/{posture}"), cfg));
    }
    let mut group = c.benchmark_group("market/run");
    for (label, cfg) in &arms {
        group.bench_with_input(BenchmarkId::from_parameter(label), cfg, |b, cfg| {
            b.iter(|| black_box(MarketSim::new(cfg.clone()).run()))
        });
    }
    group.finish();
}

criterion_group!(benches, scheduler, decision, trust, pgrid, persist, market);
criterion_main!(benches);
