//! E9 bench: cost of the O(n²) trust-metric sweep used by the
//! convergence experiment.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use trustex_agents::profile::PopulationMix;
use trustex_market::metrics::{accuracy_metrics, cooperation_truth};
use trustex_market::population::{Community, ModelKind};
use trustex_netsim::rng::SimRng;
use trustex_trust::model::{Conduct, PeerId};

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

fn bench_metrics(c: &mut Criterion) {
    let mut group = c.benchmark_group("e9/metrics");
    group.sample_size(10);
    for n in [50usize, 100, 200] {
        let community = educated_community(n);
        let truth = cooperation_truth(&community);
        group.bench_with_input(
            BenchmarkId::new("accuracy_metrics", n),
            &community,
            |b, community| b.iter(|| black_box(accuracy_metrics(community, &truth, 0))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_metrics);
criterion_main!(benches);
