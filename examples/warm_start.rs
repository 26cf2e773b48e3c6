//! Warm start: snapshot a running trust service, crash it, restore it,
//! and prove the restored service is the same service.
//!
//! ```text
//! cargo run --release --example warm_start
//! ```

use trust_aware_cooperation::market::prelude::*;
use trust_aware_cooperation::netsim::net::{NetConfig, Network};
use trust_aware_cooperation::netsim::rng::SimRng;
use trust_aware_cooperation::persist::PersistError;
use trust_aware_cooperation::reputation::pgrid::{PGrid, PGridConfig};
use trust_aware_cooperation::reputation::record::key_for_peer;
use trust_aware_cooperation::trust::beta::BetaTrust;
use trust_aware_cooperation::trust::engine::{TrustEngine, TrustEvent};
use trust_aware_cooperation::trust::model::{Conduct, PeerId, TrustEstimate};

fn main() -> Result<(), PersistError> {
    // A modest service: a 2000-peer overlay and a beta-trust engine
    // with published evidence plus a pending mid-window delta.
    let n = 2_000;
    let mut rng = SimRng::new(42);
    let grid = PGrid::build(n, PGridConfig::for_population(n, 4), &mut rng);
    let engine = TrustEngine::new(BetaTrust::with_population(n));
    for i in 0..10_000u64 {
        let subject = PeerId((i % n as u64) as u32);
        let conduct = Conduct::from_honest(i % 7 != 0);
        engine.submit(i, TrustEvent::direct(subject, conduct, i));
        if i % 2_048 == 2_047 {
            engine.publish();
        }
    }
    println!(
        "live service: {} peers, {} leaves, engine epoch {}",
        grid.live_len(),
        grid.leaf_count(),
        engine.snapshot().epoch()
    );

    // Snapshot, "crash", restore.
    let blob = snapshot_service(&grid, &engine);
    println!("snapshot: {} bytes", blob.len());
    let (grid2, engine2) = restore_service::<BetaTrust>(&blob)?;

    // Re-verify: structural invariants, identical routes, identical
    // trust rows, identical bytes.
    grid2.check_invariants().expect("grid invariants");
    let mut net_a = Network::new(NetConfig::default());
    let mut net_b = Network::new(NetConfig::default());
    let mut rng_a = rng.clone();
    let mut rng_b = rng.clone();
    for probe in 0..200u32 {
        let key = key_for_peer(PeerId(probe * 37), grid.config().key_bits);
        assert_eq!(grid.responsible_peers(key), grid2.responsible_peers(key));
        let a = grid.route(0, key, None, &mut net_a, &mut rng_a);
        let b = grid2.route(0, key, None, &mut net_b, &mut rng_b);
        assert_eq!(a.map(|(p, h, _)| (p, h)), b.map(|(p, h, _)| (p, h)));
    }
    let mut live = vec![TrustEstimate::UNKNOWN; n];
    let mut back = vec![TrustEstimate::UNKNOWN; n];
    engine.snapshot().predict_row_into(&mut live);
    engine2.snapshot().predict_row_into(&mut back);
    assert!(live
        .iter()
        .zip(&back)
        .all(|(l, b)| l.p_honest == b.p_honest && l.confidence == b.confidence));
    assert_eq!(snapshot_service(&grid2, &engine2), blob);
    println!("restored service verified: routes, trust rows and bytes identical");

    // Crash recovery: every corruption class is a typed error.
    let mut torn = blob.clone();
    torn.truncate(blob.len() / 2);
    println!(
        "truncated tail  -> {}",
        restore_service::<BetaTrust>(&torn).unwrap_err()
    );
    let mut flipped = blob.clone();
    flipped[blob.len() / 3] ^= 0x08;
    println!(
        "bit flip        -> {}",
        restore_service::<BetaTrust>(&flipped).unwrap_err()
    );
    let mut future = blob.clone();
    future[4] = future[4].wrapping_add(1);
    println!(
        "future version  -> {}",
        restore_service::<BetaTrust>(&future).unwrap_err()
    );
    Ok(())
}
