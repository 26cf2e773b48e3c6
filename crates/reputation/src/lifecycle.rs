//! Membership lifecycle: paced admissions and stale-peer eviction.
//!
//! [`PGrid::join`] and [`PGrid::leave`] are mechanism; this module is
//! policy. A real overlay cannot admit an unbounded burst of newcomers
//! in one step (every join costs `O(depth)` meetings of existing
//! members' time) and must shed peers that silently vanish rather than
//! announce their departure. Following the bounded, reputation-aware
//! peer-list shape of the governor pattern (ADR-0008 in SNIPPETS.md),
//! [`Lifecycle`] keeps a FIFO of join tickets with exponential backoff,
//! admits at most a configured number per tick, and evicts live peers
//! whose last activity is older than a staleness horizon.
//!
//! The layer is deterministic: given the same grid, RNG and call
//! sequence it produces the same admissions and evictions, so e6 tables
//! built through it stay bit-identical across thread counts.

use crate::pgrid::PGrid;
use std::collections::VecDeque;
use trustex_netsim::rng::SimRng;

/// Pacing policy for joins and staleness-driven leaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LifecycleConfig {
    /// Newcomers admitted per tick at most.
    pub max_admissions_per_tick: usize,
    /// Backoff after a deferred admission attempt: the ticket waits
    /// `min(backoff_cap, backoff_base << (attempts - 1))` ticks before
    /// becoming eligible again.
    pub backoff_base: u64,
    /// Upper bound on the per-attempt backoff delay, in ticks.
    pub backoff_cap: u64,
    /// A live peer not [`Lifecycle::touch`]ed for more than this many
    /// ticks is evicted. `0` disables stale eviction.
    pub stale_after: u64,
    /// Stale peers evicted per tick at most.
    pub max_evictions_per_tick: usize,
}

impl Default for LifecycleConfig {
    fn default() -> Self {
        LifecycleConfig {
            max_admissions_per_tick: 8,
            backoff_base: 1,
            backoff_cap: 16,
            stale_after: 0,
            max_evictions_per_tick: 4,
        }
    }
}

/// The delay before a ticket's next admission attempt: exponential in
/// the attempt count, saturating into `backoff_cap` rather than
/// wrapping, and never less than one tick. The saturation arithmetic
/// (`2u64 << 63 == 0` would collapse late attempts to the minimum
/// delay) lives in the shared `trustex_netsim::backoff` helper, which
/// the fault-plane retry paths reuse.
fn backoff_delay(cfg: &LifecycleConfig, attempts: u32) -> u64 {
    trustex_netsim::backoff::backoff_delay(cfg.backoff_base, cfg.backoff_cap, attempts)
}

/// A queued join request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct JoinTicket {
    id: u64,
    attempts: u32,
    ready_at: u64,
}

/// What one [`Lifecycle::step`] did.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TickReport {
    /// The tick that just ran (1-based).
    pub tick: u64,
    /// Dense indices the grid assigned to this tick's admissions, in
    /// admission order.
    pub admitted: Vec<usize>,
    /// Tickets that were eligible but pushed past the admission budget
    /// into backoff.
    pub deferred: usize,
    /// Dense indices of live peers evicted as stale.
    pub evicted: Vec<usize>,
}

/// The admission/eviction state machine over a [`PGrid`].
#[derive(Debug, Clone)]
pub struct Lifecycle {
    cfg: LifecycleConfig,
    tick: u64,
    pending: VecDeque<JoinTicket>,
    next_ticket: u64,
    /// `last_seen[i]` = tick of peer `i`'s last activity (admission
    /// counts). Indexed like the grid's dense indices; peers that
    /// predate the lifecycle start at tick 0.
    last_seen: Vec<u64>,
}

impl Lifecycle {
    /// A lifecycle layer over a grid with `initial_peers` already
    /// admitted (use `grid.len()`).
    pub fn new(cfg: LifecycleConfig, initial_peers: usize) -> Lifecycle {
        Lifecycle {
            cfg,
            tick: 0,
            pending: VecDeque::new(),
            next_ticket: 0,
            last_seen: vec![0; initial_peers],
        }
    }

    /// Enqueues a join request; returns its ticket id. The newcomer is
    /// admitted by a later [`Lifecycle::step`], budget permitting.
    pub fn request_join(&mut self) -> u64 {
        let id = self.next_ticket;
        self.next_ticket += 1;
        self.pending.push_back(JoinTicket {
            id,
            attempts: 0,
            ready_at: self.tick,
        });
        id
    }

    /// Join requests waiting for admission.
    pub fn pending_joins(&self) -> usize {
        self.pending.len()
    }

    /// The current tick (number of completed [`Lifecycle::step`]s).
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Records activity for a live peer, resetting its staleness clock.
    ///
    /// # Panics
    ///
    /// Panics if `peer` is not an index this lifecycle has seen.
    pub fn touch(&mut self, peer: usize) {
        self.last_seen[peer] = self.tick;
    }

    /// Follows a [`PGrid::compact`] renumbering: `mapping` is compact's
    /// return value. Departed peers' activity clocks are dropped and the
    /// survivors' slide down to their new dense indices, so `touch` and
    /// stale eviction keep working against the compacted grid.
    ///
    /// # Panics
    ///
    /// Panics if `mapping` does not cover exactly the peers this
    /// lifecycle tracks.
    pub fn compacted(&mut self, mapping: &[Option<u32>]) {
        assert_eq!(
            mapping.len(),
            self.last_seen.len(),
            "mapping does not match the tracked population"
        );
        let mut write = 0usize;
        for (old, slot) in mapping.iter().enumerate() {
            if let Some(new) = *slot {
                debug_assert_eq!(new as usize, write, "compaction preserves order");
                self.last_seen[write] = self.last_seen[old];
                write += 1;
            }
        }
        self.last_seen.truncate(write);
    }

    /// Identity churn: `peer` leaves the overlay and immediately files
    /// a fresh join request, whose ticket id is returned. The departed
    /// index keeps its (dead) dense slot until the next
    /// [`PGrid::compact`]; the rejoining identity is admitted by a
    /// later [`Lifecycle::step`] like any other newcomer — paced,
    /// backed off, and with a cold staleness clock. This is the
    /// overlay-side counterpart of the market's whitewash sweep: the
    /// community forgets the peer because, structurally, a *different*
    /// peer comes back.
    ///
    /// # Panics
    ///
    /// Panics if `peer` is not live.
    pub fn whitewash(&mut self, grid: &mut PGrid, peer: usize) -> u64 {
        assert!(grid.is_live(peer), "whitewashing a dead peer");
        grid.leave(peer);
        self.request_join()
    }

    /// Runs one tick: admits eligible tickets up to the budget (backing
    /// off the rest), then evicts stale live peers up to the eviction
    /// budget. Eviction never drops the overlay below two live peers.
    pub fn step(&mut self, grid: &mut PGrid, rng: &mut SimRng) -> TickReport {
        self.tick += 1;
        let mut report = TickReport {
            tick: self.tick,
            ..TickReport::default()
        };

        // Admissions: sweep the FIFO once; eligible tickets within the
        // budget join, eligible tickets past it back off exponentially,
        // not-yet-ready tickets just rotate through.
        for _ in 0..self.pending.len() {
            let mut ticket = self.pending.pop_front().expect("queue non-empty");
            if ticket.ready_at > self.tick {
                self.pending.push_back(ticket);
                continue;
            }
            if report.admitted.len() < self.cfg.max_admissions_per_tick {
                let idx = grid.join(rng);
                debug_assert_eq!(idx, self.last_seen.len(), "grid and lifecycle out of step");
                self.last_seen.push(self.tick);
                report.admitted.push(idx);
            } else {
                ticket.attempts += 1;
                let delay = backoff_delay(&self.cfg, ticket.attempts);
                ticket.ready_at = self.tick.saturating_add(delay);
                report.deferred += 1;
                self.pending.push_back(ticket);
            }
        }

        // Stale eviction: oldest indices first, bounded per tick, never
        // below a routable population.
        if self.cfg.stale_after > 0 {
            for peer in 0..self.last_seen.len() {
                if report.evicted.len() >= self.cfg.max_evictions_per_tick || grid.live_len() <= 2 {
                    break;
                }
                if grid.is_live(peer)
                    && self.tick.saturating_sub(self.last_seen[peer]) > self.cfg.stale_after
                {
                    grid.leave(peer);
                    report.evicted.push(peer);
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pgrid::PGridConfig;

    fn grid(n: usize, seed: u64) -> (PGrid, SimRng) {
        let mut rng = SimRng::new(seed);
        let cfg = PGridConfig {
            max_depth: 3,
            ..PGridConfig::default()
        };
        (PGrid::build(n, cfg, &mut rng), rng)
    }

    #[test]
    fn admission_rate_is_bounded() {
        let (mut g, mut rng) = grid(32, 1);
        let cfg = LifecycleConfig {
            max_admissions_per_tick: 3,
            ..LifecycleConfig::default()
        };
        let mut lc = Lifecycle::new(cfg, g.len());
        for _ in 0..10 {
            lc.request_join();
        }
        let r1 = lc.step(&mut g, &mut rng);
        assert_eq!(r1.admitted.len(), 3);
        assert_eq!(r1.deferred, 7);
        assert_eq!(lc.pending_joins(), 7);
        // Deferred tickets backed off by one tick: round 2 admits the
        // next three.
        let r2 = lc.step(&mut g, &mut rng);
        assert_eq!(r2.admitted.len(), 3);
        // Drain the rest.
        let mut total = r1.admitted.len() + r2.admitted.len();
        for _ in 0..20 {
            total += lc.step(&mut g, &mut rng).admitted.len();
        }
        assert_eq!(total, 10);
        assert_eq!(lc.pending_joins(), 0);
        assert_eq!(g.live_len(), 42);
        g.check_invariants().expect("grid invariants");
    }

    #[test]
    fn backoff_schedule_is_exponential_and_capped() {
        let (mut g, mut rng) = grid(8, 2);
        let cfg = LifecycleConfig {
            max_admissions_per_tick: 0, // everything defers forever
            backoff_base: 2,
            backoff_cap: 8,
            ..LifecycleConfig::default()
        };
        let mut lc = Lifecycle::new(cfg, g.len());
        lc.request_join();
        // attempts=1 → delay 2, attempts=2 → 4, attempts=3 → 8,
        // attempts=4 → capped at 8.
        let mut deferred_at = Vec::new();
        for _ in 0..40 {
            let r = lc.step(&mut g, &mut rng);
            if r.deferred > 0 {
                deferred_at.push(r.tick);
            }
        }
        assert_eq!(deferred_at[0], 1);
        let gaps: Vec<u64> = deferred_at.windows(2).map(|w| w[1] - w[0]).collect();
        assert_eq!(&gaps[..4], &[2, 4, 8, 8], "backoff gaps: {gaps:?}");
        assert_eq!(g.live_len(), 8, "nothing admitted at zero budget");
    }

    #[test]
    fn backoff_saturates_at_the_cap_past_the_shift_width() {
        let cfg = LifecycleConfig {
            backoff_base: 2,
            backoff_cap: 8,
            ..LifecycleConfig::default()
        };
        assert_eq!(backoff_delay(&cfg, 1), 2);
        assert_eq!(backoff_delay(&cfg, 2), 4);
        assert_eq!(backoff_delay(&cfg, 3), 8);
        // `2u64 << 63 == 0`: a plain shift collapses the delay to the
        // one-tick minimum at attempt 64 and beyond; the saturating
        // shift must hold the cap instead.
        for attempts in [4u32, 63, 64, 65, 200, u32::MAX] {
            assert_eq!(backoff_delay(&cfg, attempts), 8, "attempts={attempts}");
        }
        let wide = LifecycleConfig {
            backoff_base: u64::MAX,
            backoff_cap: u64::MAX,
            ..LifecycleConfig::default()
        };
        assert_eq!(backoff_delay(&wide, 2), u64::MAX);
        // A zero base still waits the minimum one tick.
        let zero = LifecycleConfig {
            backoff_base: 0,
            backoff_cap: 8,
            ..LifecycleConfig::default()
        };
        assert_eq!(backoff_delay(&zero, 5), 1);
    }

    #[test]
    fn whitewash_churns_identity_through_leave_and_rejoin() {
        let (mut g, mut rng) = grid(16, 5);
        let mut lc = Lifecycle::new(LifecycleConfig::default(), g.len());
        lc.whitewash(&mut g, 3);
        assert!(!g.is_live(3), "the old identity is gone");
        assert_eq!(g.live_len(), 15);
        assert_eq!(lc.pending_joins(), 1);
        let r = lc.step(&mut g, &mut rng);
        assert_eq!(r.admitted.len(), 1);
        let fresh = r.admitted[0];
        assert_ne!(fresh, 3, "rejoin gets a fresh dense identity");
        assert!(g.is_live(fresh));
        assert_eq!(g.live_len(), 16);
        g.check_invariants().expect("grid invariants");
    }

    #[test]
    #[should_panic(expected = "whitewashing a dead peer")]
    fn whitewashing_a_dead_peer_panics() {
        let (mut g, _rng) = grid(8, 6);
        let mut lc = Lifecycle::new(LifecycleConfig::default(), g.len());
        g.leave(2);
        lc.whitewash(&mut g, 2);
    }

    #[test]
    fn stale_peers_are_evicted_but_touched_peers_survive() {
        let (mut g, mut rng) = grid(16, 3);
        let cfg = LifecycleConfig {
            stale_after: 2,
            max_evictions_per_tick: 2,
            ..LifecycleConfig::default()
        };
        let mut lc = Lifecycle::new(cfg, g.len());
        // Keep peers 10..16 fresh; 0..10 go stale after tick 2.
        for t in 0..6 {
            for p in 10..16 {
                lc.touch(p);
            }
            let r = lc.step(&mut g, &mut rng);
            if t < 2 {
                assert!(
                    r.evicted.is_empty(),
                    "too early to evict at tick {}",
                    r.tick
                );
            } else {
                assert_eq!(r.evicted.len(), 2, "bounded eviction per tick");
                assert!(r.evicted.iter().all(|&p| p < 10), "fresh peers survive");
            }
        }
        assert_eq!(g.live_len(), 16 - 4 * 2);
        assert!((10..16).all(|p| g.is_live(p)));
        g.check_invariants().expect("grid invariants");
    }

    #[test]
    fn eviction_never_empties_the_overlay() {
        let (mut g, mut rng) = grid(4, 4);
        let cfg = LifecycleConfig {
            stale_after: 1,
            max_evictions_per_tick: 8,
            ..LifecycleConfig::default()
        };
        let mut lc = Lifecycle::new(cfg, g.len());
        for _ in 0..10 {
            lc.step(&mut g, &mut rng);
        }
        assert_eq!(g.live_len(), 2, "floor of two live peers");
    }

    #[test]
    fn compacted_remaps_staleness_clocks() {
        let (mut g, mut rng) = grid(12, 9);
        let cfg = LifecycleConfig {
            stale_after: 2,
            max_evictions_per_tick: 12,
            ..LifecycleConfig::default()
        };
        let mut lc = Lifecycle::new(cfg, g.len());
        // Evict peers 0..4 directly; the rest stay fresh.
        for p in 0..4 {
            g.leave(p);
        }
        lc.compacted(&g.compact());
        assert_eq!(g.len(), 8);
        // The survivors' clocks moved down with them: touching through
        // the new indices keeps everyone alive through stale sweeps.
        for _ in 0..6 {
            for p in 0..g.len() {
                lc.touch(p);
            }
            let r = lc.step(&mut g, &mut rng);
            assert!(r.evicted.is_empty(), "fresh peers evicted: {r:?}");
        }
        assert_eq!(g.live_len(), 8);
        g.check_invariants().expect("grid invariants");
    }

    #[test]
    fn determinism_same_inputs_same_history() {
        let run = || {
            let (mut g, mut rng) = grid(24, 7);
            let cfg = LifecycleConfig {
                max_admissions_per_tick: 2,
                stale_after: 3,
                ..LifecycleConfig::default()
            };
            let mut lc = Lifecycle::new(cfg, g.len());
            let mut history = Vec::new();
            for t in 0..12u64 {
                if t % 2 == 0 {
                    lc.request_join();
                }
                for p in 0..8 {
                    lc.touch(p);
                }
                history.push(lc.step(&mut g, &mut rng));
            }
            (history, g.live_len())
        };
        assert_eq!(run(), run());
    }
}
