//! # trustex-market — the end-to-end community simulation
//!
//! Everything above the individual exchange: populations of behavioural
//! agents ([`population`]), deal workloads from the paper's three
//! application scenarios ([`workload`]), scheduling strategies from
//! fully-safe to trust-aware to naive ([`strategy`]), the round-based
//! market loop closing the reference model's feedback cycle ([`sim`]),
//! accuracy/welfare metrics ([`metrics`]), the service replay driver
//! against the epoch-swapped trust engine ([`replay`]) and the full
//! experiment suite E0–E12 — including the adversary-zoo robustness
//! frontier E11 and the latency-shaped E12 — ([`experiments`]) with
//! text-table rendering ([`table`]).
//!
//! ```
//! use trustex_market::prelude::*;
//!
//! let cfg = MarketConfig {
//!     n_agents: 30,
//!     rounds: 4,
//!     sessions_per_round: 20,
//!     ..MarketConfig::default()
//! };
//! let report = MarketSim::new(cfg).run();
//! assert_eq!(report.sessions, 80);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod metrics;
pub mod persistence;
pub mod population;
pub mod replay;
pub mod sim;
pub mod strategy;
pub mod table;
pub mod workload;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::experiments::{find as find_experiment, Experiment, Scale, ALL as EXPERIMENTS};
    pub use crate::metrics::{accuracy_metrics, cooperation_truth, AccuracyMetrics};
    pub use crate::persistence::{restore_service, snapshot_service, SERVICE_MAGIC};
    pub use crate::population::{AnyModel, Community, CommunitySnapshot, DefenseConfig, ModelKind};
    pub use crate::replay::{replay, ReplayCheck, ReplayConfig, ReplayReport};
    pub use crate::sim::{
        ChaosConfig, MarketConfig, MarketReport, MarketSim, RoundStats, ROUND_SPAN,
    };
    pub use crate::strategy::{plan, NoTrade, Strategy};
    pub use crate::table::{Cell, Table};
    pub use crate::workload::Workload;
}
