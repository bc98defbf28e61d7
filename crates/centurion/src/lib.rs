//! Cycle-level model of the **Centurion** many-core experimentation
//! platform (§III of the DATE 2020 paper).
//!
//! Centurion-V6 is a 128-node (8×16) grid on a Virtex-6 FPGA: each node
//! couples a MicroBlaze-MCS processing element, a 5-channel wormhole
//! router with an RCAP configuration port, and a PicoBlaze-based
//! Artificial Intelligence Module. This crate assembles the SIRTM
//! equivalents — [`sirtm_noc`] routers, [`crate::pe`] processing
//! elements, [`sirtm_core`] intelligence models and the neighbour-gossip
//! task [`directory`] — into a deterministic cycle-stepped [`Platform`].
//! The paper's experiment controller is the platform's own API: in-band
//! RCAP packets ([`Platform::send_config`]) and the out-of-band debug
//! interface ([`Platform::apply_config_direct`],
//! [`Platform::node_snapshot`], [`Platform::kill_pe`]).
//!
//! # Examples
//!
//! ```
//! use sirtm_centurion::{Platform, PlatformConfig};
//! use sirtm_core::models::ModelKind;
//! use sirtm_taskgraph::{workloads, Mapping};
//!
//! let cfg = PlatformConfig::default(); // the 128-node Centurion grid
//! let graph = workloads::fork_join(&workloads::ForkJoinParams::default());
//! let mapping = Mapping::heuristic(&graph, cfg.dims);
//! let mut platform = Platform::new(graph, &mapping, &ModelKind::NoIntelligence, cfg);
//! platform.run_ms(20.0);
//! assert_eq!(platform.alive_count(), 128);
//! ```

pub mod config;
pub mod directory;
pub mod pe;
pub mod platform;
pub mod render;

pub use config::{
    PlatformConfig, AIM_PERIOD, FEED_GAIN_MULTIPLIER, FOREIGN_CAP, FREQ_RANGE_MHZ, GOSSIP_PERIOD,
    MAX_BOUNCES, NOMINAL_MHZ, QUEUE_CAP, RECENT_DEMAND_WINDOW,
};
pub use directory::{DirEntry, Directory, Gossip};
pub use pe::{Accept, PeStats, ProcessingElement};
pub use platform::{NodeSnapshot, Platform, PlatformStats};
