//! Social insect-inspired embedded intelligence for many-core runtime
//! management — the primary contribution of the DATE 2020 paper.
//!
//! Large social insect colonies allocate work with no central controller:
//! each individual makes stimulus–threshold decisions from local cues, and
//! colony-level task allocation, load balancing and fault tolerance
//! *emerge*. This crate embeds that decision-making into every node of a
//! many-core system:
//!
//! * [`io`] — the monitor/knob surface ([`io::AimIo`]) between a node's
//!   intelligence and its router/processing element,
//! * [`stimulus`] — impulse counters with thresholds, and timeout timers
//!   (the sense-react primitives of Fig. 2b the models are built from),
//! * [`models`] — the task-allocation models: **Network Interaction**,
//!   **Foraging for Work**, the adaptive extensions (self-reinforcement,
//!   social inhibition) and the ODE reference colony,
//! * [`firmware`] — the same models as PicoBlaze firmware, bridged to the
//!   node through a memory-mapped port space and differentially tested
//!   against the behavioural implementations.
//!
//! A platform runs one model on every node, picked by a
//! [`models::ModelKind`]; each node holds the [`models::Model`] it builds,
//! the No-Intelligence baseline's being the passive one.
//!
//! # Examples
//!
//! ```
//! use sirtm_core::io::{AimIo, MockAimIo};
//! use sirtm_core::models::{ModelKind, NiConfig};
//! use sirtm_taskgraph::TaskId;
//!
//! // Build a Network Interaction AIM and feed it a routed-packet stream.
//! let mut model = ModelKind::NetworkInteraction(NiConfig {
//!     threshold: 8,
//!     fixation_scans: 0, // decide immediately for the example
//!     ..NiConfig::default()
//! })
//! .build(3);
//! let mut io = MockAimIo::new(3);
//! io.routed = vec![0, 10, 0];
//! model.scan(&mut io);
//! assert_eq!(io.local, Some(TaskId::new(1)));
//! ```

pub mod firmware;
pub mod io;
pub mod models;
pub mod stimulus;

pub use firmware::FirmwareModel;
pub use io::{AimIo, MockAimIo};
pub use models::{FfwConfig, ForagingForWork, Model, ModelKind, NetworkInteraction, NiConfig};
pub use stimulus::{ThresholdUnit, TimeoutTimer};
