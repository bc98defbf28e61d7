//! Flit-level wormhole network-on-chip for SIRTM.
//!
//! A from-scratch model of the Centurion NoC described in the DATE 2020
//! paper (Fig. 2a): five-channel wormhole routers with a sixth Router
//! Configuration Access Port (RCAP), credit-based flow control over small
//! input buffers, dimension-ordered (XY) routing, and a deliberately
//! *basic* deadlock recovery (drop a head blocked for more than
//! [`DEADLOCK_TIMEOUT`] cycles, no guarantees) mirroring the hardware's.
//!
//! Routers expose the paper's **monitors** (per-task routing events and
//! internal deliveries, the latest application packet routed) and
//! **knobs** (local task register, opportunistic delivery, port enables)
//! — the surface the embedded social-insect intelligence senses and
//! actuates. RCAP commands set port enables and carry AIM register
//! writes.
//!
//! # Examples
//!
//! ```
//! use sirtm_noc::{Mesh, NodeId, PacketKind, RouterConfig};
//! use sirtm_taskgraph::{GridDims, TaskId};
//!
//! // The Centurion grid: 8×16 = 128 routers.
//! let mut mesh = Mesh::new(GridDims::new(8, 16), RouterConfig::default());
//! mesh.inject(NodeId::new(0), NodeId::new(127), TaskId::new(1), PacketKind::Data, 4);
//! while !mesh.is_idle() {
//!     mesh.step();
//! }
//! assert_eq!(mesh.stats().delivered, 1);
//! ```

pub mod buffer;
pub mod mesh;
pub mod packet;
pub mod router;
pub mod types;

pub use buffer::FlitBuffer;
pub use mesh::{Mesh, MeshStats};
pub use packet::{Flit, Packet, PacketId, PacketKind, RcapCommand};
pub use router::{
    InPort, OutPort, Router, RouterConfig, RouterMonitors, RouterSettings, DEADLOCK_TIMEOUT,
    REDIRECT_AGE,
};
pub use types::{Coord, Cycle, Direction, NodeId, Port};
