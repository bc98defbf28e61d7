//! Flit-level wormhole network-on-chip for SIRTM.
//!
//! A from-scratch model of the Centurion NoC described in the DATE 2020
//! paper (Fig. 2a): five-channel wormhole routers with a sixth Router
//! Configuration Access Port (RCAP), credit-based flow control over small
//! input buffers, dimension-ordered or minimal-adaptive routing, and a
//! deliberately *basic* deadlock recovery (timeout-and-drop, no
//! guarantees) mirroring the hardware's.
//!
//! Routers expose the paper's **monitors** (per-task routing events,
//! internal deliveries, blocked cycles, drops) and **knobs** (local task
//! register, routing mode, port enables, timeouts) — the surface the
//! embedded social-insect intelligence senses and actuates.
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
pub use packet::{Flit, Packet, PacketId, PacketKind, RcapCommand, RouteMode};
pub use router::{
    InPort, OutPort, Router, RouterConfig, RouterMonitors, RouterPlan, RouterSettings,
};
pub use types::{Coord, Cycle, Direction, NodeId, Port};
