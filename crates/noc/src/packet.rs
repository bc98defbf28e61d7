//! Packets, flits and router configuration commands.

use std::fmt;

use sirtm_taskgraph::TaskId;

use crate::types::{Cycle, NodeId, Port};

/// Unique packet identifier (assigned by the fabric at injection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId(u64);

impl PacketId {
    /// Creates a packet id from a raw counter value.
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// The raw counter value.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Routing behaviour selector (a router knob, switchable via RCAP).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RouteMode {
    /// Dimension-ordered X-then-Y routing. Deadlock-free on a mesh.
    #[default]
    Xy,
    /// Y-then-X routing. Also deadlock-free; useful for ablations.
    Yx,
    /// Minimal-adaptive: prefers the X direction but detours to a
    /// productive Y output when X is blocked. *Not* deadlock-free — this is
    /// what the paper's "basic deadlock recovery mechanism" is for.
    Adaptive,
}

impl fmt::Display for RouteMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RouteMode::Xy => "XY",
            RouteMode::Yx => "YX",
            RouteMode::Adaptive => "adaptive",
        };
        f.write_str(s)
    }
}

/// A configuration command carried by a [`PacketKind::Config`] packet and
/// applied by the destination router's RCAP, or injected directly through
/// the platform's debug interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RcapCommand {
    /// Set the head-of-line blocking timeout for deadlock recovery.
    SetDeadlockTimeout(Cycle),
    /// Set the age after which packets may be absorbed by any node whose
    /// task matches (task-affine opportunistic delivery).
    SetRedirectAge(Cycle),
    /// Enable or disable opportunistic delivery altogether.
    SetOpportunisticDelivery(bool),
    /// Switch routing mode.
    SetRouteMode(RouteMode),
    /// Enable or disable one port (link fault model / power gating).
    SetPortEnabled(Port, bool),
    /// Write an AIM register. Routers do not interpret this: the command is
    /// queued for the platform, which owns the AIM (Fig. 2a shows the AIM
    /// configured through the same RCAP path).
    AimWrite {
        /// AIM register index.
        reg: u8,
        /// Value to write.
        value: u8,
    },
}

/// Payload class of a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// Application dataflow along a task-graph data edge.
    Data,
    /// Feedback/acknowledge traffic (the fork-join in-tree phase).
    Ack,
    /// Router/AIM configuration, consumed by the destination RCAP.
    Config(RcapCommand),
}

impl PacketKind {
    /// Returns `true` for application traffic (data or ack).
    pub fn is_application(self) -> bool {
        matches!(self, PacketKind::Data | PacketKind::Ack)
    }
}

/// A packet header. The payload body is abstract: only its length in flits
/// matters to the network.
///
/// Packets are *task-addressed* at the application level (the `task` field
/// names the destination task, and is what router monitors report to the
/// AIM) but carry a concrete destination node resolved by the sender from
/// its gossip directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Packet {
    /// Unique id, assigned at injection.
    pub id: PacketId,
    /// Source node.
    pub src: NodeId,
    /// Destination node (resolved instance of `task`).
    pub dest: NodeId,
    /// Destination task this packet carries work for.
    pub task: TaskId,
    /// Payload class.
    pub kind: PacketKind,
    /// Payload length in flits (the head flit is extra).
    pub payload_flits: u8,
    /// Injection cycle (used for age-based redirect and latency stats).
    /// Preserved across re-injections so age keeps accumulating.
    pub created_cycle: Cycle,
    /// Times this packet has been re-injected after a mis-delivery
    /// (bounced between nodes chasing a moving task instance).
    pub bounces: u8,
}

impl Packet {
    /// Total number of flits on the wire: one head flit plus the payload.
    pub fn wire_flits(&self) -> u32 {
        1 + self.payload_flits as u32
    }

    /// Age of the packet at `now`.
    pub fn age(&self, now: Cycle) -> Cycle {
        now.saturating_sub(self.created_cycle)
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}→{} task={} ({:?}, {} flits)",
            self.id,
            self.src,
            self.dest,
            self.task,
            self.kind,
            self.wire_flits()
        )
    }
}

/// One flit on a link. Wormhole switching moves packets as a head flit
/// followed by `payload_flits` body flits; the final flit (head if the
/// payload is empty) is flagged as the tail and releases the circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flit {
    /// Leading flit carrying the full header.
    Head {
        /// The packet header.
        pkt: Packet,
        /// `true` when the packet is a single flit (head == tail).
        is_tail: bool,
    },
    /// Payload flit.
    Body {
        /// Owning packet.
        id: PacketId,
        /// `true` for the final flit of the packet.
        is_tail: bool,
    },
}

impl Flit {
    /// The owning packet id.
    pub fn packet_id(&self) -> PacketId {
        match self {
            Flit::Head { pkt, .. } => pkt.id,
            Flit::Body { id, .. } => *id,
        }
    }

    /// Whether this flit releases the wormhole circuit.
    pub fn is_tail(&self) -> bool {
        match self {
            Flit::Head { is_tail, .. } | Flit::Body { is_tail, .. } => *is_tail,
        }
    }

    /// Whether this is a head flit.
    pub fn is_head(&self) -> bool {
        matches!(self, Flit::Head { .. })
    }
}

/// Expands a packet into its wire flits (head first).
pub fn flits_of(pkt: Packet) -> impl Iterator<Item = Flit> {
    let body = pkt.payload_flits;
    std::iter::once(Flit::Head {
        pkt,
        is_tail: body == 0,
    })
    .chain((0..body).map(move |i| Flit::Body {
        id: pkt.id,
        is_tail: i + 1 == body,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet(payload: u8) -> Packet {
        Packet {
            id: PacketId::new(7),
            src: NodeId::new(0),
            dest: NodeId::new(5),
            task: TaskId::new(1),
            kind: PacketKind::Data,
            payload_flits: payload,
            created_cycle: 100,
            bounces: 0,
        }
    }

    #[test]
    fn wire_flits_counts_head() {
        assert_eq!(packet(0).wire_flits(), 1);
        assert_eq!(packet(4).wire_flits(), 5);
    }

    #[test]
    fn age_saturates() {
        let p = packet(0);
        assert_eq!(p.age(100), 0);
        assert_eq!(p.age(150), 50);
        assert_eq!(p.age(0), 0, "clock before creation saturates to 0");
    }

    #[test]
    fn flit_expansion_single_flit_packet() {
        let flits: Vec<Flit> = flits_of(packet(0)).collect();
        assert_eq!(flits.len(), 1);
        assert!(flits[0].is_head());
        assert!(flits[0].is_tail());
    }

    #[test]
    fn flit_expansion_multi_flit_packet() {
        let flits: Vec<Flit> = flits_of(packet(3)).collect();
        assert_eq!(flits.len(), 4);
        assert!(flits[0].is_head() && !flits[0].is_tail());
        assert!(!flits[1].is_head() && !flits[1].is_tail());
        assert!(flits[3].is_tail());
        assert!(flits.iter().all(|f| f.packet_id() == PacketId::new(7)));
    }

    #[test]
    fn packet_kind_classification() {
        assert!(PacketKind::Data.is_application());
        assert!(PacketKind::Ack.is_application());
        assert!(!PacketKind::Config(RcapCommand::SetRedirectAge(5)).is_application());
    }

    #[test]
    fn display_forms() {
        assert_eq!(PacketId::new(3).to_string(), "p3");
        assert_eq!(RouteMode::Adaptive.to_string(), "adaptive");
        let text = packet(2).to_string();
        assert!(text.contains("p7"));
        assert!(text.contains("T1"));
    }
}
