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

/// A configuration command carried by a [`PacketKind::Config`] packet and
/// applied by the destination router's RCAP, or injected directly through
/// the platform's debug interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RcapCommand {
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

/// One flit on a link: a 4-byte handle naming its packet's slot in the
/// mesh's packet slab, plus head and tail bits. Wormhole switching moves
/// a packet as a head flit followed by `payload_flits` body flits; the
/// final flit (the head, if the payload is empty) is the tail and
/// releases the circuit. Only the slab holds the header, so moving a
/// flit moves four bytes.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Flit(u32);

impl Flit {
    const HEAD: u32 = 1 << 30;
    const TAIL: u32 = 1 << 31;
    /// The largest slot a handle can name.
    pub const MAX_SLOT: u32 = Self::HEAD - 1;
    /// Filler for buffer slots that hold no flit.
    pub(crate) const VACANT: Flit = Flit(0);

    /// Flit `k` of a packet of `wire` flits held in slab slot `slot`:
    /// flit 0 is the head and flit `wire - 1` the tail.
    ///
    /// # Panics
    ///
    /// Panics if `slot` exceeds [`Flit::MAX_SLOT`] or `k` is not below
    /// `wire`.
    pub fn of_packet(slot: u32, k: u32, wire: u32) -> Self {
        assert!(
            slot <= Self::MAX_SLOT && k < wire,
            "flit {k} of {wire} in slot {slot}"
        );
        let head = if k == 0 { Self::HEAD } else { 0 };
        let tail = if k + 1 == wire { Self::TAIL } else { 0 };
        Self(slot | head | tail)
    }

    /// The slab slot of the owning packet.
    pub fn slot(self) -> u32 {
        self.0 & Self::MAX_SLOT
    }

    /// Whether this flit releases the wormhole circuit.
    pub fn is_tail(self) -> bool {
        self.0 & Self::TAIL != 0
    }

    /// Whether this is a head flit.
    pub fn is_head(self) -> bool {
        self.0 & Self::HEAD != 0
    }
}

impl fmt::Debug for Flit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match (self.is_head(), self.is_tail()) {
            (true, true) => "head+tail",
            (true, false) => "head",
            (false, true) => "tail",
            (false, false) => "body",
        };
        write!(f, "Flit(s{} {kind})", self.slot())
    }
}

/// The headers of the packets inside one mesh, by slot. A slot is taken
/// at injection and counts the references to it: the packet's flits
/// still queued for injection or buffered in a router, plus one while a
/// router receives the packet at its internal port or discards it after
/// deadlock recovery (the head flit's reference becomes that hold). The
/// slot is freed when the count reaches zero: when the packet's last
/// flit leaves the fabric, or when a killed router discards the last of
/// it. A new packet takes the lowest free slot, so slot numbers depend
/// only on which packets are live at each injection, not on the order in
/// which a step freed the others.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct PacketSlab {
    packets: Vec<Packet>,
    refs: Vec<u16>,
    /// Free slots below `packets.len()`, as a bitset (bit `s % 64` of
    /// word `s / 64`).
    free: Vec<u64>,
}

impl PacketSlab {
    /// An empty slab with room for `n` packets before it reallocates.
    pub(crate) fn with_capacity(n: usize) -> Self {
        Self {
            packets: Vec::with_capacity(n),
            refs: Vec::with_capacity(n),
            free: Vec::with_capacity(n.div_ceil(64)),
        }
    }

    /// Stores `pkt`, counting one reference per wire flit.
    pub(crate) fn alloc(&mut self, pkt: Packet) -> u32 {
        let refs = pkt.wire_flits() as u16;
        match self.free.iter().position(|&w| w != 0) {
            Some(w) => {
                let bit = self.free[w].trailing_zeros();
                self.free[w] &= !(1 << bit);
                let slot = w as u32 * 64 + bit;
                self.packets[slot as usize] = pkt;
                self.refs[slot as usize] = refs;
                slot
            }
            None => {
                let slot = self.packets.len() as u32;
                assert!(slot <= Flit::MAX_SLOT, "packet slab full");
                self.packets.push(pkt);
                self.refs.push(refs);
                if slot.is_multiple_of(64) {
                    self.free.push(0);
                }
                slot
            }
        }
    }

    /// The packet in `slot`.
    pub(crate) fn get(&self, slot: u32) -> &Packet {
        debug_assert!(self.refs[slot as usize] > 0, "read of free slot {slot}");
        &self.packets[slot as usize]
    }

    /// Drops `n` references to `slot`, freeing it at zero.
    pub(crate) fn release(&mut self, slot: u32, n: u16) {
        let refs = &mut self.refs[slot as usize];
        *refs = refs.checked_sub(n).expect("slab reference underflow");
        if *refs == 0 {
            self.free[slot as usize / 64] |= 1 << (slot % 64);
        }
    }

    /// Slots holding a packet, ascending.
    pub(crate) fn live_slots(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.refs.len() as u32).filter(|&s| self.refs[s as usize] > 0)
    }
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

    fn flits_of(slot: u32, pkt: Packet) -> Vec<Flit> {
        let wire = pkt.wire_flits();
        (0..wire).map(|k| Flit::of_packet(slot, k, wire)).collect()
    }

    #[test]
    fn flit_expansion_single_flit_packet() {
        let flits = flits_of(3, packet(0));
        assert_eq!(flits.len(), 1);
        assert!(flits[0].is_head());
        assert!(flits[0].is_tail());
        assert_eq!(format!("{:?}", flits[0]), "Flit(s3 head+tail)");
    }

    #[test]
    fn flit_expansion_multi_flit_packet() {
        let flits = flits_of(Flit::MAX_SLOT, packet(3));
        assert_eq!(flits.len(), 4);
        assert!(flits[0].is_head() && !flits[0].is_tail());
        assert!(!flits[1].is_head() && !flits[1].is_tail());
        assert!(!flits[3].is_head() && flits[3].is_tail());
        assert!(flits.iter().all(|f| f.slot() == Flit::MAX_SLOT));
        assert_eq!(std::mem::size_of::<Flit>(), 4);
    }

    #[test]
    fn slab_frees_a_slot_when_its_last_reference_goes() {
        let mut slab = PacketSlab::default();
        let a = slab.alloc(packet(2)); // three flits
        let b = slab.alloc(packet(0));
        let c = slab.alloc(packet(0));
        assert_eq!((a, b, c), (0, 1, 2));
        // The head reaches its destination and its reference becomes the
        // receiver's hold; the body flit and then the tail arrive, and the
        // tail gives up its own reference and the hold.
        slab.release(a, 1);
        assert_eq!(slab.live_slots().collect::<Vec<_>>(), [0, 1, 2]);
        slab.release(a, 2);
        slab.release(c, 1);
        assert_eq!(slab.live_slots().collect::<Vec<_>>(), [1]);
        // The lowest free slot is reused first, whatever the free order.
        assert_eq!(slab.alloc(packet(1)), a);
        assert_eq!(slab.get(a).payload_flits, 1);
        assert_eq!(slab.alloc(packet(1)), c);
        assert_eq!(slab.alloc(packet(1)), 3);
    }

    #[test]
    fn packet_kind_classification() {
        assert!(PacketKind::Data.is_application());
        assert!(PacketKind::Ack.is_application());
        assert!(!PacketKind::Config(RcapCommand::AimWrite { reg: 0, value: 5 }).is_application());
    }

    #[test]
    fn display_forms() {
        assert_eq!(PacketId::new(3).to_string(), "p3");
        let text = packet(2).to_string();
        assert!(text.contains("p7"));
        assert!(text.contains("T1"));
    }
}
