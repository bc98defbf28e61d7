//! Fixed-capacity flit FIFOs modelling router input buffers.

use std::collections::VecDeque;

use crate::packet::Flit;

/// A bounded FIFO of flits, as found at each router input port.
///
/// The Centurion router uses wormhole switching specifically to keep these
/// buffers small; the default depth is 4 flits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlitBuffer {
    queue: VecDeque<Flit>,
    capacity: usize,
}

impl FlitBuffer {
    /// Creates a buffer holding at most `capacity` flits.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "buffer capacity must be non-zero");
        Self {
            queue: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// Maximum number of flits.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// `true` if no flits are buffered.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// `true` if another flit cannot be accepted.
    pub fn is_full(&self) -> bool {
        self.queue.len() >= self.capacity
    }

    /// Free slots remaining.
    pub fn free(&self) -> usize {
        self.capacity - self.queue.len()
    }

    /// Pushes a flit.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is full — callers must check credits first;
    /// overrunning a buffer would be a flow-control bug in the simulator.
    pub fn push(&mut self, flit: Flit) {
        assert!(!self.is_full(), "flit buffer overrun (flow-control bug)");
        self.queue.push_back(flit);
    }

    /// The head-of-line flit, if any.
    pub fn head(&self) -> Option<&Flit> {
        self.queue.front()
    }

    /// Removes and returns the head-of-line flit.
    pub fn pop(&mut self) -> Option<Flit> {
        self.queue.pop_front()
    }

    /// Iterates over buffered flits from head to tail.
    pub fn iter(&self) -> impl Iterator<Item = &Flit> {
        self.queue.iter()
    }

    /// Drops all buffered flits (used on router-dead faults).
    pub fn clear(&mut self) {
        self.queue.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Flit, PacketId};

    fn body(i: u64) -> Flit {
        Flit::Body {
            id: PacketId::new(i),
            is_tail: false,
        }
    }

    #[test]
    fn fifo_order() {
        let mut b = FlitBuffer::new(3);
        b.push(body(1));
        b.push(body(2));
        assert_eq!(b.len(), 2);
        assert_eq!(b.pop().map(|f| f.packet_id()), Some(PacketId::new(1)));
        assert_eq!(b.pop().map(|f| f.packet_id()), Some(PacketId::new(2)));
        assert!(b.pop().is_none());
    }

    #[test]
    fn capacity_accounting() {
        let mut b = FlitBuffer::new(2);
        assert_eq!(b.free(), 2);
        assert!(!b.is_full());
        b.push(body(1));
        assert_eq!(b.free(), 1);
        b.push(body(2));
        assert!(b.is_full());
        assert_eq!(b.free(), 0);
    }

    #[test]
    #[should_panic(expected = "overrun")]
    fn overrun_panics() {
        let mut b = FlitBuffer::new(1);
        b.push(body(1));
        b.push(body(2));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        FlitBuffer::new(0);
    }

    #[test]
    fn head_peeks_without_removing() {
        let mut b = FlitBuffer::new(2);
        b.push(body(9));
        assert_eq!(b.head().map(|f| f.packet_id()), Some(PacketId::new(9)));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn clear_empties() {
        let mut b = FlitBuffer::new(2);
        b.push(body(1));
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.free(), 2);
    }
}
