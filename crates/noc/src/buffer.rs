//! Fixed-capacity flit FIFOs modelling router input buffers.

use std::fmt;

use crate::packet::Flit;

/// Flit slots per input buffer. The Centurion router uses wormhole
/// switching specifically to keep these buffers small.
pub const DEPTH: usize = 4;

/// A bounded FIFO of flits, as found at each router input port: an
/// inline ring of [`DEPTH`] 4-byte flit handles, so a router's buffers
/// live inside the router and pushes and pops never touch the heap.
///
/// Equality and `Debug` see only the buffered flits, head to tail; the
/// ring position and the contents of vacant slots are not observable.
#[derive(Clone)]
pub struct FlitBuffer {
    slots: [Flit; DEPTH],
    /// Slot of the head-of-line flit.
    head: u8,
    len: u8,
}

impl FlitBuffer {
    /// Creates an empty buffer of [`DEPTH`] slots.
    pub fn new() -> Self {
        Self {
            slots: [Flit::VACANT; DEPTH],
            head: 0,
            len: 0,
        }
    }

    /// Maximum number of flits.
    pub fn capacity(&self) -> usize {
        DEPTH
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` if no flits are buffered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` if another flit cannot be accepted.
    pub fn is_full(&self) -> bool {
        self.len() == DEPTH
    }

    /// Free slots remaining.
    pub fn free(&self) -> usize {
        DEPTH - self.len()
    }

    /// Pushes a flit.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is full — callers must check credits first;
    /// overrunning a buffer would be a flow-control bug in the simulator.
    pub fn push(&mut self, flit: Flit) {
        assert!(!self.is_full(), "flit buffer overrun (flow-control bug)");
        self.slots[(self.head as usize + self.len()) % DEPTH] = flit;
        self.len += 1;
    }

    /// The head-of-line flit, if any.
    pub fn head(&self) -> Option<Flit> {
        (!self.is_empty()).then(|| self.slots[self.head as usize])
    }

    /// Removes and returns the head-of-line flit.
    pub fn pop(&mut self) -> Option<Flit> {
        if self.is_empty() {
            return None;
        }
        let flit = self.slots[self.head as usize];
        self.head = ((self.head as usize + 1) % DEPTH) as u8;
        self.len -= 1;
        Some(flit)
    }

    /// Iterates over buffered flits from head to tail.
    pub fn iter(&self) -> impl Iterator<Item = Flit> + '_ {
        (0..self.len()).map(move |k| self.slots[(self.head as usize + k) % DEPTH])
    }

    /// Drops all buffered flits (used on router-dead faults).
    pub fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }
}

impl Default for FlitBuffer {
    fn default() -> Self {
        Self::new()
    }
}

impl PartialEq for FlitBuffer {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for FlitBuffer {}

impl fmt::Debug for FlitBuffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(slot: u32) -> Flit {
        Flit::of_packet(slot, 1, 3)
    }

    #[test]
    fn fifo_order() {
        let mut b = FlitBuffer::new();
        b.push(body(1));
        b.push(body(2));
        assert_eq!(b.len(), 2);
        assert_eq!(b.pop().map(Flit::slot), Some(1));
        assert_eq!(b.pop().map(Flit::slot), Some(2));
        assert!(b.pop().is_none());
    }

    #[test]
    fn capacity_accounting() {
        let mut b = FlitBuffer::new();
        assert_eq!(b.capacity(), DEPTH);
        assert_eq!(b.free(), DEPTH);
        assert!(!b.is_full());
        for i in 0..DEPTH as u32 {
            b.push(body(i));
        }
        assert!(b.is_full());
        assert_eq!(b.free(), 0);
        b.pop();
        assert_eq!(b.free(), 1);
    }

    #[test]
    #[should_panic(expected = "overrun")]
    fn overrun_panics() {
        let mut b = FlitBuffer::new();
        for i in 0..=DEPTH as u32 {
            b.push(body(i));
        }
    }

    #[test]
    fn head_peeks_without_removing() {
        let mut b = FlitBuffer::new();
        b.push(body(9));
        assert_eq!(b.head().map(Flit::slot), Some(9));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn clear_empties() {
        let mut b = FlitBuffer::new();
        b.push(body(1));
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.free(), DEPTH);
    }

    #[test]
    fn equality_ignores_ring_position_and_vacant_slots() {
        let (mut a, mut b) = (FlitBuffer::new(), FlitBuffer::new());
        // `a` wraps around its ring; `b` holds the same flits from slot 0.
        for i in 0..DEPTH as u32 {
            a.push(body(100 + i));
        }
        for _ in 0..3 {
            a.pop();
        }
        a.push(body(7));
        b.push(body(100 + DEPTH as u32 - 1));
        b.push(body(7));
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        b.pop();
        assert_ne!(a, b);
    }
}
