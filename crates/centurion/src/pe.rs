//! The processing element: a MicroBlaze-MCS-class node model.
//!
//! Observable behaviour per the paper: a PE runs one task at a time,
//! sources generate work on a timer (task 1: one fork wave every 4 ms),
//! workers consume delivered packets (joins pool `arity` packets per
//! completion), completions emit packets along the task graph's edges,
//! and the node clock is scalable between 10 and 300 MHz. Everything else
//! (ISA, caches) is irrelevant to the experiments and not modelled.

use std::collections::VecDeque;

use sirtm_noc::{Cycle, NodeId, Packet};
use sirtm_taskgraph::{TaskGraph, TaskId};

/// Outcome of offering a delivered packet to a PE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Accept {
    /// Queued as work for the current task.
    Queued,
    /// Consumed immediately (feedback/ack signal for the current task).
    Consumed,
    /// Not this node's task: buffered in the foreign queue.
    Foreign,
    /// A buffer overflowed; the returned packet must be bounced or
    /// dropped by the platform.
    Overflow,
    /// The PE is dead or gated; the packet is lost.
    Dead,
}

/// Per-PE counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeStats {
    /// Work items completed.
    pub completions: u64,
    /// Task switches applied.
    pub switches: u64,
    /// Feedback/ack packets consumed.
    pub acks_consumed: u64,
    /// Packets received for a task this node does not run.
    pub foreign_received: u64,
}

/// A processing element.
#[derive(Debug, Clone)]
pub struct ProcessingElement {
    node: NodeId,
    task: Option<TaskId>,
    freq_mhz: u16,
    nominal_mhz: u16,
    clock_enabled: bool,
    alive: bool,
    queue: VecDeque<Packet>,
    foreign: VecDeque<Packet>,
    queue_cap: usize,
    foreign_cap: usize,
    working: bool,
    busy_until: Cycle,
    /// Busy cycles of every closed busy interval.
    busy_closed: u64,
    /// Start of the open busy interval: set while the PE works, alive
    /// with its clock on.
    busy_since: Option<Cycle>,
    gen_next: Option<Cycle>,
    last_completion: Option<Cycle>,
    stats: PeStats,
    /// Data packets accepted for processing since the last AIM scan
    /// (saturating: a baseline node scans only to drain an RCAP write).
    feed_data: u32,
    /// Acks consumed since the last AIM scan (saturating, likewise).
    feed_acks: u32,
}

impl ProcessingElement {
    /// Creates a PE with no task assigned.
    pub fn new(node: NodeId, nominal_mhz: u16, queue_cap: usize, foreign_cap: usize) -> Self {
        Self {
            node,
            task: None,
            freq_mhz: nominal_mhz,
            nominal_mhz,
            clock_enabled: true,
            alive: true,
            // Queue depths are bounded by their caps (the foreign buffer
            // briefly holds one extra packet while displacing), so sizing
            // them up front keeps the steady-state hot loop allocation
            // free from the first cycle.
            queue: VecDeque::with_capacity(queue_cap),
            foreign: VecDeque::with_capacity(foreign_cap + 1),
            queue_cap,
            foreign_cap,
            working: false,
            busy_until: 0,
            busy_closed: 0,
            busy_since: None,
            gen_next: None,
            last_completion: None,
            stats: PeStats::default(),
            feed_data: 0,
            feed_acks: 0,
        }
    }

    /// This PE's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Current task.
    pub fn task(&self) -> Option<TaskId> {
        self.task
    }

    /// Whether the PE is alive (not failed).
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// Whether the PE is mid-work-item.
    pub fn is_busy(&self) -> bool {
        self.working
    }

    /// Gates the clock at cycle `now`, before that cycle's step: the PE
    /// holds its state and work but steps no more.
    pub(crate) fn gate_clock(&mut self, now: Cycle) {
        self.close_busy(now);
        self.clock_enabled = false;
    }

    /// Whether the clock is currently enabled.
    pub fn clock_enabled(&self) -> bool {
        self.clock_enabled
    }

    /// Current DVFS frequency in MHz.
    pub fn frequency_mhz(&self) -> u16 {
        self.freq_mhz
    }

    /// DVFS knob (caller clamps to the platform's range).
    pub fn set_frequency_mhz(&mut self, mhz: u16) {
        self.freq_mhz = mhz.max(1);
    }

    /// Cycle of the most recent completion (drives "nodes active").
    pub fn last_completion(&self) -> Option<Cycle> {
        self.last_completion
    }

    /// Cumulative cycles this PE spent executing work items before cycle
    /// `now` — the activity integral the thermal power model converts
    /// into dynamic power (duty cycle = Δ`busy_cycles` / window). A
    /// mid-work PE counts every cycle since its item started whether or
    /// not it was stepped, so the activity-gated stepper can skip it.
    pub fn busy_cycles(&self, now: Cycle) -> u64 {
        self.busy_closed + self.busy_since.map_or(0, |since| now - since)
    }

    /// Closes the open busy interval, if any, at `end` (exclusive).
    fn close_busy(&mut self, end: Cycle) {
        if let Some(since) = self.busy_since.take() {
            self.busy_closed += end - since;
        }
    }

    /// Counters.
    pub fn stats(&self) -> PeStats {
        self.stats
    }

    /// Work queue length in packets.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Foreign buffer length in packets.
    pub fn foreign_len(&self) -> usize {
        self.foreign.len()
    }

    /// Task and age of the oldest foreign (mis-delivered) packet — part of
    /// FFW's "next packet in the routing queue" stimulus.
    pub fn oldest_foreign(&self, now: Cycle) -> Option<(TaskId, Cycle)> {
        self.foreign.front().map(|p| (p.task, p.age(now)))
    }

    /// Overrides the next spontaneous generation instant (source tasks
    /// only; used to randomise clock phases across runs).
    pub fn set_generation_phase(&mut self, next: Cycle) {
        if self.gen_next.is_some() {
            self.gen_next = Some(next);
        }
    }

    /// The next cycle at which stepping this PE could change state, or
    /// `None` when every step is a provable no-op until an external event
    /// (a delivery or a task switch) re-arms it.
    /// The platform's activity-gated stepper skips a PE whose next event
    /// lies in the future; anything that might change the answer must
    /// re-arm the PE in the platform's event table.
    ///
    /// A returned cycle may already be in the past (e.g. a work item whose
    /// completion was delayed by clock gating); it means "due now".
    pub fn next_event(&self) -> Option<Cycle> {
        if !self.alive || !self.clock_enabled {
            return None;
        }
        self.task?;
        if self.working {
            return Some(self.busy_until);
        }
        // Idle source: the generation timer. Idle worker: nothing until a
        // delivery (acquisition happens in the same cycle's step, so an
        // idle worker never sits on a runnable queue between steps).
        self.gen_next
    }

    /// Reads and clears the feed counters: `(data packets accepted, acks
    /// consumed)` since the last read. The platform converts these into
    /// the AIM's work-proportional feed amount.
    pub fn take_feed_counts(&mut self) -> (u32, u32) {
        (
            std::mem::take(&mut self.feed_data),
            std::mem::take(&mut self.feed_acks),
        )
    }

    /// Kills the PE at cycle `now`, before that cycle's step: it stops
    /// processing, drops queued work and never recovers (the paper's
    /// node-fault model).
    pub fn kill(&mut self, now: Cycle) {
        self.close_busy(now);
        self.alive = false;
        self.task = None;
        self.queue.clear();
        self.foreign.clear();
        self.working = false;
        self.gen_next = None;
    }

    /// Assigns `task`, returning every queued packet that no longer
    /// belongs here (the platform bounces them). Foreign packets matching
    /// the new task become work; for source tasks the generation timer is
    /// restarted with a node-specific phase. The switch lands after the
    /// step of cycle `now`, so a work item in progress is abandoned at the
    /// end of that cycle.
    ///
    /// Convenience wrapper over [`ProcessingElement::switch_task_into`]
    /// that allocates the eviction list (tests and construction paths).
    pub fn switch_task(
        &mut self,
        task: TaskId,
        graph: &TaskGraph,
        now: Cycle,
        count_switch: bool,
    ) -> Vec<Packet> {
        let mut evicted = Vec::new();
        self.switch_task_into(task, graph, now, count_switch, &mut evicted);
        evicted
    }

    /// Allocation-free task switch: displaced packets are appended to the
    /// caller-supplied `evicted` buffer (the platform's reused scratch)
    /// instead of a fresh `Vec`. Foreign packets are re-filtered in place.
    pub fn switch_task_into(
        &mut self,
        task: TaskId,
        graph: &TaskGraph,
        now: Cycle,
        count_switch: bool,
        evicted: &mut Vec<Packet>,
    ) {
        if self.task == Some(task) || !self.alive {
            return;
        }
        if count_switch {
            self.stats.switches += 1;
        }
        evicted.extend(self.queue.drain(..));
        self.task = Some(task);
        self.working = false;
        self.close_busy(now + 1);
        // Adopt matching foreign packets — FFW's "sink and process it
        // locally" — by rotating the deque once in place: each packet is
        // popped, then either consumed, queued, evicted or pushed back,
        // preserving arrival order without a second buffer.
        for _ in 0..self.foreign.len() {
            let pkt = self.foreign.pop_front().expect("rotating within len");
            if pkt.task == task {
                if pkt.kind == sirtm_noc::PacketKind::Ack {
                    self.stats.acks_consumed += 1;
                    self.feed_acks = self.feed_acks.saturating_add(1);
                } else if self.queue.len() < self.queue_cap {
                    self.queue.push_back(pkt);
                    self.feed_data = self.feed_data.saturating_add(1);
                } else {
                    evicted.push(pkt);
                }
            } else {
                self.foreign.push_back(pkt);
            }
        }
        let spec = graph.spec(task);
        self.gen_next = spec
            .generation_period
            .map(|p| now + 1 + (self.node.index() as u64 * 37) % p as u64);
    }

    /// Offers a delivered packet. On [`Accept::Overflow`] the displaced
    /// packet is returned alongside for the caller to bounce or drop.
    pub fn deliver(&mut self, pkt: Packet) -> (Accept, Option<Packet>) {
        if !self.alive {
            return (Accept::Dead, None);
        }
        if Some(pkt.task) == self.task {
            if pkt.kind == sirtm_noc::PacketKind::Ack {
                // Feedback signals are consumed instantly: they feed the
                // FFW watchdog but need no processing time.
                self.stats.acks_consumed += 1;
                self.feed_acks = self.feed_acks.saturating_add(1);
                return (Accept::Consumed, None);
            }
            if self.queue.len() < self.queue_cap {
                self.queue.push_back(pkt);
                self.feed_data = self.feed_data.saturating_add(1);
                return (Accept::Queued, None);
            }
            // Queue overflow: this instance is saturated; hand the packet
            // back for bouncing to a sibling instance.
            return (Accept::Overflow, Some(pkt));
        }
        // Wrong task: foreign buffer, displacing the oldest on overflow.
        self.stats.foreign_received += 1;
        self.foreign.push_back(pkt);
        if self.foreign.len() > self.foreign_cap {
            let displaced = self.foreign.pop_front();
            return (Accept::Overflow, displaced);
        }
        (Accept::Foreign, None)
    }

    fn scaled_service(&self, base: u32) -> u64 {
        ((base as u64 * self.nominal_mhz as u64) / self.freq_mhz as u64).max(1)
    }

    /// Advances one cycle. Returns `Some(task)` when a work item of that
    /// task completed this cycle (the platform then emits the task's
    /// output packets).
    pub fn step(&mut self, now: Cycle, graph: &TaskGraph) -> Option<TaskId> {
        if !self.alive || !self.clock_enabled {
            return None;
        }
        let task = self.task?;
        let mut completed = None;
        if self.working {
            if now < self.busy_until {
                return None;
            }
            self.working = false;
            self.close_busy(now);
            self.stats.completions += 1;
            self.last_completion = Some(now);
            completed = Some(task);
        }
        // Acquire the next work item.
        let spec = graph.spec(task);
        if let Some(period) = spec.generation_period {
            let due = self.gen_next.get_or_insert(now);
            if now >= *due {
                *due += period as u64;
                self.working = true;
                self.busy_until = now + self.scaled_service(spec.service_cycles);
            }
        } else if self.queue.len() >= spec.join_arity as usize {
            for _ in 0..spec.join_arity {
                self.queue.pop_front();
            }
            self.working = true;
            self.busy_until = now + self.scaled_service(spec.service_cycles);
        }
        if self.working {
            self.busy_since = Some(now);
        }
        completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirtm_noc::{PacketId, PacketKind};
    use sirtm_taskgraph::workloads::{fork_join, ForkJoinParams};

    fn graph() -> TaskGraph {
        fork_join(&ForkJoinParams::default())
    }

    fn pe() -> ProcessingElement {
        ProcessingElement::new(NodeId::new(0), 100, 4, 4)
    }

    fn packet(task: u8, kind: PacketKind, id: u64) -> Packet {
        Packet {
            id: PacketId::new(id),
            src: NodeId::new(1),
            dest: NodeId::new(0),
            task: TaskId::new(task),
            kind,
            payload_flits: 0,
            created_cycle: 0,
            bounces: 0,
        }
    }

    #[test]
    fn source_generates_on_period() {
        let g = graph();
        let mut p = pe();
        p.switch_task(TaskId::new(0), &g, 0, false);
        let mut completions = 0;
        for now in 0..1700 {
            if p.step(now, &g).is_some() {
                completions += 1;
            }
        }
        // Period 400 cycles: about 4 completions in 1700 cycles.
        assert!(
            (3..=5).contains(&completions),
            "got {completions} generations"
        );
    }

    #[test]
    fn worker_processes_queued_packet_with_service_time() {
        let g = graph();
        let mut p = pe();
        p.switch_task(TaskId::new(1), &g, 0, false);
        assert_eq!(p.deliver(packet(1, PacketKind::Data, 1)).0, Accept::Queued);
        let mut done_at = None;
        for now in 0..1000 {
            if p.step(now, &g).is_some() {
                done_at = Some(now);
                break;
            }
        }
        // t2 service is 300 cycles at nominal frequency.
        let done = done_at.expect("work completes");
        assert!((300..=302).contains(&done), "completed at {done}");
    }

    #[test]
    fn join_waits_for_arity_packets() {
        let g = graph();
        let mut p = pe();
        p.switch_task(TaskId::new(2), &g, 0, false);
        p.deliver(packet(2, PacketKind::Data, 1));
        p.deliver(packet(2, PacketKind::Data, 2));
        for now in 0..500 {
            assert!(
                p.step(now, &g).is_none(),
                "2 of 3 join inputs is not enough"
            );
        }
        p.deliver(packet(2, PacketKind::Data, 3));
        let mut completed = false;
        for now in 500..800 {
            if p.step(now, &g).is_some() {
                completed = true;
                break;
            }
        }
        assert!(completed, "third input releases the join");
        assert_eq!(p.stats().completions, 1);
    }

    #[test]
    fn dvfs_slows_and_speeds_service() {
        let g = graph();
        let mut p = pe();
        p.switch_task(TaskId::new(1), &g, 0, false);
        p.set_frequency_mhz(50); // half speed: 300 → 600 cycles
        p.deliver(packet(1, PacketKind::Data, 1));
        let mut done_at = None;
        for now in 0..2000 {
            if p.step(now, &g).is_some() {
                done_at = Some(now);
                break;
            }
        }
        assert!((600..=602).contains(&done_at.expect("completes")));
    }

    #[test]
    fn busy_cycles_integrate_service_time() {
        let g = graph();
        let mut p = pe();
        p.switch_task(TaskId::new(1), &g, 0, false);
        p.deliver(packet(1, PacketKind::Data, 1));
        for now in 0..1000 {
            p.step(now, &g);
        }
        // One t2 item: 300 service cycles at nominal frequency, then idle.
        let busy = p.busy_cycles(1000);
        assert!(
            (300..=302).contains(&busy),
            "busy cycles {busy} for one 300-cycle item"
        );
    }

    #[test]
    fn busy_cycles_scale_with_dvfs() {
        let g = graph();
        let mut p = pe();
        p.switch_task(TaskId::new(1), &g, 0, false);
        p.set_frequency_mhz(200); // double speed: 300 -> 150 cycles
        p.deliver(packet(1, PacketKind::Data, 1));
        for now in 0..1000 {
            p.step(now, &g);
        }
        let busy = p.busy_cycles(1000);
        assert!(
            (150..=152).contains(&busy),
            "busy cycles {busy} at double clock"
        );
    }

    #[test]
    fn acks_consumed_instantly() {
        let g = graph();
        let mut p = pe();
        p.switch_task(TaskId::new(0), &g, 0, false);
        let (a, r) = p.deliver(packet(0, PacketKind::Ack, 1));
        assert_eq!(a, Accept::Consumed);
        assert!(r.is_none());
        assert_eq!(p.stats().acks_consumed, 1);
        assert_eq!(p.queue_len(), 0);
    }

    #[test]
    fn foreign_packets_buffered_and_visible() {
        let g = graph();
        let mut p = pe();
        p.switch_task(TaskId::new(1), &g, 0, false);
        let (a, _) = p.deliver(packet(2, PacketKind::Data, 1));
        assert_eq!(a, Accept::Foreign);
        assert_eq!(p.foreign_len(), 1);
        let (task, age) = p.oldest_foreign(50).expect("foreign waiting");
        assert_eq!(task, TaskId::new(2));
        assert_eq!(age, 50);
    }

    #[test]
    fn foreign_overflow_displaces_oldest() {
        let g = graph();
        let mut p = pe();
        p.switch_task(TaskId::new(1), &g, 0, false);
        for i in 0..4 {
            p.deliver(packet(2, PacketKind::Data, i));
        }
        let (a, displaced) = p.deliver(packet(2, PacketKind::Data, 99));
        assert_eq!(a, Accept::Overflow);
        assert_eq!(displaced.expect("oldest displaced").id, PacketId::new(0));
        assert_eq!(p.foreign_len(), 4);
    }

    #[test]
    fn queue_overflow_returns_packet_for_bouncing() {
        let g = graph();
        let mut p = pe();
        p.switch_task(TaskId::new(1), &g, 0, false);
        for i in 0..4 {
            assert_eq!(p.deliver(packet(1, PacketKind::Data, i)).0, Accept::Queued);
        }
        let (a, displaced) = p.deliver(packet(1, PacketKind::Data, 99));
        assert_eq!(a, Accept::Overflow);
        assert_eq!(displaced.expect("newcomer bounced").id, PacketId::new(99));
    }

    #[test]
    fn switch_adopts_matching_foreign_and_evicts_queue() {
        let g = graph();
        let mut p = pe();
        p.switch_task(TaskId::new(1), &g, 0, false);
        p.deliver(packet(1, PacketKind::Data, 1)); // queued t2 work
        p.deliver(packet(2, PacketKind::Data, 2)); // foreign t3
        let evicted = p.switch_task(TaskId::new(2), &g, 100, true);
        assert_eq!(evicted.len(), 1, "old-task work handed back");
        assert_eq!(evicted[0].id, PacketId::new(1));
        assert_eq!(p.queue_len(), 1, "foreign t3 packet adopted");
        assert_eq!(p.stats().switches, 1);
    }

    #[test]
    fn switch_to_same_task_is_a_no_op() {
        let g = graph();
        let mut p = pe();
        p.switch_task(TaskId::new(1), &g, 0, true);
        let evicted = p.switch_task(TaskId::new(1), &g, 50, true);
        assert!(evicted.is_empty());
        assert_eq!(p.stats().switches, 1, "same-task switch not counted");
    }

    #[test]
    fn dead_pe_rejects_everything() {
        let g = graph();
        let mut p = pe();
        p.switch_task(TaskId::new(1), &g, 0, false);
        p.kill(0);
        assert_eq!(p.deliver(packet(1, PacketKind::Data, 1)).0, Accept::Dead);
        assert!(p.step(10, &g).is_none());
        assert!(p.task().is_none());
        assert!(!p.is_alive());
    }

    #[test]
    fn clock_gated_pe_holds_work() {
        let g = graph();
        let mut p = pe();
        p.switch_task(TaskId::new(1), &g, 0, false);
        p.deliver(packet(1, PacketKind::Data, 1));
        p.deliver(packet(1, PacketKind::Data, 2));
        for now in 0..100 {
            assert!(p.step(now, &g).is_none());
        }
        assert_eq!(p.busy_cycles(100), 100);
        p.gate_clock(100);
        for now in 100..1000 {
            assert!(p.step(now, &g).is_none(), "a gated PE completes nothing");
        }
        // Task, queue and the item in progress are held; the busy
        // integral stopped at the gate.
        assert_eq!(p.task(), Some(TaskId::new(1)));
        assert_eq!(p.queue_len(), 1);
        assert!(p.is_busy() && !p.clock_enabled());
        assert_eq!(p.next_event(), None);
        assert_eq!(p.busy_cycles(1000), 100);
    }

    #[test]
    fn busy_intervals_close_on_kill_and_switch() {
        let g = graph();
        // Working from cycle 10; a kill lands before the step of cycle
        // 40, a switch after it.
        for (switch, busy) in [(false, 30), (true, 31)] {
            let mut p = pe();
            p.switch_task(TaskId::new(1), &g, 0, false);
            p.deliver(packet(1, PacketKind::Data, 1));
            for now in 10..40 + u64::from(switch) {
                p.step(now, &g);
            }
            if switch {
                p.switch_task(TaskId::new(2), &g, 40, true);
            } else {
                p.kill(40);
            }
            assert_eq!(p.busy_cycles(500), busy, "switch {switch}");
        }
    }
}
