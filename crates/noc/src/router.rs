//! The Centurion 5-channel wormhole router (Fig. 2a of the paper).
//!
//! Each router has four cardinal link ports, an internal port to its
//! processing element, and a Router Configuration Access Port (RCAP)
//! through which router and AIM settings can be changed remotely. Up to
//! five concurrent wormhole connections can be active; input and output
//! interfaces are independent, giving full-duplex channels.
//!
//! The router exposes *monitors* (routing events per task, internal
//! deliveries, blocked cycles, drops) and *knobs* (local task register,
//! routing mode, deadlock timeout, opportunistic-delivery settings, port
//! enables) — the sensor/actuator surface the embedded intelligence uses.

use std::collections::VecDeque;

use sirtm_taskgraph::TaskId;

use crate::buffer::FlitBuffer;
use crate::packet::{Flit, Packet, PacketId, PacketKind, RcapCommand, RouteMode};
use crate::types::{Coord, Cycle, Direction, NodeId, Port};

/// Input side of the crossbar: the four link buffers plus the local
/// injection queue (the internal port's input half).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InPort {
    /// A cardinal link input buffer.
    Link(Direction),
    /// The processing element's injection queue.
    Inject,
}

impl InPort {
    /// All five inputs, link ports first.
    pub const ALL: [InPort; 5] = [
        InPort::Link(Direction::North),
        InPort::Link(Direction::East),
        InPort::Link(Direction::South),
        InPort::Link(Direction::West),
        InPort::Inject,
    ];

    /// Dense index in `0..5`.
    pub fn index(self) -> usize {
        match self {
            InPort::Link(d) => d.index(),
            InPort::Inject => 4,
        }
    }
}

/// Output side of the crossbar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OutPort {
    /// A cardinal link towards the neighbouring router.
    Link(Direction),
    /// Delivery to the local processing element.
    Internal,
    /// Consumption by the configuration port.
    Rcap,
}

impl OutPort {
    /// All six outputs in N, E, S, W, Internal, RCAP order — the order
    /// the planner grants them in.
    pub const ALL: [OutPort; 6] = [
        OutPort::Link(Direction::North),
        OutPort::Link(Direction::East),
        OutPort::Link(Direction::South),
        OutPort::Link(Direction::West),
        OutPort::Internal,
        OutPort::Rcap,
    ];

    /// Dense index in `0..6`.
    pub fn index(self) -> usize {
        match self {
            OutPort::Link(d) => d.index(),
            OutPort::Internal => 4,
            OutPort::Rcap => 5,
        }
    }

    /// The corresponding six-port identifier.
    pub fn port(self) -> Port {
        match self {
            OutPort::Link(d) => Port::from(d),
            OutPort::Internal => Port::Internal,
            OutPort::Rcap => Port::Rcap,
        }
    }
}

/// Router knobs — every field is runtime-settable, locally by the AIM or
/// remotely through RCAP config packets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterSettings {
    /// Task the local processing element currently performs. Used for
    /// task-affine opportunistic delivery and read by neighbouring AIMs.
    pub local_task: Option<TaskId>,
    /// Enables task-affine opportunistic delivery: a packet older than
    /// `redirect_age` may be absorbed by any node whose task matches.
    pub opportunistic_delivery: bool,
    /// Minimum packet age before opportunistic absorption may happen.
    pub redirect_age: Cycle,
    /// Head-of-line blocking cycles before the basic deadlock recovery
    /// drops the blocked packet.
    pub deadlock_timeout: Cycle,
    /// Routing algorithm.
    pub route_mode: RouteMode,
    /// Per-port enables (N, E, S, W, Internal, RCAP order).
    pub port_enabled: [bool; 6],
    /// Cleared when the whole tile is failed (router-dead fault model).
    pub alive: bool,
}

impl RouterSettings {
    fn new(config: &RouterConfig) -> Self {
        Self {
            local_task: None,
            opportunistic_delivery: config.opportunistic_delivery,
            redirect_age: config.redirect_age,
            deadlock_timeout: config.deadlock_timeout,
            route_mode: config.route_mode,
            port_enabled: [true; 6],
            alive: true,
        }
    }
}

/// Router monitors — the sensing surface offered to the AIM.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouterMonitors {
    routed_per_task: Vec<u32>,
    internal_per_task: Vec<u32>,
    /// Cumulative head flits forwarded towards any link port.
    pub routed_events: u64,
    /// Cumulative packets delivered to the local node.
    pub internal_deliveries: u64,
    /// Cumulative packets dropped by deadlock recovery.
    pub dropped_packets: u64,
    /// Cumulative cycles any head-of-line flit spent blocked.
    pub blocked_head_cycles: u64,
    /// Cumulative flits moved through the crossbar.
    pub forwarded_flits: u64,
    /// Cumulative RCAP commands applied.
    pub rcap_commands: u64,
    /// Cycle of the most recent internal delivery, if any.
    pub last_internal_cycle: Option<Cycle>,
    /// Task and cycle of the most recent application head flit forwarded
    /// towards any link — a latched "demand passing by" register the FFW
    /// model forages from when no packet is actually queued.
    pub recent_routed: Option<(TaskId, Cycle)>,
}

impl RouterMonitors {
    fn new(n_tasks: usize) -> Self {
        Self {
            routed_per_task: vec![0; n_tasks],
            internal_per_task: vec![0; n_tasks],
            ..Self::default()
        }
    }

    /// Per-task counts of head flits routed since the last
    /// [`RouterMonitors::take_routed_per_task`] (non-destructive view).
    pub fn routed_per_task(&self) -> &[u32] {
        &self.routed_per_task
    }

    /// Per-task counts of internal deliveries since the last take
    /// (non-destructive view).
    pub fn internal_per_task(&self) -> &[u32] {
        &self.internal_per_task
    }

    /// Reads and clears the per-task routed counters (the AIM's
    /// reset-on-read impulse counters feed from this).
    pub fn take_routed_per_task(&mut self) -> Vec<u32> {
        let n = self.routed_per_task.len();
        std::mem::replace(&mut self.routed_per_task, vec![0; n])
    }

    /// Reads and clears the per-task internal-delivery counters.
    pub fn take_internal_per_task(&mut self) -> Vec<u32> {
        let n = self.internal_per_task.len();
        std::mem::replace(&mut self.internal_per_task, vec![0; n])
    }

    /// Allocation-free variant of [`RouterMonitors::take_routed_per_task`]:
    /// copies into `buf` and clears.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` differs from the task count.
    pub fn take_routed_into(&mut self, buf: &mut [u32]) {
        assert_eq!(
            buf.len(),
            self.routed_per_task.len(),
            "buffer size mismatch"
        );
        for (b, c) in buf.iter_mut().zip(self.routed_per_task.iter_mut()) {
            *b = std::mem::take(c);
        }
    }

    /// Allocation-free variant of
    /// [`RouterMonitors::take_internal_per_task`].
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` differs from the task count.
    pub fn take_internal_into(&mut self, buf: &mut [u32]) {
        assert_eq!(
            buf.len(),
            self.internal_per_task.len(),
            "buffer size mismatch"
        );
        for (b, c) in buf.iter_mut().zip(self.internal_per_task.iter_mut()) {
            *b = std::mem::take(c);
        }
    }
}

/// Static configuration of a router, fixed at construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterConfig {
    /// Number of application tasks (sizes the per-task monitor banks).
    pub n_tasks: usize,
    /// Initial deadlock-recovery timeout.
    pub deadlock_timeout: Cycle,
    /// Initial opportunistic-delivery age threshold.
    pub redirect_age: Cycle,
    /// Whether opportunistic delivery starts enabled.
    pub opportunistic_delivery: bool,
    /// Initial routing mode.
    pub route_mode: RouteMode,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            n_tasks: 3,
            deadlock_timeout: 200,
            redirect_age: 150,
            opportunistic_delivery: false,
            route_mode: RouteMode::Xy,
        }
    }
}

/// A planned crossbar traversal for this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Move {
    pub input: InPort,
    pub output: OutPort,
}

/// Reusable per-router plan buffer: at most one move per output port and
/// one consume per input port, so fixed arrays avoid per-cycle heap work.
#[derive(Debug, Clone, Default)]
pub struct RouterPlan {
    moves: [Option<Move>; 6],
    n_moves: u8,
    consumes: [Option<InPort>; 5],
    n_consumes: u8,
}

impl RouterPlan {
    /// Resets the plan for reuse.
    pub fn clear(&mut self) {
        self.n_moves = 0;
        self.n_consumes = 0;
    }

    /// Number of planned crossbar traversals.
    pub fn move_count(&self) -> usize {
        self.n_moves as usize
    }

    fn push_move(&mut self, m: Move) {
        self.moves[self.n_moves as usize] = Some(m);
        self.n_moves += 1;
    }

    fn push_consume(&mut self, i: InPort) {
        self.consumes[self.n_consumes as usize] = Some(i);
        self.n_consumes += 1;
    }

    pub(crate) fn moves(&self) -> impl Iterator<Item = Move> + '_ {
        self.moves[..self.n_moves as usize]
            .iter()
            .flatten()
            .copied()
    }

    pub(crate) fn consumes(&self) -> impl Iterator<Item = InPort> + '_ {
        self.consumes[..self.n_consumes as usize]
            .iter()
            .flatten()
            .copied()
    }

    /// Whether nothing was planned.
    pub fn is_empty(&self) -> bool {
        self.n_moves == 0 && self.n_consumes == 0
    }
}

/// The wormhole router tile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Router {
    node: NodeId,
    coord: Coord,
    settings: RouterSettings,
    monitors: RouterMonitors,
    inputs: [FlitBuffer; 4],
    inject_queue: VecDeque<Packet>,
    inject_sent: u32,
    /// Per-input wormhole circuit (input → allocated output).
    circuits: [Option<OutPort>; 5],
    /// Per-output allocation (output → granted input).
    out_alloc: [Option<InPort>; 6],
    /// Round-robin arbitration pointer per output.
    rr: [u8; 6],
    /// Head-of-line blocked cycle counts per input.
    blocked: [Cycle; 5],
    /// Bitmask of inputs that moved a flit this cycle (cleared by the
    /// blocked pass).
    moved: u8,
    /// Packet currently being discarded per input (deadlock recovery).
    dropping: [Option<PacketId>; 5],
    /// Packet currently being received on the internal port.
    rx: Option<Packet>,
    delivered: VecDeque<Packet>,
    pending_aim_writes: VecDeque<(u8, u8)>,
    /// Grid width, needed to derive coordinates from row-major node ids
    /// without borrowing the mesh. Set once at mesh construction.
    dims_width: u16,
}

impl Router {
    /// Creates a router for `node` at `coord`.
    pub fn new(node: NodeId, coord: Coord, config: &RouterConfig) -> Self {
        Self {
            node,
            coord,
            settings: RouterSettings::new(config),
            monitors: RouterMonitors::new(config.n_tasks),
            inputs: std::array::from_fn(|_| FlitBuffer::new()),
            inject_queue: VecDeque::new(),
            inject_sent: 0,
            circuits: [None; 5],
            out_alloc: [None; 6],
            rr: [0; 6],
            blocked: [0; 5],
            moved: 0,
            dropping: [None; 5],
            rx: None,
            delivered: VecDeque::new(),
            pending_aim_writes: VecDeque::new(),
            dims_width: 1,
        }
    }

    /// This router's node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// This router's grid coordinate.
    pub fn coord(&self) -> Coord {
        self.coord
    }

    /// Immutable view of the knobs.
    pub fn settings(&self) -> &RouterSettings {
        &self.settings
    }

    /// Mutable access to the knobs (the AIM / debug interface path).
    pub fn settings_mut(&mut self) -> &mut RouterSettings {
        &mut self.settings
    }

    /// Immutable view of the monitors.
    pub fn monitors(&self) -> &RouterMonitors {
        &self.monitors
    }

    /// Mutable access to the monitors (reset-on-read by the AIM).
    pub fn monitors_mut(&mut self) -> &mut RouterMonitors {
        &mut self.monitors
    }

    /// Queues a packet for injection through the internal port.
    pub fn enqueue_inject(&mut self, pkt: Packet) {
        self.inject_queue.push_back(pkt);
    }

    /// Number of packets waiting in the injection queue.
    pub fn inject_backlog(&self) -> usize {
        self.inject_queue.len()
    }

    /// Drains all packets delivered to the local node.
    ///
    /// Allocates the returned `Vec`; tests and debug tooling use this.
    /// The simulation hot loop drains through [`Router::pop_delivered`]
    /// instead, which performs no heap allocation.
    pub fn take_delivered(&mut self) -> Vec<Packet> {
        self.delivered.drain(..).collect()
    }

    /// Pops the oldest packet delivered to the local node, if any —
    /// the allocation-free drain the platform hot loop uses.
    pub fn pop_delivered(&mut self) -> Option<Packet> {
        self.delivered.pop_front()
    }

    /// Peeks the delivered queue length without draining.
    pub fn delivered_len(&self) -> usize {
        self.delivered.len()
    }

    /// Drains AIM register writes received through RCAP.
    ///
    /// Allocates the returned `Vec`; the hot loop drains through
    /// [`Router::pop_aim_write`] instead.
    pub fn take_aim_writes(&mut self) -> Vec<(u8, u8)> {
        self.pending_aim_writes.drain(..).collect()
    }

    /// Pops the oldest pending AIM register write, if any (allocation-free
    /// drain).
    pub fn pop_aim_write(&mut self) -> Option<(u8, u8)> {
        self.pending_aim_writes.pop_front()
    }

    /// Number of AIM register writes waiting to be drained by a scan.
    pub fn aim_write_backlog(&self) -> usize {
        self.pending_aim_writes.len()
    }

    /// Occupancy of the input buffer for link direction `dir`.
    pub fn input_occupancy(&self, dir: Direction) -> usize {
        self.inputs[dir.index()].len()
    }

    /// Free flit slots in the input buffer for link direction `dir`.
    pub fn input_free(&self, dir: Direction) -> usize {
        self.inputs[dir.index()].free()
    }

    /// The oldest *application* packet currently waiting at a head-of-line
    /// position in this router (FFW's "next packet in the routing queue").
    /// Returns its task and age.
    pub fn oldest_waiting_app_packet(&self, now: Cycle) -> Option<(TaskId, Cycle)> {
        let mut best: Option<(TaskId, Cycle)> = None;
        let mut consider = |pkt: &Packet| {
            if pkt.kind.is_application() {
                let age = pkt.age(now);
                if best.is_none_or(|(_, a)| age > a) {
                    best = Some((pkt.task, age));
                }
            }
        };
        for dir in Direction::ALL {
            if let Some(Flit::Head { pkt, .. }) = self.inputs[dir.index()].head() {
                consider(pkt);
            }
        }
        if self.inject_sent == 0 {
            if let Some(pkt) = self.inject_queue.front() {
                consider(pkt);
            }
        }
        best
    }

    /// Applies an RCAP command to this router. AIM writes are queued for
    /// the platform instead of being interpreted here.
    pub fn apply_config(&mut self, cmd: RcapCommand) {
        self.monitors.rcap_commands += 1;
        match cmd {
            RcapCommand::SetDeadlockTimeout(t) => self.settings.deadlock_timeout = t,
            RcapCommand::SetRedirectAge(a) => self.settings.redirect_age = a,
            RcapCommand::SetOpportunisticDelivery(on) => self.settings.opportunistic_delivery = on,
            RcapCommand::SetRouteMode(m) => self.settings.route_mode = m,
            RcapCommand::SetPortEnabled(p, on) => self.settings.port_enabled[p.index()] = on,
            RcapCommand::AimWrite { reg, value } => self.pending_aim_writes.push_back((reg, value)),
        }
    }

    /// Kills the tile: marks it dead, disables all ports and discards all
    /// buffered traffic and blocked counts (router-dead fault model).
    pub fn kill(&mut self) {
        self.settings.alive = false;
        self.settings.port_enabled = [false; 6];
        self.settings.local_task = None;
        for b in &mut self.inputs {
            b.clear();
        }
        self.inject_queue.clear();
        self.inject_sent = 0;
        self.circuits = [None; 5];
        self.out_alloc = [None; 6];
        self.blocked = [0; 5];
        self.dropping = [None; 5];
        self.rx = None;
    }

    /// Bitmask of inputs holding a head-of-line flit (bit `i` for
    /// [`InPort::ALL`]`[i]`), read from buffer occupancy alone.
    fn occupancy(&self) -> u8 {
        let mut mask = u8::from(!self.inject_queue.is_empty()) << 4;
        for (d, b) in self.inputs.iter().enumerate() {
            mask |= u8::from(!b.is_empty()) << d;
        }
        mask
    }

    /// The packet id of input `idx`'s head-of-line flit, and its packet
    /// when that flit is a head flit — what the planner needs, without
    /// synthesising the inject queue's next flit.
    fn head_view(&self, idx: usize) -> Option<(PacketId, Option<&Packet>)> {
        if idx == 4 {
            let pkt = self.inject_queue.front()?;
            return Some((pkt.id, (self.inject_sent == 0).then_some(pkt)));
        }
        Some(match self.inputs[idx].head()? {
            Flit::Head { pkt, .. } => (pkt.id, Some(pkt)),
            Flit::Body { id, .. } => (*id, None),
        })
    }

    /// The head-of-line flit of an input, synthesising the inject queue's
    /// next flit on demand.
    fn head_flit(&self, input: InPort) -> Option<Flit> {
        match input {
            InPort::Link(d) => self.inputs[d.index()].head().copied(),
            InPort::Inject => {
                let pkt = *self.inject_queue.front()?;
                let total = pkt.wire_flits();
                let k = self.inject_sent;
                debug_assert!(k < total);
                Some(if k == 0 {
                    Flit::Head {
                        pkt,
                        is_tail: total == 1,
                    }
                } else {
                    Flit::Body {
                        id: pkt.id,
                        is_tail: k + 1 == total,
                    }
                })
            }
        }
    }

    /// Ordered output preferences for a head packet (fixed-size: at most
    /// two productive directions exist under minimal routing).
    fn preferences(&self, pkt: &Packet, now: Cycle) -> [Option<OutPort>; 2] {
        if pkt.dest == self.node {
            return match pkt.kind {
                PacketKind::Config(_) => [Some(OutPort::Rcap), None],
                _ => [Some(OutPort::Internal), None],
            };
        }
        // Task-affine opportunistic absorption of aged packets.
        if self.settings.opportunistic_delivery
            && pkt.kind.is_application()
            && self.settings.local_task == Some(pkt.task)
            && pkt.age(now) >= self.settings.redirect_age
        {
            return [Some(OutPort::Internal), None];
        }
        let (sx, sy) = (self.coord.x as i32, self.coord.y as i32);
        // Destination coordinate is derivable from the id because ids are
        // row-major; the mesh guarantees dest is on-grid.
        let dest = pkt.dest;
        let (dx, dy) = (
            (dest.index() % self.dims_width()) as i32 - sx,
            (dest.index() / self.dims_width()) as i32 - sy,
        );
        let x_dir = if dx > 0 {
            Some(Direction::East)
        } else if dx < 0 {
            Some(Direction::West)
        } else {
            None
        };
        let y_dir = if dy > 0 {
            Some(Direction::South)
        } else if dy < 0 {
            Some(Direction::North)
        } else {
            None
        };
        let link = |d: Option<Direction>| d.map(OutPort::Link);
        match self.settings.route_mode {
            RouteMode::Xy => [link(x_dir).or(link(y_dir)), None],
            RouteMode::Yx => [link(y_dir).or(link(x_dir)), None],
            RouteMode::Adaptive => match (link(x_dir), link(y_dir)) {
                (Some(x), y) => [Some(x), y],
                (None, y) => [y, None],
            },
        }
    }

    /// Width of the owning grid, stashed at mesh build time.
    fn dims_width(&self) -> usize {
        self.dims_width as usize
    }

    /// Stashes the owning grid's width (normally done by the mesh at
    /// construction; public so a router can be benched standalone).
    pub fn set_grid_width(&mut self, width: u16) {
        self.dims_width = width;
    }

    /// Whether `output` could be granted to a *new* head this cycle.
    fn output_available(&self, output: OutPort, credit: &impl Fn(Direction) -> bool) -> bool {
        self.out_alloc[output.index()].is_none() && self.output_flowing(output, credit)
    }

    /// Whether an already-allocated circuit over `output` can advance.
    fn output_flowing(&self, output: OutPort, credit: &impl Fn(Direction) -> bool) -> bool {
        match output {
            OutPort::Link(d) => self.settings.port_enabled[Port::from(d).index()] && credit(d),
            OutPort::Internal => self.settings.port_enabled[Port::Internal.index()],
            OutPort::Rcap => self.settings.port_enabled[Port::Rcap.index()],
        }
    }

    /// Whether any flit or queued packet could possibly move this cycle —
    /// the mesh drops routers without work from its worklist (the common
    /// case on a lightly loaded grid).
    pub fn has_work(&self) -> bool {
        self.settings.alive && self.occupancy() != 0
    }

    /// Phase-1 planning: decides which flits traverse the crossbar this
    /// cycle. Pure with respect to router state; the mesh applies the
    /// plan in phase 2. Public so the bench harness can time the planning
    /// phase in isolation; `credit` answers whether a link output can
    /// accept a flit.
    ///
    /// One pass over the occupied inputs finds each free head's request:
    /// the first of its route preferences whose output is available.
    /// Availability reads only start-of-cycle state, so the request is
    /// the same for every output, and requests are gathered into one
    /// bitmask of inputs per output. A second pass visits the allocated
    /// or requested outputs in N, E, S, W, Internal, RCAP order: an
    /// allocated output advances its circuit, a free one grants the
    /// lowest requesting input of its mask rotated by the round-robin
    /// pointer.
    pub fn plan_into(&self, now: Cycle, credit: impl Fn(Direction) -> bool, plan: &mut RouterPlan) {
        plan.clear();
        if !self.settings.alive {
            return;
        }
        let occupied = self.occupancy();
        if occupied == 0 {
            return;
        }
        let mut granted = 0u8;
        let mut requests = [0u8; 6];
        let mut outputs = 0u8;
        for idx in set_bits(occupied.into()) {
            let Some((id, head)) = self.head_view(idx) else {
                continue;
            };
            if let Some(dropping) = self.dropping[idx] {
                // Inputs discarding a recovered packet consume
                // unconditionally and request nothing.
                if id == dropping {
                    plan.push_consume(InPort::ALL[idx]);
                    granted |= 1 << idx;
                }
                continue;
            }
            let (None, Some(pkt)) = (self.circuits[idx], head) else {
                continue;
            };
            let request = self
                .preferences(pkt, now)
                .into_iter()
                .flatten()
                .find(|&p| self.output_available(p, &credit));
            if let Some(o) = request {
                requests[o.index()] |= 1 << idx;
                outputs |= 1 << o.index();
            }
        }
        for (o, alloc) in self.out_alloc.iter().enumerate() {
            outputs |= u8::from(alloc.is_some()) << o;
        }
        for o in set_bits(outputs.into()) {
            let output = OutPort::ALL[o];
            if let Some(input) = self.out_alloc[o] {
                // Active circuit: advance it if the downstream can accept.
                let bit = 1 << input.index();
                if granted & bit == 0 && occupied & bit != 0 && self.output_flowing(output, &credit)
                {
                    plan.push_move(Move { input, output });
                    granted |= bit;
                }
                continue;
            }
            let candidates = requests[o] & !granted;
            if candidates != 0 {
                let idx = round_robin_pick(candidates, self.rr[o]);
                plan.push_move(Move {
                    input: InPort::ALL[idx],
                    output,
                });
                granted |= 1 << idx;
            }
        }
    }

    /// Removes and returns the head-of-line flit of `input`.
    ///
    /// # Panics
    ///
    /// Panics if the input has no flit (a planning bug).
    pub(crate) fn pop_input(&mut self, input: InPort) -> Flit {
        match input {
            InPort::Link(d) => self.inputs[d.index()]
                .pop()
                .expect("planned move from empty buffer"),
            InPort::Inject => {
                let flit = self
                    .head_flit(InPort::Inject)
                    .expect("planned move from empty inject queue");
                self.inject_sent += 1;
                if flit.is_tail() {
                    self.inject_queue.pop_front();
                    self.inject_sent = 0;
                }
                flit
            }
        }
    }

    /// Updates circuits, allocation, arbitration pointers and monitors for
    /// a committed move.
    pub(crate) fn commit_move(&mut self, m: Move, flit: &Flit, now: Cycle) {
        match (flit.is_head(), flit.is_tail()) {
            (true, false) => {
                self.circuits[m.input.index()] = Some(m.output);
                self.out_alloc[m.output.index()] = Some(m.input);
            }
            (_, true) => {
                self.circuits[m.input.index()] = None;
                self.out_alloc[m.output.index()] = None;
            }
            _ => {}
        }
        self.rr[m.output.index()] = ((m.input.index() + 1) % 5) as u8;
        self.blocked[m.input.index()] = 0;
        self.monitors.forwarded_flits += 1;
        if let (Flit::Head { pkt, .. }, OutPort::Link(_)) = (flit, m.output) {
            self.monitors.routed_events += 1;
            if let Some(c) = self.monitors.routed_per_task.get_mut(pkt.task.index()) {
                *c += 1;
            }
            if pkt.kind.is_application() {
                self.monitors.recent_routed = Some((pkt.task, now));
            }
        }
    }

    /// Accepts a flit arriving over a link into the input buffer facing
    /// direction `dir`.
    ///
    /// # Panics
    ///
    /// Panics on buffer overrun (a flow-control bug).
    pub(crate) fn accept_link_flit(&mut self, dir: Direction, flit: Flit) {
        self.inputs[dir.index()].push(flit);
    }

    /// Handles a flit consumed by the internal port; returns the packet
    /// when its tail completes reassembly.
    pub(crate) fn receive_internal(&mut self, flit: Flit, now: Cycle) -> Option<Packet> {
        let done = match flit {
            Flit::Head { pkt, is_tail } => {
                if is_tail {
                    Some(pkt)
                } else {
                    self.rx = Some(pkt);
                    None
                }
            }
            Flit::Body { is_tail, .. } => {
                if is_tail {
                    Some(self.rx.take().expect("tail without head on internal port"))
                } else {
                    None
                }
            }
        };
        if let Some(pkt) = done {
            self.monitors.internal_deliveries += 1;
            self.monitors.last_internal_cycle = Some(now);
            if let Some(c) = self.monitors.internal_per_task.get_mut(pkt.task.index()) {
                *c += 1;
            }
            self.delivered.push_back(pkt);
            return Some(pkt);
        }
        None
    }

    pub(crate) fn clear_dropping(&mut self, input: InPort) {
        self.dropping[input.index()] = None;
    }

    /// Records that `input` moved a flit this cycle.
    pub(crate) fn mark_moved(&mut self, input: InPort) {
        self.moved |= 1 << input.index();
    }

    /// Phase-3 bookkeeping: advances blocked counters for stalled heads
    /// and performs the basic deadlock recovery (drop a head that has been
    /// blocked for longer than the timeout). Returns the number of packets
    /// dropped this cycle. Consumes the per-cycle `moved` marks.
    ///
    /// As in the Centurion hardware this recovery is deliberately *not*
    /// comprehensive: a packet blocked mid-stream (circuit established) is
    /// never dropped here; it resolves only when its head finally drains
    /// downstream.
    pub(crate) fn update_blocked_and_recover_marked(&mut self) -> u64 {
        let moved = std::mem::take(&mut self.moved);
        if !self.settings.alive {
            return 0;
        }
        let occupied = self.occupancy();
        let mut dropped = 0u64;
        for i in InPort::ALL {
            let idx = i.index();
            if (moved | !occupied) & (1 << idx) != 0 {
                self.blocked[idx] = 0;
                continue;
            }
            self.blocked[idx] += 1;
            self.monitors.blocked_head_cycles += 1;
            if self.blocked[idx] > self.settings.deadlock_timeout
                && self.circuits[idx].is_none()
                && self.dropping[idx].is_none()
            {
                // Blocked new head: discard the packet.
                match i {
                    InPort::Link(_) => {
                        let flit = self.pop_input(i);
                        if !flit.is_tail() {
                            self.dropping[idx] = Some(flit.packet_id());
                        }
                    }
                    InPort::Inject => {
                        debug_assert_eq!(self.inject_sent, 0);
                        self.inject_queue.pop_front();
                    }
                }
                self.monitors.dropped_packets += 1;
                dropped += 1;
                self.blocked[idx] = 0;
            }
        }
        dropped
    }
}

/// The set bits of `word`, lowest first.
pub(crate) fn set_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let bit = word.trailing_zeros() as usize;
        word &= word.wrapping_sub(1);
        (bit < 64).then_some(bit)
    })
}

/// The first input of the non-empty 5-input mask `candidates` at or
/// cyclically after input `start` — round-robin arbitration as one
/// rotate and one trailing-zero count.
fn round_robin_pick(candidates: u8, start: u8) -> usize {
    debug_assert!(candidates != 0 && candidates < 1 << 5 && start < 5);
    let rotated = ((candidates >> start) | (candidates << (5 - start))) & 0x1f;
    (start as usize + rotated.trailing_zeros() as usize) % 5
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> RouterConfig {
        RouterConfig::default()
    }

    fn router() -> Router {
        let mut r = Router::new(NodeId::new(9), Coord::new(1, 1), &config());
        r.set_grid_width(8);
        r
    }

    fn packet(dest: u16, task: u8, payload: u8) -> Packet {
        Packet {
            id: PacketId::new(1),
            src: NodeId::new(9),
            dest: NodeId::new(dest),
            task: TaskId::new(task),
            kind: PacketKind::Data,
            payload_flits: payload,
            created_cycle: 0,
            bounces: 0,
        }
    }

    #[test]
    fn xy_preferences() {
        let r = router();
        // Router at (1,1) on an 8-wide grid. Node 12 is (4,1): go east.
        assert_eq!(
            r.preferences(&packet(12, 0, 0), 0),
            [Some(OutPort::Link(Direction::East)), None]
        );
        // Node 1 is (1,0): x aligned, go north.
        assert_eq!(
            r.preferences(&packet(1, 0, 0), 0),
            [Some(OutPort::Link(Direction::North)), None]
        );
        // Node 9 is self: internal.
        assert_eq!(
            r.preferences(&packet(9, 0, 0), 0),
            [Some(OutPort::Internal), None]
        );
    }

    #[test]
    fn yx_and_adaptive_preferences() {
        let mut r = router();
        // Node 26 is (2,3): dx=+1, dy=+2.
        r.settings_mut().route_mode = RouteMode::Yx;
        assert_eq!(
            r.preferences(&packet(26, 0, 0), 0),
            [Some(OutPort::Link(Direction::South)), None]
        );
        r.settings_mut().route_mode = RouteMode::Adaptive;
        assert_eq!(
            r.preferences(&packet(26, 0, 0), 0),
            [
                Some(OutPort::Link(Direction::East)),
                Some(OutPort::Link(Direction::South))
            ]
        );
    }

    #[test]
    fn config_packets_route_to_rcap() {
        let r = router();
        let mut p = packet(9, 0, 0);
        p.kind = PacketKind::Config(RcapCommand::SetRedirectAge(5));
        assert_eq!(r.preferences(&p, 0), [Some(OutPort::Rcap), None]);
    }

    #[test]
    fn opportunistic_absorption_requires_all_conditions() {
        let mut r = router();
        r.settings_mut().opportunistic_delivery = true;
        r.settings_mut().redirect_age = 100;
        r.settings_mut().local_task = Some(TaskId::new(2));
        let p = packet(30, 2, 0); // not for us, task matches
                                  // Too young: routed normally.
        assert_ne!(r.preferences(&p, 50), [Some(OutPort::Internal), None]);
        // Old enough: absorbed.
        assert_eq!(r.preferences(&p, 150), [Some(OutPort::Internal), None]);
        // Wrong task: routed normally.
        let q = packet(30, 1, 0);
        assert_ne!(r.preferences(&q, 150), [Some(OutPort::Internal), None]);
        // Feature off: routed normally.
        r.settings_mut().opportunistic_delivery = false;
        assert_ne!(r.preferences(&p, 150), [Some(OutPort::Internal), None]);
    }

    #[test]
    fn apply_config_updates_settings() {
        let mut r = router();
        r.apply_config(RcapCommand::SetDeadlockTimeout(99));
        assert_eq!(r.settings().deadlock_timeout, 99);
        r.apply_config(RcapCommand::SetRouteMode(RouteMode::Adaptive));
        assert_eq!(r.settings().route_mode, RouteMode::Adaptive);
        r.apply_config(RcapCommand::SetPortEnabled(Port::East, false));
        assert!(!r.settings().port_enabled[Port::East.index()]);
        r.apply_config(RcapCommand::AimWrite { reg: 2, value: 7 });
        assert_eq!(r.take_aim_writes(), vec![(2, 7)]);
        assert_eq!(r.monitors().rcap_commands, 4);
    }

    #[test]
    fn kill_clears_everything() {
        let mut r = router();
        r.enqueue_inject(packet(12, 0, 2));
        r.kill();
        assert!(!r.settings().alive);
        assert_eq!(r.inject_backlog(), 0);
        assert!(r.settings().port_enabled.iter().all(|&e| !e));
    }

    #[test]
    fn monitors_take_resets() {
        let mut m = RouterMonitors::new(3);
        m.routed_per_task[1] = 5;
        assert_eq!(m.routed_per_task(), &[0, 5, 0]);
        assert_eq!(m.take_routed_per_task(), vec![0, 5, 0]);
        assert_eq!(m.routed_per_task(), &[0, 0, 0]);
    }

    /// The nested-loop planner the one-pass [`Router::plan_into`]
    /// replaced: for every output it re-derives each input's request from
    /// scratch. Kept as the reference the planner is checked against.
    fn plan_reference(
        r: &Router,
        now: Cycle,
        credit: &impl Fn(Direction) -> bool,
        plan: &mut RouterPlan,
    ) {
        plan.clear();
        if !r.settings.alive {
            return;
        }
        let mut granted = [false; 5];
        for i in InPort::ALL {
            if let Some(id) = r.dropping[i.index()] {
                if let Some(f) = r.head_flit(i) {
                    if f.packet_id() == id {
                        plan.push_consume(i);
                        granted[i.index()] = true;
                    }
                }
            }
        }
        for o in OutPort::ALL {
            if let Some(i) = r.out_alloc[o.index()] {
                if granted[i.index()] {
                    continue;
                }
                if r.head_flit(i).is_some() && r.output_flowing(o, credit) {
                    plan.push_move(Move {
                        input: i,
                        output: o,
                    });
                    granted[i.index()] = true;
                }
                continue;
            }
            if !r.output_available(o, credit) {
                continue;
            }
            let mut candidate = [false; 5];
            let mut any = false;
            for i in InPort::ALL {
                if granted[i.index()]
                    || r.circuits[i.index()].is_some()
                    || r.dropping[i.index()].is_some()
                {
                    continue;
                }
                let Some(Flit::Head { pkt, .. }) = r.head_flit(i) else {
                    continue;
                };
                let first_available = r
                    .preferences(&pkt, now)
                    .iter()
                    .flatten()
                    .copied()
                    .find(|&p| r.output_available(p, credit));
                if first_available == Some(o) {
                    candidate[i.index()] = true;
                    any = true;
                }
            }
            if !any {
                continue;
            }
            let start = r.rr[o.index()] as usize;
            let pick = (0..5)
                .map(|k| (start + k) % 5)
                .find(|&idx| candidate[idx])
                .expect("at least one candidate exists");
            plan.push_move(Move {
                input: InPort::ALL[pick],
                output: o,
            });
            granted[pick] = true;
        }
    }

    /// splitmix64: a dependency-free source of random router states.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn chance(&mut self, percent: u64) -> bool {
            self.below(100) < percent
        }
    }

    /// A random router state: heads (or body flits) on any of the five
    /// inputs, circuits, dropping inputs, port enables, `rr` pointers,
    /// every route mode and opportunistic delivery. Heads are biased
    /// towards a few destinations so inputs often contend for an output.
    fn random_router(rng: &mut Mix) -> Router {
        let (w, h) = (2 + rng.below(6) as u16, 2 + rng.below(6) as u16);
        let (x, y) = (rng.below(w as u64) as u16, rng.below(h as u64) as u16);
        let node = y * w + x;
        let mut r = Router::new(NodeId::new(node), Coord::new(x, y), &config());
        r.set_grid_width(w);
        let n = (w * h) as u64;
        let hot = [rng.below(n) as u16, rng.below(n) as u16, node];
        let mut next_id = 0u64;
        let mut packet = |rng: &mut Mix| {
            next_id += 1;
            let dest = if rng.chance(70) {
                hot[rng.below(3) as usize]
            } else {
                rng.below(n) as u16
            };
            let kind = if rng.chance(20) {
                PacketKind::Config(RcapCommand::SetRedirectAge(1))
            } else {
                PacketKind::Data
            };
            Packet {
                id: PacketId::new(next_id),
                src: NodeId::new(rng.below(n) as u16),
                dest: NodeId::new(dest),
                task: TaskId::new(rng.below(3) as u8),
                kind,
                payload_flits: rng.below(4) as u8,
                created_cycle: rng.below(200),
                bounces: 0,
            }
        };
        let s = &mut r.settings;
        s.alive = rng.chance(95);
        s.route_mode = [RouteMode::Xy, RouteMode::Yx, RouteMode::Adaptive][rng.below(3) as usize];
        s.opportunistic_delivery = rng.chance(50);
        s.redirect_age = rng.below(100);
        s.local_task = rng.chance(70).then(|| TaskId::new(rng.below(3) as u8));
        for e in &mut s.port_enabled {
            *e = rng.chance(85);
        }
        for d in Direction::ALL {
            for _ in 0..rng.below(4) {
                let flit = if rng.chance(60) {
                    Flit::Head {
                        pkt: packet(rng),
                        is_tail: rng.chance(30),
                    }
                } else {
                    Flit::Body {
                        id: PacketId::new(rng.below(4)),
                        is_tail: rng.chance(30),
                    }
                };
                r.inputs[d.index()].push(flit);
            }
        }
        for _ in 0..rng.below(3) {
            r.inject_queue.push_back(packet(rng));
        }
        if let Some(front) = r.inject_queue.front() {
            if rng.chance(30) {
                r.inject_sent = rng.below(front.wire_flits() as u64) as u32;
            }
        }
        // Circuits pair inputs with distinct outputs, as commit_move does.
        for i in InPort::ALL {
            if rng.chance(25) {
                let o = OutPort::ALL[rng.below(6) as usize];
                if r.out_alloc[o.index()].is_none() {
                    r.circuits[i.index()] = Some(o);
                    r.out_alloc[o.index()] = Some(i);
                }
            }
            if rng.chance(15) {
                let id = match r.head_flit(i) {
                    Some(f) if rng.chance(70) => f.packet_id(),
                    _ => PacketId::new(rng.below(4)),
                };
                r.dropping[i.index()] = Some(id);
            }
        }
        for p in &mut r.rr {
            *p = rng.below(5) as u8;
        }
        r
    }

    #[test]
    fn one_pass_planner_matches_the_nested_loop_reference() {
        let mut rng = Mix(0x51A7_C0DE);
        let (mut contended, mut moves) = (0, 0);
        for case in 0..20_000 {
            let r = random_router(&mut rng);
            let credits: [bool; 4] = std::array::from_fn(|_| rng.chance(75));
            let credit = |d: Direction| credits[d.index()];
            let now = 100 + rng.below(200);
            let (mut got, mut want) = (RouterPlan::default(), RouterPlan::default());
            r.plan_into(now, credit, &mut got);
            plan_reference(&r, now, &credit, &mut want);
            let view = |p: &RouterPlan| {
                (
                    p.consumes().collect::<Vec<_>>(),
                    p.moves().collect::<Vec<_>>(),
                )
            };
            assert_eq!(view(&got), view(&want), "case {case}: {r:?}");
            moves += got.move_count();
            let heads = InPort::ALL
                .iter()
                .filter(|&&i| matches!(r.head_flit(i), Some(Flit::Head { .. })))
                .count();
            contended += usize::from(heads >= 3);
        }
        // The generator must actually exercise arbitration.
        assert!(contended > 2_000, "only {contended} contended states");
        assert!(moves > 10_000, "only {moves} moves planned");
    }

    #[test]
    fn inject_head_flit_synthesis() {
        let mut r = router();
        assert!(r.head_flit(InPort::Inject).is_none());
        r.enqueue_inject(packet(12, 1, 1));
        match r.head_flit(InPort::Inject) {
            Some(Flit::Head { pkt, is_tail }) => {
                assert_eq!(pkt.dest, NodeId::new(12));
                assert!(!is_tail);
            }
            other => panic!("expected head flit, got {other:?}"),
        }
    }
}
