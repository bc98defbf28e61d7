//! Property-based tests: flit conservation and determinism under random
//! traffic, including random fault and configuration churn, the worklist
//! stepper against the exhaustive one, packet-slab lifetimes, and the
//! inline flit ring against a `VecDeque` model.

use std::collections::VecDeque;

use proptest::prelude::*;

use sirtm_noc::buffer::DEPTH;
use sirtm_noc::{
    Flit, FlitBuffer, Mesh, NodeId, PacketKind, Port, RcapCommand, RouterConfig, DEADLOCK_TIMEOUT,
};
use sirtm_taskgraph::{GridDims, TaskId};

#[derive(Debug, Clone)]
struct TrafficCase {
    width: u16,
    height: u16,
    sends: Vec<(u16, u16, u8, u8)>, // (src, dest, task, payload)
    kills: Vec<u16>,
}

fn traffic_case() -> impl Strategy<Value = TrafficCase> {
    (2u16..6, 2u16..6)
        .prop_flat_map(|(w, h)| {
            let nodes = w * h;
            let send = (0..nodes, 0..nodes, 0u8..3, 0u8..6);
            let kill = proptest::collection::vec(0..nodes, 0..2);
            (
                Just(w),
                Just(h),
                proptest::collection::vec(send, 1..40),
                kill,
            )
        })
        .prop_map(|(width, height, sends, kills)| TrafficCase {
            width,
            height,
            sends,
            kills,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Conservation: every injected packet is eventually delivered,
    /// consumed by RCAP or dropped — never duplicated, never lost.
    #[test]
    fn flit_conservation(case in traffic_case()) {
        let mut mesh = Mesh::new(
            GridDims::new(case.width, case.height),
            RouterConfig::default(),
        );
        for &k in &case.kills {
            mesh.kill(NodeId::new(k));
        }
        let mut injected = 0u64;
        for &(src, dest, task, payload) in &case.sends {
            if !mesh.router(NodeId::new(src)).settings().alive {
                continue; // dead nodes cannot inject
            }
            mesh.inject(
                NodeId::new(src),
                NodeId::new(dest),
                TaskId::new(task),
                PacketKind::Data,
                payload,
            );
            injected += 1;
        }
        // Long enough for worst-case drains including recovery timeouts.
        let drained = mesh.quiesce(20_000);
        prop_assert!(drained, "fabric failed to drain: {:?}", mesh.stats());
        let stats = mesh.stats();
        prop_assert_eq!(stats.injected, injected);
        prop_assert_eq!(
            stats.delivered + stats.dropped + stats.config_consumed,
            injected,
            "conservation violated: {:?}", stats
        );
    }

    /// Determinism: identical runs produce identical statistics.
    #[test]
    fn deterministic_under_random_traffic(case in traffic_case()) {
        let run = || {
            let mut mesh = Mesh::new(
                GridDims::new(case.width, case.height),
                RouterConfig::default(),
            );
            for &k in &case.kills {
                mesh.kill(NodeId::new(k));
            }
            for &(src, dest, task, payload) in &case.sends {
                if mesh.router(NodeId::new(src)).settings().alive {
                    mesh.inject(
                        NodeId::new(src),
                        NodeId::new(dest),
                        TaskId::new(task),
                        PacketKind::Data,
                        payload,
                    );
                }
            }
            for _ in 0..800 {
                mesh.step();
            }
            mesh.stats()
        };
        prop_assert_eq!(run(), run());
    }

    /// Without faults, XY routing delivers everything (no drops): XY on a
    /// mesh is deadlock-free and recovery should never fire.
    #[test]
    fn xy_is_deadlock_free(case in traffic_case()) {
        let mut mesh = Mesh::new(
            GridDims::new(case.width, case.height),
            RouterConfig::default(),
        );
        for &(src, dest, task, payload) in &case.sends {
            mesh.inject(
                NodeId::new(src),
                NodeId::new(dest),
                TaskId::new(task),
                PacketKind::Data,
                payload,
            );
        }
        prop_assert!(mesh.quiesce(50_000));
        prop_assert_eq!(mesh.stats().dropped, 0, "XY must not drop: {:?}", mesh.stats());
        prop_assert_eq!(mesh.stats().delivered, mesh.stats().injected);
    }
}

/// One event of a [`FabricCase`]; node numbers wrap onto the grid.
#[derive(Debug, Clone)]
enum Event {
    Send {
        src: u16,
        dest: u16,
        task: u8,
        payload: u8,
    },
    Kill(u16),
    /// A `SetPortEnabled` config packet from `src` to `dest`.
    Port {
        src: u16,
        dest: u16,
        port: u8,
        on: bool,
    },
    /// An `AimWrite` config packet from `src` to `dest`.
    AimWrite {
        src: u16,
        dest: u16,
    },
}

#[derive(Debug, Clone)]
struct FabricCase {
    width: u16,
    height: u16,
    opportunistic: bool,
    /// Every `mix_every`-th cycle the worklist twin takes a naive step
    /// instead, to check that the two steppers can be mixed.
    mix_every: u64,
    /// `(cycle, event)`, applied to both twins before that cycle's step.
    events: Vec<(u64, Event)>,
}

fn event() -> impl Strategy<Value = Event> {
    prop_oneof![
        8 => (any::<u16>(), any::<u16>(), 0u8..3, 0u8..6)
            .prop_map(|(src, dest, task, payload)| Event::Send { src, dest, task, payload }),
        1 => any::<u16>().prop_map(Event::Kill),
        2 => (any::<u16>(), any::<u16>(), 0u8..6, any::<bool>())
            .prop_map(|(src, dest, port, on)| Event::Port { src, dest, port, on }),
        1 => (any::<u16>(), any::<u16>()).prop_map(|(src, dest)| Event::AimWrite { src, dest }),
    ]
}

fn fabric_case() -> impl Strategy<Value = FabricCase> {
    (
        2u16..6,
        2u16..6,
        any::<bool>(),
        prop_oneof![Just(u64::MAX), 2u64..9],
        proptest::collection::vec((0u64..250, event()), 1..60),
    )
        .prop_map(
            |(width, height, opportunistic, mix_every, events)| FabricCase {
                width,
                height,
                opportunistic,
                mix_every,
                events,
            },
        )
}

fn apply_event(mesh: &mut Mesh, event: &Event) {
    let nodes = mesh.dims().len() as u16;
    let n = |raw: u16| NodeId::new(raw % nodes);
    match *event {
        Event::Send {
            src,
            dest,
            task,
            payload,
        } => {
            mesh.inject(
                n(src),
                n(dest),
                TaskId::new(task),
                PacketKind::Data,
                payload,
            );
        }
        Event::Kill(node) => mesh.kill(n(node)),
        Event::Port {
            src,
            dest,
            port,
            on,
        } => {
            mesh.send_config(
                n(src),
                n(dest),
                RcapCommand::SetPortEnabled(Port::ALL[port as usize], on),
            );
        }
        Event::AimWrite { src, dest } => {
            mesh.send_config(n(src), n(dest), RcapCommand::AimWrite { reg: 1, value: 2 });
        }
    }
}

/// Twin meshes, one stepped by [`Mesh::step`] and one by
/// [`Mesh::step_naive`], from a case's configuration.
fn twins(case: &FabricCase) -> (Mesh, Mesh) {
    let config = RouterConfig {
        opportunistic_delivery: case.opportunistic,
        ..RouterConfig::default()
    };
    let mut mesh = Mesh::new(GridDims::new(case.width, case.height), config);
    for i in 0..mesh.dims().len() {
        mesh.set_local_task(NodeId::new(i as u16), Some(TaskId::new((i % 3) as u8)));
    }
    (mesh.clone(), mesh)
}

/// Drains every fresh delivery, as the platform does each cycle, and
/// returns how many were absorbed by a node other than their
/// destination.
fn drain(mesh: &mut Mesh) -> u64 {
    let mut absorbed = 0;
    for k in 0..mesh.fresh_delivered().len() {
        let node = NodeId::new(mesh.fresh_delivered()[k]);
        while let Some(pkt) = mesh.pop_delivered(node) {
            absorbed += u64::from(pkt.dest != node);
        }
    }
    absorbed
}

/// Asserts the twins agree on everything a step can change.
fn assert_twins_equal(fast: &Mesh, naive: &Mesh) {
    let cycle = naive.cycle();
    assert_eq!(fast.cycle(), cycle);
    assert_eq!(
        fast.stats(),
        naive.stats(),
        "stats diverged at cycle {cycle}"
    );
    assert_eq!(
        fast.fresh_delivered(),
        naive.fresh_delivered(),
        "fresh deliveries diverged at cycle {cycle}"
    );
    assert_eq!(
        fast.is_settled_idle(),
        naive.is_settled_idle(),
        "settled diverged at cycle {cycle}"
    );
    for (i, (a, b)) in fast.routers().zip(naive.routers()).enumerate() {
        assert!(
            a == b,
            "router {i} diverged at cycle {cycle}:\n{a:?}\nvs\n{b:?}"
        );
    }
    assert!(
        fast == naive,
        "monitors, queues or packet slab diverged at cycle {cycle}"
    );
}

/// Steps a case's twins, applying each event before its cycle's step,
/// until `2 * DEADLOCK_TIMEOUT` cycles after the last event — long
/// enough for a packet blocked by that event to be dropped and for
/// packets it strands to be dropped or absorbed in turn — and asserts
/// they agree router by router every cycle. Returns the packets dropped
/// and the packets absorbed away from their destination.
fn run_twins(case: &FabricCase) -> (u64, u64) {
    let (mut fast, mut naive) = twins(case);
    let last_event = case.events.iter().map(|&(at, _)| at).max().unwrap_or(0);
    let mut absorbed = 0;
    for cycle in 0..=last_event + 2 * DEADLOCK_TIMEOUT {
        for (_, event) in case.events.iter().filter(|(at, _)| *at == cycle) {
            apply_event(&mut fast, event);
            apply_event(&mut naive, event);
        }
        if cycle % case.mix_every == 0 {
            fast.step_naive();
        } else {
            fast.step();
        }
        naive.step_naive();
        assert_twins_equal(&fast, &naive);
        absorbed += drain(&mut fast);
        drain(&mut naive);
    }
    (naive.stats().dropped, absorbed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The worklist stepper is decision-for-decision identical to the
    /// exhaustive one under random traffic, mid-run tile deaths, in-band
    /// port disables and AIM writes, deadlock drops and opportunistic
    /// absorption — compared router by router, every cycle.
    #[test]
    fn worklist_step_matches_naive_step(case in fabric_case()) {
        run_twins(&case);
    }
}

/// Fixed twin-checked cases that reach the recovery paths under the
/// production timeouts: a packet bound for a dead tile is dropped, or,
/// when the tile before it runs the packet's task, absorbed there once
/// aged.
#[test]
fn twins_agree_on_a_drop_and_an_aged_absorption() {
    let case = |opportunistic, mix_every| FabricCase {
        width: 4,
        height: 1,
        opportunistic,
        mix_every,
        // n2 runs task 2 (`twins` maps node i to task i % 3).
        events: vec![
            (0, Event::Kill(3)),
            (
                1,
                Event::Send {
                    src: 0,
                    dest: 3,
                    task: 2,
                    payload: 1,
                },
            ),
        ],
    };
    assert_eq!(run_twins(&case(false, u64::MAX)), (1, 0), "dropped");
    assert_eq!(run_twins(&case(true, 3)), (0, 1), "absorbed");
}

/// Regression: a flit that arrives at an idle router is aged in its
/// arrival cycle. The blocked pass must cover routers that only received
/// a flit this cycle, not just the ones that planned; skipping them
/// delays every deadlock drop by one cycle.
#[test]
fn arrival_cycle_ages_a_flit_at_an_idle_router() {
    let mut fast = Mesh::new(GridDims::new(3, 1), RouterConfig::default());
    // n1 cannot forward east, so the packet's head stalls there.
    fast.apply_config_direct(
        NodeId::new(1),
        RcapCommand::SetPortEnabled(Port::East, false),
    );
    fast.inject(
        NodeId::new(0),
        NodeId::new(2),
        TaskId::new(0),
        PacketKind::Data,
        0,
    );
    let mut naive = fast.clone();
    let mut dropped_at = None;
    for cycle in 0..DEADLOCK_TIMEOUT + 10 {
        fast.step();
        naive.step_naive();
        assert_twins_equal(&fast, &naive);
        if cycle == 0 {
            // The head crossed n0 → n1 this cycle and is already blocked.
            assert_eq!(
                fast.router(NodeId::new(1))
                    .input_occupancy(sirtm_noc::Direction::West),
                1
            );
        }
        if dropped_at.is_none() && fast.stats().dropped == 1 {
            dropped_at = Some(cycle);
        }
    }
    // Blocked for cycles 0 to DEADLOCK_TIMEOUT; the count exceeds the
    // timeout on cycle DEADLOCK_TIMEOUT and recovery drops the packet. A
    // head first aged the cycle after it arrived would drop a cycle
    // later.
    assert_eq!(dropped_at, Some(DEADLOCK_TIMEOUT));
}

/// Asserts that `mesh`'s packet slab holds exactly the packets its
/// routers still reference.
fn assert_slab_exact(mesh: &Mesh, when: &str) {
    assert_eq!(
        mesh.live_slots(),
        mesh.referenced_slots(),
        "live slab slots vs referenced slots {when} at cycle {}",
        mesh.cycle()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Packet-slab lifetimes under random traffic, tile deaths, in-band
    /// port disables and the deadlock drops they cause: after every
    /// event and every step (the worklist stepper, mixed with the naive
    /// one as in the twin search), the live slots are exactly the slots
    /// a buffered flit, an injection queue, a receiving internal port or
    /// a discarding input still references — nothing is freed while
    /// referenced and nothing leaks through `kill`. Each case runs
    /// `2 * DEADLOCK_TIMEOUT` cycles past its last event, long enough for
    /// the heads that event strands to be dropped.
    #[test]
    fn slab_slots_live_exactly_while_referenced(case in fabric_case()) {
        let (mut mesh, _) = twins(&case);
        let last_event = case.events.iter().map(|&(at, _)| at).max().unwrap_or(0);
        for cycle in 0..=last_event + 2 * DEADLOCK_TIMEOUT {
            for (_, event) in case.events.iter().filter(|(at, _)| *at == cycle) {
                apply_event(&mut mesh, event);
                assert_slab_exact(&mesh, "after an event");
            }
            if cycle % case.mix_every == 0 {
                mesh.step_naive();
            } else {
                mesh.step();
            }
            assert_slab_exact(&mesh, "after a step");
            drain(&mut mesh);
        }
    }
}

/// The slab property's recovery paths on a fixed case. A six-flit packet
/// is dropped at a closed port: the drop holds its slot while the body
/// flits drain and frees it with the tail. Then a packet straddling two
/// tiles loses its sender to a kill — its slot stays live while the
/// receiving tile still holds its head — and is freed when that tile
/// dies too.
#[test]
fn slab_releases_drops_and_kills() {
    let mut mesh = Mesh::new(GridDims::new(4, 1), RouterConfig::default());
    let n = NodeId::new;
    mesh.apply_config_direct(n(2), RcapCommand::SetPortEnabled(Port::East, false));
    mesh.inject(n(0), n(3), TaskId::new(0), PacketKind::Data, 5);
    let mut live_at_drop = None;
    for _ in 0..2 * DEADLOCK_TIMEOUT {
        mesh.step();
        assert_slab_exact(&mesh, "while dropping");
        if mesh.stats().dropped == 1 && live_at_drop.is_none() {
            live_at_drop = Some(mesh.live_slots());
        }
    }
    assert_eq!(live_at_drop, Some(vec![0]), "the drop holds the slot");
    assert!(mesh.live_slots().is_empty(), "the tail frees it");

    mesh.inject(n(1), n(0), TaskId::new(0), PacketKind::Data, 5);
    for _ in 0..3 {
        mesh.step();
    }
    mesh.kill(n(1));
    assert_slab_exact(&mesh, "after the sender's death");
    assert_eq!(mesh.live_slots(), [0], "n0 is still receiving the packet");
    mesh.kill(n(0));
    assert_slab_exact(&mesh, "after the receiver's death");
    assert!(mesh.live_slots().is_empty(), "no holder is left");
}

#[derive(Debug, Clone, Copy)]
enum BufferOp {
    /// Push a body flit of this slot (skipped when the buffer is full).
    Push(u32),
    Pop,
    Clear,
}

fn buffer_op() -> impl Strategy<Value = BufferOp> {
    prop_oneof![
        6 => (0..=Flit::MAX_SLOT).prop_map(BufferOp::Push),
        5 => Just(BufferOp::Pop),
        1 => Just(BufferOp::Clear),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The inline ring behaves as a bounded FIFO: after every push, pop
    /// and clear, including many trips around the ring, `len`, `free`,
    /// `head` and `iter` agree with a `VecDeque` model, and the buffer
    /// equals a fresh one holding the same flits (stale slots and ring
    /// position are not observable).
    #[test]
    fn flit_ring_matches_a_vecdeque_model(
        ops in proptest::collection::vec(buffer_op(), 1..200),
    ) {
        let mut ring = FlitBuffer::new();
        let mut model: VecDeque<Flit> = VecDeque::new();
        for op in ops {
            match op {
                BufferOp::Push(slot) => {
                    let flit = Flit::of_packet(slot, 1 + slot % 2, 3);
                    if model.len() < DEPTH {
                        ring.push(flit);
                        model.push_back(flit);
                    }
                }
                BufferOp::Pop => prop_assert_eq!(ring.pop(), model.pop_front()),
                BufferOp::Clear => {
                    ring.clear();
                    model.clear();
                }
            }
            prop_assert_eq!(ring.len(), model.len());
            prop_assert_eq!(ring.free(), DEPTH - model.len());
            prop_assert_eq!(ring.is_empty(), model.is_empty());
            prop_assert_eq!(ring.is_full(), model.len() == DEPTH);
            prop_assert_eq!(ring.head(), model.front().copied());
            prop_assert!(ring.iter().eq(model.iter().copied()));
            let mut fresh = FlitBuffer::new();
            for &flit in &model {
                fresh.push(flit);
            }
            prop_assert_eq!(&ring, &fresh);
        }
    }
}
