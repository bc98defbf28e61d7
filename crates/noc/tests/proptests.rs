//! Property-based tests: flit conservation and determinism under random
//! traffic, including random fault and configuration churn, the worklist
//! stepper against the exhaustive one, and the inline flit ring against a
//! `VecDeque` model.

use std::collections::VecDeque;

use proptest::prelude::*;

use sirtm_noc::buffer::DEPTH;
use sirtm_noc::{
    Flit, FlitBuffer, Mesh, NodeId, PacketId, PacketKind, Port, RcapCommand, RouteMode,
    RouterConfig,
};
use sirtm_taskgraph::{GridDims, TaskId};

#[derive(Debug, Clone)]
struct TrafficCase {
    width: u16,
    height: u16,
    sends: Vec<(u16, u16, u8, u8)>, // (src, dest, task, payload)
    kills: Vec<u16>,
    adaptive: bool,
}

fn traffic_case() -> impl Strategy<Value = TrafficCase> {
    (2u16..6, 2u16..6, any::<bool>())
        .prop_flat_map(|(w, h, adaptive)| {
            let nodes = w * h;
            let send = (0..nodes, 0..nodes, 0u8..3, 0u8..6);
            let kill = proptest::collection::vec(0..nodes, 0..2);
            (
                Just(w),
                Just(h),
                proptest::collection::vec(send, 1..40),
                kill,
                Just(adaptive),
            )
        })
        .prop_map(|(width, height, sends, kills, adaptive)| TrafficCase {
            width,
            height,
            sends,
            kills,
            adaptive,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Conservation: every injected packet is eventually delivered,
    /// consumed by RCAP or dropped — never duplicated, never lost.
    #[test]
    fn flit_conservation(case in traffic_case()) {
        let config = RouterConfig {
            deadlock_timeout: 50, // recover fast so tests drain
            ..RouterConfig::default()
        };
        let mut mesh = Mesh::new(GridDims::new(case.width, case.height), config);
        if case.adaptive {
            for i in 0..(case.width * case.height) {
                mesh.apply_config_direct(
                    NodeId::new(i),
                    RcapCommand::SetRouteMode(RouteMode::Adaptive),
                );
            }
        }
        for &k in &case.kills {
            mesh.router_mut(NodeId::new(k)).kill();
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
                mesh.router_mut(NodeId::new(k)).kill();
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
    /// A `SetRouteMode(Adaptive)` config packet from `src` to `dest`.
    Adaptive {
        src: u16,
        dest: u16,
    },
}

#[derive(Debug, Clone)]
struct FabricCase {
    width: u16,
    height: u16,
    deadlock_timeout: u64,
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
        1 => (any::<u16>(), any::<u16>()).prop_map(|(src, dest)| Event::Adaptive { src, dest }),
    ]
}

fn fabric_case() -> impl Strategy<Value = FabricCase> {
    (
        2u16..6,
        2u16..6,
        3u64..40,
        any::<bool>(),
        prop_oneof![Just(u64::MAX), 2u64..9],
        proptest::collection::vec((0u64..250, event()), 1..60),
    )
        .prop_map(
            |(width, height, deadlock_timeout, opportunistic, mix_every, events)| FabricCase {
                width,
                height,
                deadlock_timeout,
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
        Event::Kill(node) => mesh.router_mut(n(node)).kill(),
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
        Event::Adaptive { src, dest } => {
            mesh.send_config(
                n(src),
                n(dest),
                RcapCommand::SetRouteMode(RouteMode::Adaptive),
            );
        }
    }
}

/// Twin meshes, one stepped by [`Mesh::step`] and one by
/// [`Mesh::step_naive`], from a case's configuration.
fn twins(case: &FabricCase) -> (Mesh, Mesh) {
    let config = RouterConfig {
        deadlock_timeout: case.deadlock_timeout,
        redirect_age: 10,
        opportunistic_delivery: case.opportunistic,
        ..RouterConfig::default()
    };
    let mut mesh = Mesh::new(GridDims::new(case.width, case.height), config);
    for i in 0..mesh.dims().len() {
        mesh.router_mut(NodeId::new(i as u16))
            .settings_mut()
            .local_task = Some(TaskId::new((i % 3) as u8));
    }
    (mesh.clone(), mesh)
}

/// Drains every fresh delivery, as the platform does each cycle.
fn drain(mesh: &mut Mesh) {
    for k in 0..mesh.fresh_delivered().len() {
        let node = NodeId::new(mesh.fresh_delivered()[k]);
        while mesh.pop_delivered(node).is_some() {}
    }
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
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The worklist stepper is decision-for-decision identical to the
    /// exhaustive one under random traffic, mid-run tile deaths, in-band
    /// port disables and route-mode switches, and a short deadlock
    /// timeout — compared router by router, every cycle.
    #[test]
    fn worklist_step_matches_naive_step(case in fabric_case()) {
        let (mut fast, mut naive) = twins(&case);
        for cycle in 0..400u64 {
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
            drain(&mut fast);
            drain(&mut naive);
        }
    }
}

/// Regression: a flit that arrives at an idle router is aged in its
/// arrival cycle. The blocked pass must cover routers that only received
/// a flit this cycle, not just the ones that planned; skipping them
/// delays every deadlock drop by one cycle.
#[test]
fn arrival_cycle_ages_a_flit_at_an_idle_router() {
    let config = RouterConfig {
        deadlock_timeout: 3,
        ..RouterConfig::default()
    };
    let mut fast = Mesh::new(GridDims::new(3, 1), config);
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
    for cycle in 0..10u64 {
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
            assert_eq!(
                fast.router(NodeId::new(1)).monitors().blocked_head_cycles,
                1
            );
        }
        if dropped_at.is_none() && fast.stats().dropped == 1 {
            dropped_at = Some(cycle);
        }
    }
    // Blocked for cycles 0, 1, 2 and 3; the count exceeds the timeout on
    // cycle 3 and recovery drops the packet.
    assert_eq!(dropped_at, Some(3));
}

#[derive(Debug, Clone, Copy)]
enum BufferOp {
    /// Push a body flit with this id (skipped when the buffer is full).
    Push(u64),
    Pop,
    Clear,
}

fn buffer_op() -> impl Strategy<Value = BufferOp> {
    prop_oneof![
        6 => any::<u64>().prop_map(BufferOp::Push),
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
                BufferOp::Push(id) => {
                    let flit = Flit::Body { id: PacketId::new(id), is_tail: id % 3 == 0 };
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
            prop_assert_eq!(ring.head(), model.front());
            prop_assert!(ring.iter().eq(model.iter()));
            let mut fresh = FlitBuffer::new();
            for &flit in &model {
                fresh.push(flit);
            }
            prop_assert_eq!(&ring, &fresh);
        }
    }
}
