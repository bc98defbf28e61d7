//! Micro-benchmarks of the SIRTM substrates: NoC cycle cost (idle and
//! loaded), platform cycle cost, AIM scan cost (behavioural vs PicoBlaze
//! firmware), raw PicoBlaze interpretation and assembly.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use sirtm_centurion::{Platform, PlatformConfig};
use sirtm_core::io::MockAimIo;
use sirtm_core::models::{FfwConfig, ModelKind, NiConfig};
use sirtm_noc::{
    Coord, Direction, Mesh, NodeId, Packet, PacketId, PacketKind, Router, RouterConfig, RouterPlan,
};
use sirtm_picoblaze::vm::{Picoblaze, SparseIo};
use sirtm_picoblaze::{asm, Condition, Instruction};
use sirtm_rng::{Rng, Xoshiro256StarStar};
use sirtm_taskgraph::{workloads, GridDims, Mapping, TaskId};

fn mesh_cycle(c: &mut Criterion) {
    let dims = GridDims::new(8, 16);
    let mut group = c.benchmark_group("mesh_cycle");
    group.bench_function("idle_128_routers", |b| {
        let mut mesh = Mesh::new(dims, RouterConfig::default());
        b.iter(|| {
            mesh.step();
            black_box(mesh.cycle())
        });
    });
    group.bench_function("loaded_128_routers", |b| {
        let mut mesh = Mesh::new(dims, RouterConfig::default());
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        b.iter(|| {
            // Keep ~32 packets in flight.
            if mesh.stats().in_flight() < 32 {
                let src = NodeId::new(rng.range_u32(0..128) as u16);
                let dst = NodeId::new(rng.range_u32(0..128) as u16);
                mesh.inject(src, dst, TaskId::new(0), PacketKind::Data, 4);
            }
            mesh.step();
            drain_deliveries(&mut mesh);
            black_box(mesh.cycle())
        });
    });
    group.bench_function("saturated_128_routers", |b| {
        // Every router holds a backlog: the plan/arbitrate path runs for
        // all 128 tiles every cycle (contrast with the idle fast path).
        let mut mesh = Mesh::new(dims, RouterConfig::default());
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        b.iter(|| {
            while mesh.stats().in_flight() < 512 {
                let src = NodeId::new(rng.range_u32(0..128) as u16);
                let dst = NodeId::new(rng.range_u32(0..128) as u16);
                mesh.inject(src, dst, TaskId::new(0), PacketKind::Data, 4);
            }
            mesh.step();
            drain_deliveries(&mut mesh);
            black_box(mesh.cycle())
        });
    });
    group.finish();
}

/// Drains every delivered packet, as the platform does each cycle —
/// without this the delivered queues grow across the measurement and the
/// iterations are not stationary.
fn drain_deliveries(mesh: &mut Mesh) {
    for k in 0..mesh.fresh_delivered().len() {
        let node = NodeId::new(mesh.fresh_delivered()[k]);
        while mesh.pop_delivered(node).is_some() {}
    }
}

/// Phase-1 planning cost of one router, isolated from the fabric: the
/// idle case is what the mesh worklist skips, the backlogged case is
/// what a saturated tile pays every cycle, the circuit case is a body
/// flit advancing an established wormhole (most router-cycles in colony
/// traffic), and the contended case is five heads arbitrating for one
/// output.
fn router_plan(c: &mut Criterion) {
    let mut group = c.benchmark_group("router_plan");
    let make_router = || {
        let mut r = Router::new(NodeId::new(9), Coord::new(1, 1), &RouterConfig::default());
        r.set_grid_width(8);
        r
    };
    group.bench_function("idle", |b| {
        let router = make_router();
        let mut plan = RouterPlan::default();
        b.iter(|| {
            router.plan_into(0, |_| true, &mut plan);
            black_box(plan.is_empty())
        });
    });
    group.bench_function("backlogged", |b| {
        let mut router = make_router();
        for i in 0..8u64 {
            router.enqueue_inject(Packet {
                id: PacketId::new(i),
                src: NodeId::new(9),
                dest: NodeId::new((i % 16) as u16),
                task: TaskId::new((i % 3) as u8),
                kind: PacketKind::Data,
                payload_flits: 4,
                created_cycle: 0,
                bounces: 0,
            });
        }
        let mut plan = RouterPlan::default();
        b.iter(|| {
            router.plan_into(0, |_| true, &mut plan);
            black_box(plan.move_count())
        });
    });
    group.bench_function("circuit", |b| {
        // A 5-flit packet crossing the middle of a 3x1 mesh: after two
        // cycles its head has moved on east and the middle router holds a
        // body flit on the circuit the head opened.
        let mut mesh = Mesh::new(GridDims::new(3, 1), RouterConfig::default());
        mesh.inject(
            NodeId::new(0),
            NodeId::new(2),
            TaskId::new(0),
            PacketKind::Data,
            4,
        );
        mesh.step();
        mesh.step();
        let router = mesh.router(NodeId::new(1)).clone();
        assert_eq!(router.input_occupancy(Direction::West), 1);
        assert_eq!(
            mesh.router(NodeId::new(2)).input_occupancy(Direction::West),
            1
        );
        let mut plan = RouterPlan::default();
        router.plan_into(2, |_| true, &mut plan);
        assert_eq!(plan.move_count(), 1);
        b.iter(|| {
            router.plan_into(2, |_| true, &mut plan);
            black_box(plan.move_count())
        });
    });
    group.bench_function("contended", |b| {
        // The planner's worst case: heads on all five inputs of the centre
        // of a 3x3 mesh, every one bound for its internal port.
        let mut mesh = Mesh::new(GridDims::new(3, 3), RouterConfig::default());
        let centre = NodeId::new(4);
        for src in [1, 3, 5, 7] {
            mesh.inject(
                NodeId::new(src),
                centre,
                TaskId::new(0),
                PacketKind::Data,
                4,
            );
        }
        mesh.step();
        mesh.inject(centre, centre, TaskId::new(0), PacketKind::Data, 4);
        let router = mesh.router(centre).clone();
        assert!(Direction::ALL
            .iter()
            .all(|&d| router.input_occupancy(d) == 1));
        assert_eq!(router.inject_backlog(), 1);
        let mut plan = RouterPlan::default();
        b.iter(|| {
            router.plan_into(1, |_| true, &mut plan);
            black_box(plan.move_count())
        });
    });
    group.finish();
}

fn platform_cycle(c: &mut Criterion) {
    let cfg = PlatformConfig::default();
    let graph = workloads::fork_join(&workloads::ForkJoinParams::default());
    let mapping = Mapping::heuristic(&graph, cfg.dims);
    let mut group = c.benchmark_group("platform_cycle");
    group.bench_function("baseline_128_nodes", |b| {
        let mut p = Platform::new(
            graph.clone(),
            &mapping,
            &ModelKind::NoIntelligence,
            cfg.clone(),
        );
        p.run_ms(20.0); // warm pipeline
        b.iter(|| {
            p.step();
            black_box(p.now())
        });
    });
    group.bench_function("ffw_128_nodes", |b| {
        let mut p = Platform::new(
            graph.clone(),
            &mapping,
            &ModelKind::ForagingForWork(FfwConfig::default()),
            cfg.clone(),
        );
        p.run_ms(20.0);
        b.iter(|| {
            p.step();
            black_box(p.now())
        });
    });
    group.finish();
}

fn aim_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("aim_scan");
    let stimulate = |io: &mut MockAimIo, i: u64| {
        io.routed = vec![(i % 3) as u32, 2, 1];
        io.internal = vec![0, 1, 0];
        io.feed = if i.is_multiple_of(4) { 60 } else { 0 };
        io.oldest = i.is_multiple_of(5).then_some((TaskId::new(1), 400));
    };
    for (name, kind) in [
        (
            "ni_behavioural",
            ModelKind::NetworkInteraction(NiConfig::default()),
        ),
        (
            "ni_firmware",
            ModelKind::NetworkInteractionFirmware(NiConfig::default()),
        ),
        (
            "ffw_behavioural",
            ModelKind::ForagingForWork(FfwConfig::default()),
        ),
        (
            "ffw_firmware",
            ModelKind::ForagingForWorkFirmware(FfwConfig::default()),
        ),
    ] {
        group.bench_function(name, |b| {
            let mut model = kind.build(3);
            let mut io = MockAimIo::new(3);
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                stimulate(&mut io, i);
                model.scan(&mut io);
                black_box(io.local)
            });
        });
    }
    group.finish();
}

fn picoblaze(c: &mut Criterion) {
    let mut group = c.benchmark_group("picoblaze");
    group.bench_function("interpret_alu_loop", |b| {
        // A tight 4-instruction ALU loop.
        let prog = vec![
            Instruction::Add(
                sirtm_picoblaze::Register::new(0),
                sirtm_picoblaze::isa::Operand::Imm(1),
            ),
            Instruction::Xor(
                sirtm_picoblaze::Register::new(1),
                sirtm_picoblaze::isa::Operand::Reg(sirtm_picoblaze::Register::new(0)),
            ),
            Instruction::Shift(
                sirtm_picoblaze::ShiftOp::Rl,
                sirtm_picoblaze::Register::new(2),
            ),
            Instruction::Jump(Condition::Always, 0),
        ];
        let mut cpu = Picoblaze::new(prog);
        let mut io = SparseIo::new();
        b.iter(|| {
            cpu.step_n(64, &mut io).expect("runs");
            black_box(cpu.instret())
        });
    });
    group.bench_function("assemble_ffw_firmware", |b| {
        b.iter(|| {
            let prog = asm::assemble(black_box(sirtm_core::firmware::FFW_SOURCE)).expect("valid");
            black_box(prog.len())
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    mesh_cycle,
    router_plan,
    platform_cycle,
    aim_scan,
    picoblaze
);
criterion_main!(benches);
