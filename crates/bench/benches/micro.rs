//! Micro-benchmarks of the SIRTM substrates: NoC cycle cost (idle,
//! loaded and saturated, which covers router planning in place),
//! platform cycle cost, raw PicoBlaze interpretation and assembly. AIM
//! scan costs are perfbench's `core.ns_per_aim_scan.*` probes.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use sirtm_centurion::{Platform, PlatformConfig};
use sirtm_core::models::{FfwConfig, ModelKind};
use sirtm_noc::{Mesh, NodeId, PacketKind, RouterConfig};
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

criterion_group!(benches, mesh_cycle, platform_cycle, picoblaze);
criterion_main!(benches);
