//! Unit-cost probes: the host cost of one unit of each counted kind of
//! work, timed through public entry points only, in on-CPU time of the
//! probing thread. Each probe reports the median of several batches.

use std::hint::black_box;
use std::path::Path;

use sirtm_centurion::{Platform, PlatformConfig};
use sirtm_core::firmware::{FFW_SOURCE, NI_SOURCE};
use sirtm_core::io::MockAimIo;
use sirtm_core::models::{regs, FfwConfig, ModelKind, NiConfig};
use sirtm_noc::{Mesh, NodeId, PacketKind, RouterConfig};
use sirtm_picoblaze::asm;
use sirtm_picoblaze::vm::{Picoblaze, PortIo};
use sirtm_rng::{Rng, Xoshiro256StarStar};
use sirtm_scenario::spec::ThermalEventSpec;
use sirtm_scenario::{presets, run_shard, SeedScheme, ShardPlan, SweepOptions, SweepSpec};
use sirtm_taskgraph::{workloads, GridDims, Mapping, TaskId};
use sirtm_thermal::{thermal_fault_scenario, ThermalConfig, ThermalGrid, ThermalScenario};

use crate::util::{median, thread_cpu_ns};

const BATCHES: usize = 5;

/// Median over `BATCHES` of `f`'s return value, after one warm-up call.
fn batches(mut f: impl FnMut() -> f64) -> f64 {
    f();
    let samples: Vec<f64> = (0..BATCHES).map(|_| f()).collect();
    median(&samples)
}

/// The model kinds whose scan cost is probed, by report name.
pub fn model_kinds() -> [ModelKind; 5] {
    [
        ModelKind::NoIntelligence,
        ModelKind::NetworkInteraction(NiConfig::default()),
        ModelKind::ForagingForWork(FfwConfig::default()),
        ModelKind::NetworkInteractionFirmware(NiConfig::default()),
        ModelKind::ForagingForWorkFirmware(FfwConfig::default()),
    ]
}

/// Nanoseconds per `RtmModel::scan` of `kind` on a scripted `AimIo`
/// whose monitors vary scan to scan (fed, starved, queued, idle).
pub fn ns_per_aim_scan(kind: &ModelKind) -> f64 {
    const SCANS: u64 = 20_000;
    let mut model = kind.build(3);
    let mut io = MockAimIo::new(3);
    let mut i = 0u64;
    batches(|| {
        let start = thread_cpu_ns();
        for _ in 0..SCANS {
            i += 1;
            io.routed[0] = (i % 3) as u32;
            io.routed[1] = 2;
            io.routed[2] = 1;
            io.internal[1] = 1;
            io.feed = if i.is_multiple_of(4) { 60 } else { 0 };
            io.oldest = i.is_multiple_of(5).then_some((TaskId::new(1), 400));
            io.tick();
            model.scan(&mut io);
            black_box(io.local);
        }
        io.switches.clear();
        (thread_cpu_ns() - start) as f64 / SCANS as f64
    })
}

/// Port space of a node as the firmware sees it, scripted per scan.
struct ScriptedPorts {
    scan: u32,
    config: [u8; 16],
    synced: bool,
}

impl PortIo for ScriptedPorts {
    fn input(&mut self, port: u8) -> u8 {
        let s = self.scan;
        match port {
            0x00 => 3,
            0x01 => (s % 3) as u8,
            0x02 if s.is_multiple_of(5) => 1,
            0x02 => 0xFF,
            0x03 => 40,
            0x04 => (s % 2) as u8,
            0x05 => (s % 4) as u8,
            0x06 => (s % 3) as u8,
            0x07 => 1,
            0x08 if s.is_multiple_of(4) => 60,
            0x10..=0x12 => ((s + u32::from(port)) % 4) as u8,
            0x20..=0x22 => ((s + u32::from(port)) % 2) as u8,
            0x30..=0x33 => ((s + u32::from(port)) % 3) as u8,
            0x40..=0x4F => self.config[usize::from(port - 0x40)],
            _ => 0,
        }
    }

    fn output(&mut self, port: u8, _value: u8) {
        if port == 0xFF {
            self.synced = true;
            self.scan += 1;
        }
    }
}

/// A shipped firmware image on a bare `Picoblaze`, configured as its
/// `FirmwareModel` constructor configures it.
fn firmware_core(ni: bool) -> (Picoblaze, ScriptedPorts) {
    let mut config = [0u8; 16];
    let source = if ni {
        let cfg = NiConfig::default();
        config[usize::from(regs::NI_THRESHOLD)] = cfg.threshold;
        config[usize::from(regs::NI_LEAK)] = cfg.leak;
        config[usize::from(regs::NI_FIXATION)] = cfg.fixation_scans;
        NI_SOURCE
    } else {
        config[usize::from(regs::FFW_TIMEOUT)] = FfwConfig::default().timeout_scans;
        FFW_SOURCE
    };
    let mut cpu = Picoblaze::new(asm::assemble(source).expect("shipped firmware assembles"));
    if ni {
        cpu.set_scratch(0x21, NiConfig::default().fixation_scans);
    }
    let ports = ScriptedPorts {
        scan: 0,
        config,
        synced: false,
    };
    (cpu, ports)
}

/// Instructions the shipped scan loop retires per scan (exact: the
/// script is deterministic).
pub fn instr_per_scan(ni: bool) -> f64 {
    const SCANS: u64 = 2_000;
    let (mut cpu, mut ports) = firmware_core(ni);
    let mut retired = 0u64;
    for _ in 0..SCANS {
        ports.synced = false;
        while !ports.synced {
            cpu.step_n(1, &mut ports).expect("shipped firmware runs");
            retired += 1;
        }
    }
    retired as f64 / SCANS as f64
}

/// Nanoseconds per PicoBlaze instruction of the shipped FFW scan loop.
pub fn ns_per_instruction() -> f64 {
    const INSTR: u64 = 200_000;
    let (mut cpu, mut ports) = firmware_core(false);
    batches(|| {
        let start = thread_cpu_ns();
        cpu.step_n(INSTR, &mut ports)
            .expect("shipped firmware runs");
        black_box(cpu.instret());
        (thread_cpu_ns() - start) as f64 / INSTR as f64
    })
}

/// Nanoseconds per flit-hop of a saturated 8x16 `Mesh` (512 packets in
/// flight).
pub fn ns_per_flit_hop() -> f64 {
    const CYCLES: u64 = 2_000;
    let mut mesh = Mesh::new(GridDims::new(8, 16), RouterConfig::default());
    let mut rng = Xoshiro256StarStar::seed_from_u64(2);
    batches(|| {
        let hops_before = mesh.stats().flit_hops;
        let start = thread_cpu_ns();
        for _ in 0..CYCLES {
            while mesh.stats().in_flight() < 512 {
                let src = NodeId::new(rng.range_u32(0..128) as u16);
                let dst = NodeId::new(rng.range_u32(0..128) as u16);
                mesh.inject(src, dst, TaskId::new(0), PacketKind::Data, 4);
            }
            mesh.step();
            for k in 0..mesh.fresh_delivered().len() {
                let node = NodeId::new(mesh.fresh_delivered()[k]);
                while mesh.pop_delivered(node).is_some() {}
            }
        }
        let ns = (thread_cpu_ns() - start) as f64;
        ns / (mesh.stats().flit_hops - hops_before).max(1) as f64
    })
}

/// Nanoseconds per stepped cycle of a quiet default 8x16 platform: the
/// fixed per-cycle cost of `Platform::step` with no traffic and no
/// adaptive scans.
pub fn ns_per_cycle() -> f64 {
    const CYCLES: u64 = 20_000;
    let cfg = PlatformConfig::default();
    let graph = workloads::fork_join(&workloads::ForkJoinParams::default());
    let mapping = Mapping::heuristic(&graph, cfg.dims);
    let mut platform = Platform::new(graph, &mapping, &ModelKind::NoIntelligence, cfg);
    platform.set_generation_period(TaskId::new(0), u32::MAX);
    platform.run_ms(50.0);
    batches(|| {
        let start = thread_cpu_ns();
        for _ in 0..CYCLES {
            platform.step();
        }
        black_box(platform.now());
        (thread_cpu_ns() - start) as f64 / CYCLES as f64
    })
}

/// Milliseconds of one cold thermal victim-set solve of the
/// thermal-throttle preset (the physics pre-run `Timeline::compile`
/// memoizes per process), with the victim count.
pub fn victim_solve_ms() -> (f64, usize) {
    let t = ThermalEventSpec::default();
    let platform = PlatformConfig::default();
    let dims = platform.dims;
    let at = platform.ms_to_cycles(500.0);
    let scenario = ThermalScenario {
        platform,
        overclock_mhz: t.overclock_mhz,
        generation_period: t.generation_period,
        runaway_ms: t.runaway_ms,
        overclock_rows: t.overclock_rows,
        ..ThermalScenario::default()
    };
    let thermal = ThermalConfig {
        dims,
        ..ThermalConfig::default()
    };
    let start = thread_cpu_ns();
    let (_, report) = thermal_fault_scenario(&scenario, &thermal, at);
    let victims = report.victim_nodes();
    ((thread_cpu_ns() - start) as f64 * 1e-6, victims.len())
}

/// Microseconds per `ThermalGrid::step` of the 8x16 die at its stable
/// time step.
pub fn grid_step_us() -> f64 {
    const STEPS: u64 = 2_000;
    let cfg = ThermalConfig {
        dims: GridDims::new(8, 16),
        ..ThermalConfig::default()
    };
    let dt = cfg.stable_dt_s();
    let mut grid = ThermalGrid::new(cfg);
    let power: Vec<f64> = (0..grid.len())
        .map(|i| 0.2 + (i % 7) as f64 * 0.1)
        .collect();
    batches(|| {
        let start = thread_cpu_ns();
        for _ in 0..STEPS {
            grid.step(dt, &power);
        }
        black_box(grid.max_temp());
        (thread_cpu_ns() - start) as f64 / STEPS as f64 / 1e3
    })
}

/// Microseconds one checkpoint-journal append adds to a run: the paired
/// difference of `run_shard` over tiny runs with and without a
/// checkpoint directory, per run.
pub fn journal_append_us(work: &Path) -> f64 {
    const RUNS: usize = 128;
    let mut base = presets::preset("light-4x4").expect("shipped preset");
    base.duration_ms = 4.0;
    base.settle_region_ms = Some(4.0);
    base.events.clear();
    let sweep = SweepSpec {
        name: "journal-probe".to_string(),
        base,
        axes: vec![],
        replicates: RUNS,
        seeds: SeedScheme::Sequential { base: 1 },
    };
    let plan = ShardPlan::all(1, RUNS)[0];
    let opts = SweepOptions { threads: 1 };
    let mut k = 0;
    let mut shard = |journal: bool| -> f64 {
        k += 1;
        let dir = work.join(format!("journal-probe-{k}"));
        let start = thread_cpu_ns();
        let report = run_shard(&sweep, plan, journal.then_some(dir.as_path()), opts, None)
            .expect("probe shard runs");
        let secs = (thread_cpu_ns() - start) as f64 * 1e-9;
        black_box(report.result);
        let _ = std::fs::remove_dir_all(&dir);
        secs
    };
    shard(true);
    let diffs: Vec<f64> = (0..BATCHES)
        .map(|i| {
            // Alternate which arm runs first.
            let (with, without) = if i % 2 == 0 {
                let w = shard(true);
                (w, shard(false))
            } else {
                let wo = shard(false);
                (shard(true), wo)
            };
            (with - without) / RUNS as f64 * 1e6
        })
        .collect();
    median(&diffs)
}
