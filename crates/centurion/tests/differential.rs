//! Differential oracle: the activity-gated stepper ([`Platform::step`] /
//! [`Platform::run_until`]) must be decision-for-decision identical to
//! the retained naive stepper ([`Platform::step_naive`]).
//!
//! Two platforms are built from the same seed and driven through the same
//! fault-injection scenario — one per-cycle through the naive loop, one
//! through the optimized loop (which fast-forwards quiescent stretches).
//! At every sample window the full observable surface is compared:
//! platform counters, per-task completions, mesh statistics, task
//! distribution and every node's debug snapshot (including the busy-cycle
//! integrals the thermal models difference).

use proptest::prelude::*;

use sirtm_centurion::{Platform, PlatformConfig};
use sirtm_core::models::{FfwConfig, ModelKind, NiConfig};
use sirtm_noc::NodeId;
use sirtm_rng::{Rng, Xoshiro256StarStar};
use sirtm_taskgraph::workloads::{fork_join, ForkJoinParams};
use sirtm_taskgraph::{GridDims, Mapping};

fn config(dims: GridDims) -> PlatformConfig {
    PlatformConfig {
        dims,
        ..PlatformConfig::default()
    }
}

fn build(model: &ModelKind, seed: u64, dims: GridDims) -> Platform {
    let cfg = config(dims);
    let graph = fork_join(&ForkJoinParams::default());
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mapping = if model.is_adaptive() {
        Mapping::random_uniform(&graph, cfg.dims, &mut rng)
    } else {
        Mapping::heuristic(&graph, cfg.dims)
    };
    let mut p = Platform::new(graph, &mapping, model, cfg);
    p.randomize_phases(&mut rng);
    p
}

/// Everything a window sample observes, plus every node's snapshot.
#[derive(Debug, PartialEq)]
struct Observation {
    cycle: u64,
    completions: Vec<u64>,
    sends: u64,
    send_failures: u64,
    bounces: u64,
    bounce_drops: u64,
    switches: u64,
    mesh: sirtm_noc::MeshStats,
    task_counts: Vec<usize>,
    alive: usize,
    nodes_active: usize,
    snapshots: Vec<sirtm_centurion::NodeSnapshot>,
}

fn observe(p: &Platform, window_cycles: u64) -> Observation {
    let stats = p.stats();
    Observation {
        cycle: p.now(),
        completions: p.completions_per_task().to_vec(),
        sends: stats.sends,
        send_failures: stats.send_failures,
        bounces: stats.bounces,
        bounce_drops: stats.bounce_drops,
        switches: stats.task_switches,
        mesh: p.mesh_stats(),
        task_counts: p.task_counts(),
        alive: p.alive_count(),
        nodes_active: p.nodes_active_since(p.now().saturating_sub(window_cycles)),
        snapshots: (0..p.config().dims.len())
            .map(|i| p.node_snapshot(NodeId::new(i as u16)))
            .collect(),
    }
}

/// The deterministic fault set of a seed (same victims on both twins).
fn victims(seed: u64, n_nodes: usize, k: usize) -> Vec<NodeId> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed ^ 0x5EED_FA17);
    let mut out = Vec::new();
    while out.len() < k {
        let v = NodeId::new(rng.range_u32(0..n_nodes as u32) as u16);
        if !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

/// Drives the naive and optimized twins through the same windowed
/// fault-injection scenario and asserts identical observations at every
/// window boundary.
fn assert_twins_agree(model: ModelKind, seed: u64, dims: GridDims) {
    let mut naive = build(&model, seed, dims);
    let mut fast = build(&model, seed, dims);
    let window_ms = 2.0;
    let window_cycles = naive.config().ms_to_cycles(window_ms);
    let total_windows = 60usize;
    let fault_window = 30usize;
    let hang_window = 20usize;
    let resume_window = 40usize;
    let config_window = 10usize;
    let kills = victims(seed, dims.len(), 3);
    let hang = NodeId::new((seed % dims.len() as u64) as u16);
    for w in 0..total_windows {
        if w == fault_window {
            for &v in &kills {
                naive.kill_pe(v);
                fast.kill_pe(v);
            }
        }
        if w == hang_window {
            naive.hang_pe(hang);
            fast.hang_pe(hang);
        }
        if w == resume_window {
            naive.resume_pe(hang);
            fast.resume_pe(hang);
        }
        if w == config_window && model.is_adaptive() {
            // In-band reconfiguration exercises the RCAP/aim-write path
            // (and, on the optimized twin, the outstanding-write guard
            // that pins its fast-forward).
            for p in [&mut naive, &mut fast] {
                p.send_config(
                    NodeId::new(0),
                    NodeId::new((dims.len() - 1) as u16),
                    sirtm_noc::RcapCommand::AimWrite {
                        reg: sirtm_core::models::regs::NI_THRESHOLD,
                        value: 9,
                    },
                );
            }
        }
        for _ in 0..window_cycles {
            naive.step_naive();
        }
        fast.run_until(fast.now() + window_cycles);
        let a = observe(&naive, window_cycles);
        let b = observe(&fast, window_cycles);
        assert_eq!(
            a, b,
            "steppers diverged: model {model:?}, seed {seed}, window {w}"
        );
    }
}

// Each model kind's twins agree at drawn seeds. The seed picks the
// mapping, the phases, the kill victims and the hung node.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn ffw_twins_agree_across_seeds(seed in any::<u64>()) {
        assert_twins_agree(
            ModelKind::ForagingForWork(FfwConfig::default()),
            seed,
            GridDims::new(4, 4),
        );
    }

    #[test]
    fn ni_twins_agree_across_seeds(seed in any::<u64>()) {
        assert_twins_agree(
            ModelKind::NetworkInteraction(NiConfig::default()),
            seed,
            GridDims::new(4, 4),
        );
    }

    #[test]
    fn ni_firmware_twins_agree_across_seeds(seed in any::<u64>()) {
        assert_twins_agree(
            ModelKind::NetworkInteractionFirmware(NiConfig::default()),
            seed,
            GridDims::new(4, 4),
        );
    }

    #[test]
    fn ffw_firmware_twins_agree_across_seeds(seed in any::<u64>()) {
        assert_twins_agree(
            ModelKind::ForagingForWorkFirmware(FfwConfig::default()),
            seed,
            GridDims::new(4, 4),
        );
    }

    /// The passive baseline is where the optimized stepper jumps whole
    /// quiescent stretches; the fault scenario forces re-settling.
    #[test]
    fn baseline_twins_agree_with_fast_forward(seed in any::<u64>()) {
        assert_twins_agree(ModelKind::NoIntelligence, seed, GridDims::new(4, 4));
    }
}

#[test]
fn ffw_twins_agree_on_the_full_grid() {
    assert_twins_agree(
        ModelKind::ForagingForWork(FfwConfig::default()),
        7,
        GridDims::new(8, 8),
    );
}

/// Like [`assert_twins_agree`] but driven by an explicit hostile
/// timeline: `(window, event)` pairs applied to both twins. The three
/// tests below mirror shrunk reproducers from the `scenarios fuzz`
/// frontier corpus (`corpus/frontier.jsonl`), with the corpus entries'
/// derived evaluation seeds, so the optimized stepper is pinned against
/// the naive one exactly where the fuzzer found the colony breaking.
type TimelineEvent<'a> = (usize, &'a dyn Fn(&mut Platform));

fn assert_twins_agree_on_timeline(
    model: ModelKind,
    seed: u64,
    dims: GridDims,
    total_windows: usize,
    timeline: &[TimelineEvent],
) {
    let mut naive = build(&model, seed, dims);
    let mut fast = build(&model, seed, dims);
    let window_cycles = naive.config().ms_to_cycles(2.0);
    for w in 0..total_windows {
        for (at, event) in timeline {
            if *at == w {
                event(&mut naive);
                event(&mut fast);
            }
        }
        for _ in 0..window_cycles {
            naive.step_naive();
        }
        fast.run_until(fast.now() + window_cycles);
        assert_eq!(
            observe(&naive, window_cycles),
            observe(&fast, window_cycles),
            "steppers diverged: model {model:?}, seed {seed:#x}, window {w}"
        );
    }
}

/// A Manhattan disc of PE deaths around `(x, y)` — the corpus's
/// hotspot-faults event.
fn hotspot(p: &mut Platform, x: u16, y: u16, radius: u16) {
    let dims = p.config().dims;
    for i in 0..dims.len() {
        let (nx, ny) = dims.xy(i);
        if nx.abs_diff(x) + ny.abs_diff(y) <= radius {
            p.kill_pe(NodeId::new(i as u16));
        }
    }
}

/// A band of full rows dies, routers included — the corpus's
/// clock-region-faults event.
fn clock_region(p: &mut Platform, first_row: u16, rows: u16) {
    let dims = p.config().dims;
    for i in 0..dims.len() {
        let (_, ny) = dims.xy(i);
        if ny >= first_row && ny < first_row + rows {
            p.kill_tile(NodeId::new(i as u16));
        }
    }
}

#[test]
fn twins_agree_on_fuzz_clock_region_burn() {
    // Frontier pin 45828b3283fa153e: a one-row clock-region burn late in
    // the run, no recovery runway. Routers die with their PEs, so the
    // optimized stepper's event tables lose whole mesh columns at once.
    assert_twins_agree_on_timeline(
        ModelKind::ForagingForWork(FfwConfig::default()),
        0xd9b7_34a8_b193_6bee,
        GridDims::new(4, 4),
        52,
        &[(46, &|p: &mut Platform| clock_region(p, 1, 1))],
    );
}

#[test]
fn twins_agree_on_fuzz_phase_shift_stall() {
    // Frontier pins 76e56634907329d2 / b1971042afe23796: generation-
    // period retunes in both directions. A 4x faster source floods the
    // mesh; a 2x slower one opens quiescent stretches the optimized
    // stepper fast-forwards across — both must land cycle-exact.
    assert_twins_agree_on_timeline(
        ModelKind::ForagingForWork(FfwConfig::default()),
        0x281d_cc93_20ef_e756,
        GridDims::new(4, 4),
        40,
        &[
            (12, &|p: &mut Platform| {
                p.set_generation_period(sirtm_taskgraph::TaskId::new(0), 400)
            }),
            (26, &|p: &mut Platform| {
                p.set_generation_period(sirtm_taskgraph::TaskId::new(0), 3200)
            }),
        ],
    );
}

#[test]
fn twins_agree_on_fuzz_corner_hotspot_under_throttle() {
    // Frontier pins 415f77c1e7e30a92 / ac10fa6a334b4d54 composed: the
    // minimal agent-extinction reproducer (radius-2 corner burn) on a
    // die throttled to the bottom of the DVFS range, where every event
    // interval stretches and fast-forward windows grow long.
    assert_twins_agree_on_timeline(
        ModelKind::NetworkInteraction(NiConfig::default()),
        0x4a53_411b_c7fa_8d16,
        GridDims::new(4, 4),
        48,
        &[
            (10, &|p: &mut Platform| p.set_frequency_all(25)),
            (40, &|p: &mut Platform| hotspot(p, 3, 0, 2)),
        ],
    );
}

#[test]
fn interleaving_steppers_is_safe() {
    // Mixing naive and optimized stepping on ONE platform must match a
    // pure naive twin: the optimized stepper rebuilds its event tables
    // after naive cycles touched state behind their back.
    let model = ModelKind::ForagingForWork(FfwConfig::default());
    let dims = GridDims::new(4, 4);
    let mut naive = build(&model, 11, dims);
    let mut mixed = build(&model, 11, dims);
    let window = naive.config().ms_to_cycles(2.0);
    for w in 0..40usize {
        for _ in 0..window {
            naive.step_naive();
        }
        if w % 2 == 0 {
            for _ in 0..window {
                mixed.step_naive();
            }
        } else {
            mixed.run_until(mixed.now() + window);
        }
        assert_eq!(
            observe(&naive, window),
            observe(&mixed, window),
            "window {w}"
        );
    }
}

/// Every node's busy integral, as the thermal models read it.
fn busy(p: &Platform) -> Vec<u64> {
    (0..p.config().dims.len())
        .map(|i| p.busy_cycles(NodeId::new(i as u16)))
        .collect()
}

/// Nodes whose PE owes lazily credited busy time on the optimized
/// stepper: mid-work PEs the PE pass has been skipping.
fn owing(p: &Platform) -> Vec<NodeId> {
    (0..p.config().dims.len() as u16)
        .map(NodeId::new)
        .filter(|&n| p.busy_cycles(n) > p.pe(n).busy_cycles())
        .collect()
}

#[test]
fn busy_integrals_agree_mid_service_and_after_kill_hang_and_switch() {
    // Per-cycle twins compared on every node's busy integral after every
    // cycle, so mid-service PEs (credit still owed) are read through
    // `Platform::busy_cycles`. A PE that owes credit is killed, another
    // is hung and later resumed, each compared the instant after; AIM
    // task switches of owing PEs are counted as they happen.
    let model = ModelKind::NetworkInteraction(NiConfig::default());
    let dims = GridDims::new(4, 4);
    let mut naive = build(&model, 5, dims);
    let mut fast = build(&model, 5, dims);
    let (mut owed_reads, mut owing_switches) = (0usize, 0usize);
    let (mut killed, mut hung, mut resumed) = (None, None, false);
    for cycle in 0..30_000u64 {
        let owing_before = owing(&fast);
        let tasks_before: Vec<_> = owing_before.iter().map(|&n| fast.pe(n).task()).collect();
        naive.step_naive();
        fast.step();
        assert_eq!(busy(&naive), busy(&fast), "cycle {cycle}");
        for (&n, task) in owing_before.iter().zip(tasks_before) {
            if fast.pe(n).is_alive() && fast.pe(n).task() != task {
                owing_switches += 1;
            }
        }
        let owing_now = owing(&fast);
        owed_reads += owing_now.len();
        if cycle >= 5_000 && killed.is_none() && !owing_now.is_empty() {
            let victim = owing_now[0];
            naive.kill_pe(victim);
            fast.kill_pe(victim);
            assert_eq!(busy(&naive), busy(&fast), "right after killing {victim:?}");
            killed = Some(victim);
        } else if cycle >= 9_000 && hung.is_none() && !owing_now.is_empty() {
            let victim = owing_now[0];
            naive.hang_pe(victim);
            fast.hang_pe(victim);
            assert_eq!(busy(&naive), busy(&fast), "right after hanging {victim:?}");
            hung = Some(victim);
        } else if cycle >= 15_000 && !resumed {
            if let Some(victim) = hung {
                naive.resume_pe(victim);
                fast.resume_pe(victim);
                assert_eq!(busy(&naive), busy(&fast), "right after resuming");
                resumed = true;
            }
        }
    }
    assert!(killed.is_some() && hung.is_some() && resumed);
    assert!(owed_reads > 1_000, "only {owed_reads} reads of owed credit");
    assert!(
        owing_switches > 0,
        "no task switch of an owing PE was exercised"
    );
}

#[test]
fn busy_integrals_agree_across_fast_forward_and_stepper_interleaving() {
    // One platform mixes `run_until` jumps of random length (the
    // fast-forward path), single optimized steps and naive steps; a pure
    // naive twin is compared after every chunk. The baseline jumps
    // quiescent stretches; FFW also jumps cycles on which only scans
    // inside a node's decision horizon fall, and folds them in later.
    for model in [
        ModelKind::NoIntelligence,
        ModelKind::ForagingForWork(FfwConfig::default()),
    ] {
        let dims = GridDims::new(4, 4);
        let mut naive = build(&model, 9, dims);
        let mut mixed = build(&model, 9, dims);
        let mut rng = Xoshiro256StarStar::seed_from_u64(0xB05E);
        let (mut jumped, mut owed_after_jump) = (0u64, 0usize);
        for chunk in 0..3_000usize {
            let executed = mixed.cycles_executed();
            let cycles = match rng.range_u32(0..4) {
                0 => {
                    mixed.step_naive();
                    1
                }
                1 => {
                    mixed.step();
                    1
                }
                _ => {
                    let cycles = 1 + rng.range_u32(0..120) as u64;
                    mixed.run_until(mixed.now() + cycles);
                    cycles
                }
            };
            for _ in 0..cycles {
                naive.step_naive();
            }
            assert_eq!(mixed.now(), naive.now());
            assert_eq!(busy(&naive), busy(&mixed), "model {model:?}, chunk {chunk}");
            let skipped = cycles - (mixed.cycles_executed() - executed);
            if skipped > 0 {
                jumped += skipped;
                owed_after_jump += owing(&mixed).len();
            }
        }
        // Both twins must actually jump, with PEs mid-work across it.
        assert!(jumped > 0, "model {model:?} never skipped a cycle");
        assert!(owed_after_jump > 0, "no PE owed credit across a jump");
        let fast_forwarded = mixed.sim_counters().cycles_fast_forwarded;
        if model.is_adaptive() {
            // Every residue holds a live FFW node, so the sim plane counts
            // each jumped cycle as stepped, as the eager stepper, which
            // stopped on every scan, did; the host skipped them all the
            // same.
            assert_eq!(fast_forwarded, 0);
        } else {
            assert_eq!(fast_forwarded, jumped);
        }
    }
}
