//! PicoBlaze firmware backend for the AIM.
//!
//! The paper's AIM is literally a Xilinx PicoBlaze whose program is
//! uploaded at runtime by the experiment controller, with the router's
//! monitors and knobs mapped onto its I/O ports. [`FirmwareModel`] does
//! the same: it owns a [`Picoblaze`] core running one of the bundled
//! `.psm` programs and bridges its port space to the node's [`AimIo`].
//!
//! The core is the plain interpreter, one `match` per instruction, in a
//! single run loop that keeps the PC and flags in locals and credits the
//! retired count once per scan. Each bundled program is assembled once
//! per process and shared by every node's core. With both, and with a
//! `ni.psm` that scans in 49.3 instead of 63.3 instructions and an
//! `ffw.psm` at 9.5 instead of 11.3 (perfbench's scripted 3-task
//! probe), the `firmware-8x16` perfbench workload on a 2-core Intel Xeon
//! VM went from a median of 2.57 to 3.36 runs per CPU-second over ten
//! interleaved pairs of 10 s runs, the change winning all ten.
//!
//! A tiered engine (pre-decoded micro-ops plus compiled basic blocks) was
//! tried in the interpreter's place and deleted because it did not pay:
//! on the same workload and machine, five interleaved pairs of runs gave
//! a median of 1.66 runs per CPU-second for the tiered engine against
//! 2.17 for the interpreter, which won every pair, and peak RSS fell
//! from 6.3 to 5.8 MiB.
//!
//! # Port map
//!
//! | Port | Direction | Meaning |
//! |---|---|---|
//! | `0x00` | in | number of tasks |
//! | `0x01` | in | local task (0xFF = none) |
//! | `0x02` | in | task of oldest waiting packet (0xFF = none) |
//! | `0x03` | in | age of oldest waiting packet, in scans (saturated) |
//! | `0x04` | in | processing element busy flag |
//! | `0x05` | in | own-task deliveries accepted for processing since last scan (saturated) |
//! | `0x06` | in | task of most recent routed application packet (0xFF = none) |
//! | `0x07` | in | age of the recent-routed latch, in scans (saturated) |
//! | `0x10+t` | in | routed packets for task `t` since last scan |
//! | `0x20+t` | in | internal deliveries for task `t` since last scan |
//! | `0x30+d` | in | neighbour `d`'s task (0xFF = none), d = N,E,S,W |
//! | `0x40+r` | in | AIM configuration register `r` |
//! | `0x00` | out | switch the node to the written task id |
//! | `0xFF` | out | end-of-scan sync |

use std::sync::{Arc, OnceLock};

use sirtm_picoblaze::vm::{Picoblaze, PortIo, RunOutcome};
use sirtm_picoblaze::{asm, Instruction};
use sirtm_taskgraph::TaskId;

use crate::io::{AimIo, N_NEIGHBOURS};
use crate::models::regs;
use crate::models::{FfwConfig, NiConfig, RtmModel};

/// Input port: number of tasks.
pub const IN_NTASKS: u8 = 0x00;
/// Input port: local task (0xFF = none).
pub const IN_LOCAL_TASK: u8 = 0x01;
/// Input port: task of the oldest waiting packet (0xFF = none).
pub const IN_OLDEST_TASK: u8 = 0x02;
/// Input port: age of the oldest waiting packet in scans (saturated).
pub const IN_OLDEST_AGE: u8 = 0x03;
/// Input port: processing element busy flag.
pub const IN_PE_BUSY: u8 = 0x04;
/// Input port: total internal deliveries since last scan (saturated).
pub const IN_INTERNAL_TOTAL: u8 = 0x05;
/// Input port: task of the most recent routed application packet (0xFF =
/// none/stale).
pub const IN_RECENT_TASK: u8 = 0x06;
/// Input port: age of the recent-routed latch in scans (saturated).
pub const IN_RECENT_AGE: u8 = 0x07;
/// Input port: commitment scans earned since last scan (reset-on-read,
/// saturated).
pub const IN_FEED: u8 = 0x08;
/// Input port base: per-task routed counts.
pub const IN_ROUTED_BASE: u8 = 0x10;
/// Input port base: per-task internal delivery counts.
pub const IN_INTERNAL_BASE: u8 = 0x20;
/// Input port base: neighbour tasks (N, E, S, W).
pub const IN_NEIGHBOUR_BASE: u8 = 0x30;
/// Input port base: AIM configuration registers.
pub const IN_CONFIG_BASE: u8 = 0x40;
/// Output port: task switch request.
pub const OUT_SWITCH: u8 = 0x00;
/// Output port: end-of-scan sync.
pub const OUT_SYNC: u8 = 0xFF;

/// Number of AIM configuration registers.
pub const N_CONFIG_REGS: usize = 16;

/// The bundled Network Interaction firmware source.
pub const NI_SOURCE: &str = include_str!("../firmware/ni.psm");
/// The bundled Foraging-for-Work firmware source.
pub const FFW_SOURCE: &str = include_str!("../firmware/ffw.psm");

/// Bridges the PicoBlaze port space to a node's [`AimIo`].
///
/// Reset-on-read monitor banks are snapshotted once per scan (the AIM
/// hardware latches its impulse counters at scan start), so firmware may
/// read a port repeatedly and see consistent values.
struct FirmwarePorts<'a> {
    io: &'a mut dyn AimIo,
    routed: &'a [u32],
    internal: &'a [u32],
    config: &'a [u8; N_CONFIG_REGS],
    n_tasks: usize,
}

fn sat8(v: u32) -> u8 {
    v.min(255) as u8
}

impl PortIo for FirmwarePorts<'_> {
    fn input(&mut self, port: u8) -> u8 {
        match port {
            IN_NTASKS => self.n_tasks as u8,
            IN_LOCAL_TASK => self.io.local_task().map_or(0xFF, TaskId::raw),
            IN_OLDEST_TASK => self.io.oldest_waiting().map_or(0xFF, |(t, _)| t.raw()),
            IN_OLDEST_AGE => {
                let period = self.io.scan_period().max(1);
                self.io
                    .oldest_waiting()
                    .map_or(0, |(_, age)| sat8((age / period) as u32))
            }
            IN_PE_BUSY => self.io.pe_busy() as u8,
            // Deliveries *accepted for processing* (the node's own task);
            // foreign deliveries are visible per-task at 0x20+t instead.
            IN_INTERNAL_TOTAL => {
                let accepted = self
                    .io
                    .local_task()
                    .and_then(|t| self.internal.get(t.index()).copied())
                    .unwrap_or(0);
                sat8(accepted)
            }
            IN_FEED => sat8(self.io.feed_amount()),
            IN_RECENT_TASK => self.io.recent_demand().map_or(0xFF, |(t, _)| t.raw()),
            IN_RECENT_AGE => {
                let period = self.io.scan_period().max(1);
                self.io
                    .recent_demand()
                    .map_or(0xFF, |(_, age)| sat8((age / period) as u32))
            }
            p if (IN_ROUTED_BASE..IN_ROUTED_BASE + 16).contains(&p) => {
                let t = (p - IN_ROUTED_BASE) as usize;
                self.routed.get(t).copied().map_or(0, sat8)
            }
            p if (IN_INTERNAL_BASE..IN_INTERNAL_BASE + 16).contains(&p) => {
                let t = (p - IN_INTERNAL_BASE) as usize;
                self.internal.get(t).copied().map_or(0, sat8)
            }
            p if (IN_NEIGHBOUR_BASE..IN_NEIGHBOUR_BASE + N_NEIGHBOURS as u8).contains(&p) => {
                let d = (p - IN_NEIGHBOUR_BASE) as usize;
                self.io.neighbour_task(d).map_or(0xFF, TaskId::raw)
            }
            p if (IN_CONFIG_BASE..IN_CONFIG_BASE + N_CONFIG_REGS as u8).contains(&p) => {
                self.config[(p - IN_CONFIG_BASE) as usize]
            }
            _ => 0,
        }
    }

    fn output(&mut self, port: u8, value: u8) {
        match port {
            OUT_SWITCH if (value as usize) < self.n_tasks => {
                self.io.switch_task(TaskId::new(value));
            }
            OUT_SYNC => {}
            _ => {}
        }
    }
}

/// An [`RtmModel`] whose decisions are made by PicoBlaze firmware.
///
/// Each [`RtmModel::scan`] snapshots the monitor banks, then runs the core
/// until it writes the sync port (or the instruction budget is exhausted —
/// counted in [`FirmwareModel::budget_overruns`]). Firmware faults (stack
/// escape etc.) are counted rather than propagated: a crashed AIM in
/// hardware simply stops influencing its node.
///
/// # Examples
///
/// ```
/// use sirtm_core::firmware::FirmwareModel;
/// use sirtm_core::models::{NiConfig, RtmModel};
/// use sirtm_core::io::MockAimIo;
/// use sirtm_taskgraph::TaskId;
///
/// let mut model = FirmwareModel::network_interaction(3, &NiConfig {
///     threshold: 8,
///     fixation_scans: 0, // decide immediately for the example
///     ..NiConfig::default()
/// });
/// let mut io = MockAimIo::new(3);
/// io.routed = vec![0, 9, 0];
/// model.scan(&mut io);
/// assert_eq!(io.switches, vec![TaskId::new(1)]);
/// ```
#[derive(Debug)]
pub struct FirmwareModel {
    core: Picoblaze,
    config: [u8; N_CONFIG_REGS],
    name: &'static str,
    budget: u64,
    n_tasks: usize,
    routed: Vec<u32>,
    internal: Vec<u32>,
    budget_overruns: u64,
    faults: u64,
    /// Scratchpad bytes written at load time and after every reset
    /// (non-zero power-on state, e.g. NI's full commitment store).
    scratch_presets: Vec<(u8, u8)>,
}

impl FirmwareModel {
    /// Default instruction budget per scan.
    pub const DEFAULT_BUDGET: u64 = 4096;

    /// Most tasks the AIM port map can monitor: the per-task routed and
    /// internal banks are 16 ports wide (`0x10..0x20` and `0x20..0x30`).
    pub const MAX_TASKS: usize = 16;

    /// Builds a firmware model from arbitrary assembled instructions.
    ///
    /// # Panics
    ///
    /// Panics if `n_tasks` exceeds [`FirmwareModel::MAX_TASKS`]: beyond 16
    /// tasks the port map's per-task banks alias each other, so firmware
    /// would silently read the wrong monitors.
    pub fn from_program(
        program: impl Into<Arc<[Instruction]>>,
        name: &'static str,
        n_tasks: usize,
    ) -> Self {
        assert!(
            n_tasks <= Self::MAX_TASKS,
            "the AIM port map supports at most {} tasks, got {n_tasks}",
            Self::MAX_TASKS
        );
        Self {
            core: Picoblaze::new(program),
            config: [0; N_CONFIG_REGS],
            name,
            budget: Self::DEFAULT_BUDGET,
            n_tasks,
            routed: vec![0; n_tasks],
            internal: vec![0; n_tasks],
            budget_overruns: 0,
            faults: 0,
            scratch_presets: Vec::new(),
        }
    }

    /// Registers a scratchpad byte to be written now and after every
    /// reset (firmware state with a non-zero power-on value).
    pub fn preset_scratch(&mut self, addr: u8, value: u8) {
        self.core.set_scratch(addr, value);
        self.scratch_presets.retain(|&(a, _)| a != addr);
        self.scratch_presets.push((addr, value));
    }

    /// The bundled Network Interaction firmware. The source is assembled
    /// once per process; every model shares that one program image.
    ///
    /// # Panics
    ///
    /// Panics if the bundled source fails to assemble (a build defect).
    pub fn network_interaction(n_tasks: usize, cfg: &NiConfig) -> Self {
        static PROGRAM: OnceLock<Arc<[Instruction]>> = OnceLock::new();
        let program = PROGRAM.get_or_init(|| {
            asm::assemble(NI_SOURCE)
                .expect("bundled NI firmware must assemble")
                .into()
        });
        let mut fw = Self::from_program(Arc::clone(program), "ni-fw", n_tasks);
        fw.configure(regs::NI_THRESHOLD, cfg.threshold);
        fw.configure(regs::NI_LEAK, cfg.leak);
        fw.configure(regs::NI_FIXATION, cfg.fixation_scans);
        // The commitment store powers on full (cold-start grace).
        fw.preset_scratch(0x21, cfg.fixation_scans);
        fw
    }

    /// The bundled Foraging-for-Work firmware, assembled once per process
    /// and shared like [`FirmwareModel::network_interaction`]'s.
    ///
    /// # Panics
    ///
    /// Panics if the bundled source fails to assemble (a build defect).
    pub fn foraging_for_work(n_tasks: usize, cfg: &FfwConfig) -> Self {
        static PROGRAM: OnceLock<Arc<[Instruction]>> = OnceLock::new();
        let program = PROGRAM.get_or_init(|| {
            asm::assemble(FFW_SOURCE)
                .expect("bundled FFW firmware must assemble")
                .into()
        });
        let mut fw = Self::from_program(Arc::clone(program), "ffw-fw", n_tasks);
        fw.configure(regs::FFW_TIMEOUT, cfg.timeout_scans);
        fw
    }

    /// Sets the per-scan instruction budget.
    ///
    /// # Panics
    ///
    /// Panics if `budget == 0`.
    pub fn with_budget(mut self, budget: u64) -> Self {
        assert!(budget > 0, "budget must be non-zero");
        self.budget = budget;
        self
    }

    /// Scans that hit the instruction budget before reaching sync.
    pub fn budget_overruns(&self) -> u64 {
        self.budget_overruns
    }

    /// Firmware faults (PC escape, stack errors) observed so far.
    pub fn faults(&self) -> u64 {
        self.faults
    }

    /// Total instructions retired by the embedded core.
    pub fn instructions_retired(&self) -> u64 {
        self.core.instret()
    }
}

impl RtmModel for FirmwareModel {
    fn name(&self) -> &'static str {
        self.name
    }

    fn scan(&mut self, io: &mut dyn AimIo) {
        // Latch the reset-on-read monitor banks for this scan.
        io.read_routed(&mut self.routed);
        io.read_internal(&mut self.internal);
        let mut ports = FirmwarePorts {
            io,
            routed: &self.routed,
            internal: &self.internal,
            config: &self.config,
            n_tasks: self.n_tasks,
        };
        match self
            .core
            .run_until_port_write(OUT_SYNC, self.budget, &mut ports)
        {
            Ok(RunOutcome::PortWritten(_)) => {}
            Ok(RunOutcome::BudgetExhausted) => self.budget_overruns += 1,
            Err(_) => self.faults += 1,
        }
    }

    fn configure(&mut self, reg: u8, value: u8) {
        if let Some(slot) = self.config.get_mut(reg as usize) {
            *slot = value;
        }
    }

    fn reset(&mut self) {
        self.core.reset();
        self.budget_overruns = 0;
        self.faults = 0;
        for &(addr, value) in &self.scratch_presets {
            self.core.set_scratch(addr, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::MockAimIo;

    #[test]
    fn bundled_firmware_assembles() {
        assert!(asm::assemble(NI_SOURCE).is_ok());
        assert!(asm::assemble(FFW_SOURCE).is_ok());
    }

    #[test]
    fn ni_firmware_switches_on_threshold() {
        let cfg = NiConfig {
            threshold: 10,
            fixation_scans: 0,
            ..NiConfig::default()
        };
        let mut fw = FirmwareModel::network_interaction(3, &cfg);
        let mut io = MockAimIo::new(3);
        // 4 impulses per scan: crosses 10 on the 3rd scan.
        for _ in 0..2 {
            io.routed = vec![0, 0, 4];
            fw.scan(&mut io);
            io.tick();
            assert!(io.switches.is_empty());
        }
        io.routed = vec![0, 0, 4];
        fw.scan(&mut io);
        assert_eq!(io.switches, vec![TaskId::new(2)]);
        assert_eq!(fw.budget_overruns(), 0);
        assert_eq!(fw.faults(), 0);
    }

    #[test]
    fn ffw_firmware_forages_after_timeout() {
        let cfg = FfwConfig {
            timeout_scans: 3,
            ..FfwConfig::default()
        };
        let mut fw = FirmwareModel::foraging_for_work(3, &cfg);
        let mut io = MockAimIo::new(3);
        io.local = Some(TaskId::new(0));
        io.feed = 255;
        fw.scan(&mut io); // fed: armed
        io.tick();
        io.oldest = Some((TaskId::new(1), 400));
        for _ in 0..3 {
            fw.scan(&mut io);
            io.tick();
        }
        assert!(io.switches.is_empty());
        fw.scan(&mut io);
        assert_eq!(io.switches, vec![TaskId::new(1)]);
    }

    #[test]
    fn firmware_ignores_out_of_range_switch() {
        // A program that immediately writes an out-of-range task id.
        let src = "LOAD s0, 9\nOUTPUT s0, (0x00)\nOUTPUT s0, (0xFF)\nspin: JUMP spin\n";
        let program = asm::assemble(src).expect("valid");
        let mut fw = FirmwareModel::from_program(program, "test", 3);
        let mut io = MockAimIo::new(3);
        fw.scan(&mut io);
        assert!(io.switches.is_empty(), "task 9 of 3 must be ignored");
    }

    #[test]
    fn budget_overrun_is_counted_not_fatal() {
        let src = "spin: JUMP spin\n";
        let program = asm::assemble(src).expect("valid");
        let mut fw = FirmwareModel::from_program(program, "test", 3).with_budget(64);
        let mut io = MockAimIo::new(3);
        fw.scan(&mut io);
        fw.scan(&mut io);
        assert_eq!(fw.budget_overruns(), 2);
    }

    #[test]
    fn firmware_fault_is_counted_not_fatal() {
        // RETURN with empty stack faults immediately.
        let src = "RETURN\n";
        let program = asm::assemble(src).expect("valid");
        let mut fw = FirmwareModel::from_program(program, "test", 3);
        let mut io = MockAimIo::new(3);
        fw.scan(&mut io);
        assert_eq!(fw.faults(), 1);
    }

    #[test]
    fn config_registers_are_firmware_visible() {
        let cfg = NiConfig {
            threshold: 200,
            fixation_scans: 0,
            ..NiConfig::default()
        };
        let mut fw = FirmwareModel::network_interaction(2, &cfg);
        let mut io = MockAimIo::new(2);
        io.routed = vec![150, 0];
        fw.scan(&mut io);
        assert!(io.switches.is_empty(), "below threshold 200");
        fw.configure(regs::NI_THRESHOLD, 100);
        io.routed = vec![10, 0];
        fw.scan(&mut io);
        assert_eq!(io.switches, vec![TaskId::new(0)], "160 >= 100 fires");
    }

    #[test]
    fn runtime_fixation_decrease_reclamps_commit_store() {
        // Lowering NI_FIXATION at runtime must re-clamp the commitment
        // store at the next scan, as NetworkInteraction::scan does.
        let cfg = NiConfig {
            threshold: 5,
            fixation_scans: 200,
            ..NiConfig::default()
        };
        let mut fw = FirmwareModel::network_interaction(2, &cfg);
        let mut io = MockAimIo::new(2);
        io.routed = vec![9, 0];
        fw.scan(&mut io);
        io.tick();
        assert!(io.switches.is_empty(), "fixated: the store powers on full");
        fw.configure(regs::NI_FIXATION, 0);
        fw.scan(&mut io);
        assert_eq!(
            io.switches,
            vec![TaskId::new(0)],
            "re-clamped store lets the stored stimulus decide immediately"
        );
    }

    /// Instructions one scan retires, from the `JUMP scan` that closes
    /// the previous scan to this scan's sync write.
    fn scan_cost(fw: &mut FirmwareModel, io: &mut MockAimIo, routed: [u32; 3], feed: u32) -> u64 {
        let before = fw.instructions_retired();
        io.routed = routed.to_vec();
        io.feed = feed;
        fw.scan(io);
        io.tick();
        fw.instructions_retired() - before
    }

    #[test]
    fn scan_instruction_counts_are_pinned() {
        // The shipped firmware's cost per scan path, on 3 tasks. A change
        // to either `.psm` that lengthens a path fails here.
        let cfg = NiConfig {
            threshold: 10,
            fixation_scans: 3,
            ..NiConfig::default()
        };
        let mut fw = FirmwareModel::network_interaction(3, &cfg);
        let mut io = MockAimIo::new(3);
        scan_cost(&mut fw, &mut io, [0; 3], 0); // from reset: store 3 -> 2
        assert_eq!(
            scan_cost(&mut fw, &mut io, [1, 2, 0], 0),
            47,
            "draining: unfed, store 2 -> 1, still committed"
        );
        assert_eq!(
            scan_cost(&mut fw, &mut io, [1, 2, 0], 60),
            50,
            "committed: fed, store tops up to the cap"
        );
        for _ in 0..2 {
            scan_cost(&mut fw, &mut io, [0; 3], 0); // store 3 -> 1
        }
        assert_eq!(
            scan_cost(&mut fw, &mut io, [0, 0, 1], 0),
            71,
            "deciding: store drains to 0, nothing at the threshold"
        );
        assert!(io.switches.is_empty());
        assert_eq!(
            scan_cost(&mut fw, &mut io, [0, 9, 0], 0),
            89,
            "firing: task 1 crosses the threshold, counters clear"
        );
        assert_eq!(io.switches, vec![TaskId::new(1)]);
        scan_cost(&mut fw, &mut io, [300; 3], 0); // counters reach 255
        assert_eq!(
            scan_cost(&mut fw, &mut io, [300; 3], 0),
            50,
            "saturating: draining, every counter clamps at 255"
        );

        let mut fw = FirmwareModel::foraging_for_work(3, &FfwConfig::default());
        scan_cost(&mut fw, &mut io, [0; 3], 255); // fed: armed
        assert_eq!(
            scan_cost(&mut fw, &mut io, [0; 3], 0),
            9,
            "FFW: unfed, the watchdog counts down"
        );
    }

    #[test]
    #[should_panic(expected = "at most 16 tasks")]
    fn more_than_sixteen_tasks_rejected() {
        // Beyond 16 tasks the port map's per-task banks alias each other.
        let _ = FirmwareModel::network_interaction(17, &NiConfig::default());
    }

    #[test]
    fn reset_restores_power_on_state() {
        let cfg = NiConfig {
            threshold: 10,
            fixation_scans: 0,
            ..NiConfig::default()
        };
        let mut fw = FirmwareModel::network_interaction(2, &cfg);
        let mut io = MockAimIo::new(2);
        io.routed = vec![7, 0];
        fw.scan(&mut io);
        fw.reset();
        // Counter state cleared: 7 more impulses do not fire.
        io.routed = vec![7, 0];
        fw.scan(&mut io);
        assert!(io.switches.is_empty());
    }
}
