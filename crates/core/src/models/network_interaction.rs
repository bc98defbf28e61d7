//! The Network Interaction (NI) task-allocation model (§IV-A.1).
//!
//! "A single monitor (task of packet routed) is sufficient for the Network
//! Interaction model and a dedicated thresholder for each task number in
//! the system. Each time a packet is routed an impulse generated by the
//! monitor increases the count for its destination task. Once a task count
//! exceeds its threshold, the node is switched to performing that task and
//! the task counters are reset."

use sirtm_taskgraph::TaskId;

use crate::io::AimIo;
use crate::models::regs;
use crate::stimulus::ThresholdUnit;

/// Configuration of the [`NetworkInteraction`] model.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NiConfig {
    /// Counter value at which a task's thresholder fires and the node
    /// switches to that task.
    pub threshold: u8,
    /// Counter decay applied every scan (0 = pure accumulation, matching
    /// the base firmware).
    pub leak: u8,
    /// Social-inhibition extension (Fig. 1 model 4): each neighbouring
    /// node already running task *t* raises *t*'s effective threshold by
    /// this amount, discouraging pile-up of specialists. 0 disables the
    /// extension.
    pub social_inhibition_gain: u8,
    /// Task fixation (Fig. 1 model 3, the "experience" arrow): accepted
    /// own-task work tops up a commitment store (work-proportional, capped
    /// at this many scans) that drains one scan at a time; while any
    /// commitment remains the node accumulates stimulus but defers
    /// switching. Engaged specialists ignore competing stimuli, which is
    /// what keeps scarce-but-served roles (the paper's task 1 sources)
    /// from being washed out by sheer traffic volume. The store starts
    /// full, giving a cold-start grace while the pipeline spins up.
    /// 0 disables fixation.
    pub fixation_scans: u8,
}

impl Default for NiConfig {
    fn default() -> Self {
        Self {
            threshold: 16,
            leak: 0,
            social_inhibition_gain: 0,
            fixation_scans: 200, // 20 ms — the same temporal constant as FFW
        }
    }
}

/// The Network Interaction model: a thresholder per task fed by the
/// router's "task of packet routed" monitor.
///
/// Decision semantics deliberately mirror the PicoBlaze firmware
/// instruction for instruction so the two backends are differentially
/// testable: counters saturate at 255, a candidate needs
/// `count >= threshold` **and** `count > 0`, the largest count wins and
/// ties keep the lowest task id; a firing always resets every counter,
/// even when the chosen task equals the current one.
///
/// # Examples
///
/// ```
/// use sirtm_core::io::{AimIo, MockAimIo};
/// use sirtm_core::models::{NetworkInteraction, NiConfig};
/// use sirtm_taskgraph::TaskId;
///
/// let mut model = NetworkInteraction::new(3, NiConfig {
///     threshold: 8,
///     fixation_scans: 0, // decide immediately (no fixation) for clarity
///     ..NiConfig::default()
/// });
/// let mut io = MockAimIo::new(3);
/// io.routed = vec![0, 9, 3]; // task 1 dominates the routed stream
/// model.scan(&mut io);
/// assert_eq!(io.switches, vec![TaskId::new(1)]);
/// ```
#[derive(Debug, Clone)]
pub struct NetworkInteraction {
    cfg: NiConfig,
    units: Vec<ThresholdUnit>,
    buf: Vec<u32>,
    /// Remaining commitment scans (the fixation store).
    commit: u8,
}

impl NetworkInteraction {
    /// Creates the model for `n_tasks` tasks.
    pub fn new(n_tasks: usize, cfg: NiConfig) -> Self {
        let units = (0..n_tasks)
            .map(|_| ThresholdUnit::new(cfg.threshold as u32).with_leak(cfg.leak as u32))
            .collect();
        Self {
            commit: cfg.fixation_scans,
            cfg,
            units,
            buf: vec![0; n_tasks],
        }
    }

    /// Current counter values (for inspection and tests).
    pub fn counters(&self) -> Vec<u32> {
        self.units.iter().map(ThresholdUnit::count).collect()
    }

    /// Effective threshold for task `t` given neighbour occupancy.
    fn effective_threshold<I: AimIo + ?Sized>(&self, t: usize, io: &I) -> u32 {
        let base = self.cfg.threshold as u32;
        if self.cfg.social_inhibition_gain == 0 {
            return base;
        }
        let occupied = (0..crate::io::N_NEIGHBOURS)
            .filter(|&d| io.neighbour_task(d) == Some(TaskId::new(t as u8)))
            .count() as u32;
        base + occupied * self.cfg.social_inhibition_gain as u32
    }

    /// Performs one sense→decide→act scan.
    pub fn scan<I: AimIo + ?Sized>(&mut self, io: &mut I) {
        io.read_routed(&mut self.buf);
        // Excite each task's thresholder by the impulses observed, with
        // the firmware's 8-bit saturation, then apply leak.
        for (u, &impulses) in self.units.iter_mut().zip(&self.buf) {
            u.excite(impulses.min(255));
            u.tick();
        }
        // Task fixation: own-task work tops the commitment store up
        // (work-proportionally, capped); unfed scans drain it. An engaged
        // node accumulates stimulus but defers the decision. The store is
        // clamped to the fixation window here, not when the window is
        // written: like the firmware, which reads its configuration
        // registers once per scan, only the last of several writes
        // between two scans counts.
        let cap = self.cfg.fixation_scans;
        self.commit = self.commit.min(cap);
        let feed = io.feed_amount().min(255) as u8;
        if feed > 0 {
            self.commit = self.commit.saturating_add(feed).min(cap);
        } else {
            self.commit = self.commit.saturating_sub(1);
        }
        if self.commit > 0 {
            return;
        }
        // Decision loop: largest counter at-or-above its threshold wins;
        // strict `>` keeps the lowest task id on ties (firmware parity).
        let mut best: Option<(usize, u32)> = None;
        for (t, u) in self.units.iter().enumerate() {
            let threshold = self.effective_threshold(t, io);
            let count = u.count();
            if count >= threshold && count > best.map_or(0, |(_, c)| c) {
                best = Some((t, count));
            }
        }
        if let Some((t, _)) = best {
            io.switch_task(TaskId::new(t as u8));
            for u in &mut self.units {
                u.reset();
            }
            // A fresh decision earns full commitment: the node gives its
            // new task a fair trial before reconsidering (decision-rate
            // limiting, the behavioural momentum of a recruited worker).
            self.commit = self.cfg.fixation_scans;
        }
    }

    /// Writes an AIM configuration register; registers NI does not read
    /// are ignored.
    pub fn configure(&mut self, reg: u8, value: u8) {
        match reg {
            regs::NI_THRESHOLD => {
                self.cfg.threshold = value;
                for u in &mut self.units {
                    u.set_threshold(value as u32);
                }
            }
            regs::NI_LEAK => {
                self.cfg.leak = value;
                for u in &mut self.units {
                    let count = u.count();
                    *u = ThresholdUnit::new(self.cfg.threshold as u32).with_leak(value as u32);
                    u.excite(count);
                }
            }
            regs::NI_INHIBITION => self.cfg.social_inhibition_gain = value,
            regs::NI_FIXATION => self.cfg.fixation_scans = value,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::MockAimIo;

    fn model(threshold: u8) -> NetworkInteraction {
        NetworkInteraction::new(
            3,
            NiConfig {
                threshold,
                fixation_scans: 0,
                ..NiConfig::default()
            },
        )
    }

    #[test]
    fn accumulates_across_scans_until_threshold() {
        let mut m = model(10);
        let mut io = MockAimIo::new(3);
        for _ in 0..4 {
            io.routed = vec![0, 3, 0];
            m.scan(&mut io);
            io.tick();
        }
        // 4 × 3 = 12 ≥ 10 → fired on the 4th scan.
        assert_eq!(io.switches, vec![TaskId::new(1)]);
        assert_eq!(m.counters(), vec![0, 0, 0], "counters reset after firing");
    }

    #[test]
    fn largest_count_wins_ties_go_low() {
        let mut m = model(5);
        let mut io = MockAimIo::new(3);
        io.routed = vec![6, 9, 6];
        m.scan(&mut io);
        assert_eq!(io.switches, vec![TaskId::new(1)]);

        let mut m = model(5);
        let mut io = MockAimIo::new(3);
        io.routed = vec![7, 7, 7];
        m.scan(&mut io);
        assert_eq!(io.switches, vec![TaskId::new(0)], "tie keeps lowest id");
    }

    #[test]
    fn no_stimulus_no_switch() {
        let mut m = model(0);
        let mut io = MockAimIo::new(3);
        for _ in 0..10 {
            m.scan(&mut io);
            io.tick();
        }
        assert!(io.switches.is_empty(), "zero counters never win");
    }

    #[test]
    fn refires_for_same_task_and_still_resets() {
        let mut m = model(4);
        let mut io = MockAimIo::new(3);
        io.local = Some(TaskId::new(2));
        io.routed = vec![0, 0, 5];
        m.scan(&mut io);
        assert_eq!(io.switches, vec![TaskId::new(2)]);
        assert_eq!(m.counters(), vec![0, 0, 0]);
    }

    #[test]
    fn leak_forgets_stale_traffic() {
        let mut m = NetworkInteraction::new(
            2,
            NiConfig {
                threshold: 10,
                leak: 2,
                social_inhibition_gain: 0,
                fixation_scans: 0,
            },
        );
        let mut io = MockAimIo::new(2);
        // 3 impulses per scan, 2 leak → net +1 per scan: slow build-up.
        for _ in 0..8 {
            io.routed = vec![3, 0];
            m.scan(&mut io);
            io.tick();
        }
        assert!(io.switches.is_empty());
        assert_eq!(m.counters()[0], 8);
    }

    #[test]
    fn saturates_like_the_firmware() {
        let mut m = model(255);
        let mut io = MockAimIo::new(3);
        io.routed = vec![1000, 0, 0];
        m.scan(&mut io);
        // 1000 impulses clamp to 255 which reaches the 255 threshold.
        assert_eq!(io.switches, vec![TaskId::new(0)]);
    }

    #[test]
    fn social_inhibition_raises_threshold() {
        let mut m = NetworkInteraction::new(
            2,
            NiConfig {
                threshold: 5,
                leak: 0,
                social_inhibition_gain: 4,
                fixation_scans: 0,
            },
        );
        let mut io = MockAimIo::new(2);
        // Three neighbours already run task 0: effective threshold 5+12=17.
        io.neighbours = [
            Some(TaskId::new(0)),
            Some(TaskId::new(0)),
            Some(TaskId::new(0)),
            None,
        ];
        io.routed = vec![10, 0];
        m.scan(&mut io);
        assert!(io.switches.is_empty(), "inhibited by saturated neighbours");
        io.routed = vec![10, 0];
        m.scan(&mut io);
        assert_eq!(
            io.switches,
            vec![TaskId::new(0)],
            "20 impulses beat the inhibited threshold"
        );
    }

    #[test]
    fn configure_updates_threshold_at_runtime() {
        let mut m = model(200);
        let mut io = MockAimIo::new(3);
        io.routed = vec![50, 0, 0];
        m.scan(&mut io);
        assert!(io.switches.is_empty());
        m.configure(regs::NI_THRESHOLD, 40);
        io.routed = vec![0, 0, 0];
        m.scan(&mut io);
        assert_eq!(
            io.switches,
            vec![TaskId::new(0)],
            "existing count now fires"
        );
    }

    #[test]
    fn fixation_defers_switching_while_fed() {
        let mut m = NetworkInteraction::new(
            2,
            NiConfig {
                threshold: 4,
                leak: 0,
                social_inhibition_gain: 0,
                fixation_scans: 3,
            },
        );
        let mut io = MockAimIo::new(2);
        // Heavy foreign traffic, but the node keeps receiving own work.
        for _ in 0..20 {
            io.routed = vec![0, 50];
            io.feed = 10;
            m.scan(&mut io);
            io.tick();
        }
        assert!(io.switches.is_empty(), "fed node stays committed");
        // Starve it: the commitment store (cap 3) drains in 3 scans, then
        // the accumulated stimulus fires.
        for _ in 0..3 {
            io.routed = vec![0, 1];
            m.scan(&mut io);
            io.tick();
        }
        assert_eq!(io.switches, vec![TaskId::new(1)]);
    }

    #[test]
    fn fixation_grace_applies_from_start() {
        let mut m = NetworkInteraction::new(
            2,
            NiConfig {
                threshold: 1,
                leak: 0,
                social_inhibition_gain: 0,
                fixation_scans: 5,
            },
        );
        let mut io = MockAimIo::new(2);
        io.routed = vec![9, 0];
        m.scan(&mut io);
        assert!(
            io.switches.is_empty(),
            "the store powers on full: first scans are a grace window"
        );
        for _ in 0..5 {
            m.scan(&mut io);
            io.tick();
        }
        assert_eq!(io.switches, vec![TaskId::new(0)], "decides after draining");
    }
}
