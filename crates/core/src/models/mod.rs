//! Task-allocation models — the six division-of-labour classes of Fig. 1.
//!
//! | Fig. 1 class | Implementation |
//! |---|---|
//! | 1. Response thresholds | [`NetworkInteraction`]'s per-task [`ThresholdUnit`] bank |
//! | 2. Integrated information transfer | [`NetworkInteraction`] — the monitored packet stream *is* the information exchanged between individuals |
//! | 3. Self-reinforcement | [`FfwConfig::reinforcement_gain`] (experience extends commitment) |
//! | 4. Social inhibition | [`NiConfig::social_inhibition_gain`] (neighbours running a task raise its threshold) |
//! | 5. Foraging for work | [`ForagingForWork`] |
//! | 6. Network task allocation (ODE abstraction) | [`network_ode::OdeColony`] |
//!
//! All models sense and act exclusively through [`AimIo`]. [`ModelKind`]
//! names the five a platform can run, one on every node: the baseline,
//! and NI and FFW each either as a behavioural [`RtmModel`] here or as
//! PicoBlaze firmware ([`crate::firmware::FirmwareModel`]). The two
//! backends of a model are differentially tested for equivalence.
//!
//! [`ThresholdUnit`]: crate::stimulus::ThresholdUnit

pub mod foraging_for_work;
pub mod network_interaction;
pub mod network_ode;
pub mod no_intelligence;

pub use foraging_for_work::{FfwConfig, ForagingForWork};
pub use network_interaction::{NetworkInteraction, NiConfig};
pub use no_intelligence::NoIntelligence;

use std::fmt;

use crate::io::AimIo;

/// AIM configuration register numbers, shared between the behavioural
/// models and the PicoBlaze firmware (exposed to firmware as input ports
/// `0x40 + reg`, writable remotely via RCAP `AimWrite`).
pub mod regs {
    /// Network Interaction switch threshold.
    pub const NI_THRESHOLD: u8 = 0;
    /// Network Interaction per-scan counter leak.
    pub const NI_LEAK: u8 = 1;
    /// Foraging-for-Work task-switch timeout, in scans.
    pub const FFW_TIMEOUT: u8 = 2;
    /// Social-inhibition gain (threshold added per neighbour on a task).
    pub const NI_INHIBITION: u8 = 3;
    /// Self-reinforcement gain (extra timeout earned per fed scan).
    pub const FFW_REINFORCEMENT: u8 = 4;
    /// Self-reinforcement cap (maximum earned bonus, in scans).
    pub const FFW_REINFORCEMENT_CAP: u8 = 5;
    /// Network Interaction task-fixation window, in scans.
    pub const NI_FIXATION: u8 = 6;
}

/// A per-node runtime-management controller: one scan = one AIM
/// activation (sense → decide → act through the node's [`AimIo`]).
pub trait RtmModel: fmt::Debug {
    /// Short stable name used in reports ("none", "ni", "ffw", …).
    fn name(&self) -> &'static str;

    /// Performs one sense→decide→act scan.
    fn scan(&mut self, io: &mut dyn AimIo);

    /// Writes an AIM configuration register (RCAP `AimWrite` lands here).
    /// Unknown registers are ignored.
    fn configure(&mut self, reg: u8, value: u8) {
        let _ = (reg, value);
    }
}

/// Selects and builds a model: the only way a model reaches a platform,
/// which builds one instance per node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelKind {
    /// The paper's baseline: a fixed heuristic mapping, no runtime
    /// decisions.
    NoIntelligence,
    /// Behavioural Network Interaction model.
    NetworkInteraction(NiConfig),
    /// Behavioural Foraging-for-Work model.
    ForagingForWork(FfwConfig),
    /// Network Interaction as PicoBlaze firmware.
    NetworkInteractionFirmware(NiConfig),
    /// Foraging-for-Work as PicoBlaze firmware.
    ForagingForWorkFirmware(FfwConfig),
}

impl ModelKind {
    /// Instantiates the model for a node on a platform with `n_tasks`
    /// application tasks.
    ///
    /// # Panics
    ///
    /// Panics if bundled firmware fails to assemble (a build defect, not a
    /// runtime condition).
    pub fn build(&self, n_tasks: usize) -> Box<dyn RtmModel> {
        match self {
            ModelKind::NoIntelligence => Box::new(NoIntelligence::new()),
            ModelKind::NetworkInteraction(cfg) => {
                Box::new(NetworkInteraction::new(n_tasks, cfg.clone()))
            }
            ModelKind::ForagingForWork(cfg) => Box::new(ForagingForWork::new(n_tasks, cfg.clone())),
            ModelKind::NetworkInteractionFirmware(cfg) => Box::new(
                crate::firmware::FirmwareModel::network_interaction(n_tasks, cfg),
            ),
            ModelKind::ForagingForWorkFirmware(cfg) => Box::new(
                crate::firmware::FirmwareModel::foraging_for_work(n_tasks, cfg),
            ),
        }
    }

    /// The model's short report name.
    pub fn name(&self) -> &'static str {
        match self {
            ModelKind::NoIntelligence => "none",
            ModelKind::NetworkInteraction(_) => "ni",
            ModelKind::ForagingForWork(_) => "ffw",
            ModelKind::NetworkInteractionFirmware(_) => "ni-fw",
            ModelKind::ForagingForWorkFirmware(_) => "ffw-fw",
        }
    }

    /// Whether the model performs any runtime adaptation (false only for
    /// the baseline, whose scan neither reads its node nor changes state).
    pub fn is_adaptive(&self) -> bool {
        !matches!(self, ModelKind::NoIntelligence)
    }

    /// Most tasks the model can be built for: the firmware models are
    /// bounded by the AIM port map ([`FirmwareModel::MAX_TASKS`]), the
    /// others are not (`None`).
    ///
    /// [`FirmwareModel::MAX_TASKS`]: crate::firmware::FirmwareModel::MAX_TASKS
    pub fn max_tasks(&self) -> Option<usize> {
        match self {
            ModelKind::NetworkInteractionFirmware(_) | ModelKind::ForagingForWorkFirmware(_) => {
                Some(crate::firmware::FirmwareModel::MAX_TASKS)
            }
            _ => None,
        }
    }
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_build_and_report_names() {
        let kinds = [
            ModelKind::NoIntelligence,
            ModelKind::NetworkInteraction(NiConfig::default()),
            ModelKind::ForagingForWork(FfwConfig::default()),
            ModelKind::NetworkInteractionFirmware(NiConfig::default()),
            ModelKind::ForagingForWorkFirmware(FfwConfig::default()),
        ];
        for k in kinds {
            let model = k.build(3);
            assert_eq!(model.name(), k.name());
        }
    }

    #[test]
    fn adaptivity_classification() {
        assert!(!ModelKind::NoIntelligence.is_adaptive());
        assert!(ModelKind::ForagingForWork(FfwConfig::default()).is_adaptive());
    }
}
