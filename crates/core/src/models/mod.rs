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
//! and NI and FFW each either as a behavioural model here or as
//! PicoBlaze firmware ([`FirmwareModel`]). The two backends of a model
//! are differentially tested for equivalence. [`ModelKind::build`]
//! returns one node's [`Model`], which dispatches each scan statically.
//!
//! [`ThresholdUnit`]: crate::stimulus::ThresholdUnit

pub mod foraging_for_work;
pub mod network_interaction;
pub mod network_ode;

pub use foraging_for_work::{FfwConfig, ForagingForWork};
pub use network_interaction::{NetworkInteraction, NiConfig};

use std::fmt;

use crate::firmware::FirmwareModel;
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

/// One node's runtime-management controller: one scan = one AIM
/// activation (sense → decide → act through the node's [`AimIo`]).
///
/// The firmware variant is boxed: a [`FirmwareModel`] carries a whole
/// PicoBlaze core, and inline it would make every node's model that
/// size.
///
/// # Examples
///
/// ```
/// use sirtm_core::io::MockAimIo;
/// use sirtm_core::models::ModelKind;
///
/// let mut model = ModelKind::NoIntelligence.build(3);
/// let mut io = MockAimIo::new(3);
/// io.routed = vec![100, 100, 100];
/// model.scan(&mut io);
/// assert!(io.switches.is_empty(), "the baseline never switches tasks");
/// ```
#[derive(Debug, Clone)]
pub enum Model {
    /// The paper's baseline: the node keeps whatever task the fixed
    /// heuristic mapping assigned, and a scan reads and decides nothing.
    Passive,
    /// Behavioural Network Interaction.
    Ni(NetworkInteraction),
    /// Behavioural Foraging for Work.
    Ffw(ForagingForWork),
    /// Either model as PicoBlaze firmware.
    Firmware(Box<FirmwareModel>),
}

impl Model {
    /// Performs one sense→decide→act scan.
    pub fn scan<I: AimIo + ?Sized>(&mut self, io: &mut I) {
        match self {
            Model::Passive => {}
            Model::Ni(m) => m.scan(io),
            Model::Ffw(m) => m.scan(io),
            Model::Firmware(m) => m.scan(io),
        }
    }

    /// Upcoming scans that, absent new input, only count down and so
    /// change no decision. Only FFW has one (its watchdog between
    /// feeds); NI excites its thresholders from routed traffic on every
    /// scan, firmware runs its program on every scan, and a passive scan
    /// has nothing to decide.
    pub fn decision_horizon(&self) -> u32 {
        match self {
            Model::Ffw(m) => m.decision_horizon(),
            Model::Passive | Model::Ni(_) | Model::Firmware(_) => 0,
        }
    }

    /// Applies `scans` unfed scans that the [decision
    /// horizon](Model::decision_horizon) covers, as if each had run with
    /// no new input. A no-op on a passive model, whose scan changes
    /// nothing however many are folded.
    pub fn fold_unfed(&mut self, scans: u32) {
        match self {
            Model::Ffw(m) => m.fold_unfed(scans),
            Model::Passive => {}
            Model::Ni(_) | Model::Firmware(_) => debug_assert_eq!(scans, 0),
        }
    }

    /// Writes an AIM configuration register (RCAP `AimWrite` lands here).
    /// Registers the model does not read are ignored.
    pub fn configure(&mut self, reg: u8, value: u8) {
        match self {
            Model::Passive => {}
            Model::Ni(m) => m.configure(reg, value),
            Model::Ffw(m) => m.configure(reg, value),
            Model::Firmware(m) => m.configure(reg, value),
        }
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
    pub fn build(&self, n_tasks: usize) -> Model {
        match self {
            ModelKind::NoIntelligence => Model::Passive,
            ModelKind::NetworkInteraction(cfg) => {
                Model::Ni(NetworkInteraction::new(n_tasks, cfg.clone()))
            }
            ModelKind::ForagingForWork(cfg) => {
                Model::Ffw(ForagingForWork::new(n_tasks, cfg.clone()))
            }
            ModelKind::NetworkInteractionFirmware(cfg) => {
                Model::Firmware(Box::new(FirmwareModel::network_interaction(n_tasks, cfg)))
            }
            ModelKind::ForagingForWorkFirmware(cfg) => {
                Model::Firmware(Box::new(FirmwareModel::foraging_for_work(n_tasks, cfg)))
            }
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
    pub fn max_tasks(&self) -> Option<usize> {
        match self {
            ModelKind::NetworkInteractionFirmware(_) | ModelKind::ForagingForWorkFirmware(_) => {
                Some(FirmwareModel::MAX_TASKS)
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
            (ModelKind::NoIntelligence, "none", "passive"),
            (
                ModelKind::NetworkInteraction(NiConfig::default()),
                "ni",
                "ni",
            ),
            (
                ModelKind::ForagingForWork(FfwConfig::default()),
                "ffw",
                "ffw",
            ),
            (
                ModelKind::NetworkInteractionFirmware(NiConfig::default()),
                "ni-fw",
                "firmware",
            ),
            (
                ModelKind::ForagingForWorkFirmware(FfwConfig::default()),
                "ffw-fw",
                "firmware",
            ),
        ];
        for (k, name, variant) in kinds {
            assert_eq!(k.name(), name);
            let built = match k.build(3) {
                Model::Passive => "passive",
                Model::Ni(_) => "ni",
                Model::Ffw(_) => "ffw",
                Model::Firmware(_) => "firmware",
            };
            assert_eq!(built, variant, "{k}");
        }
    }

    #[test]
    fn model_fits_one_cache_line() {
        // The behavioural models stay inline; the firmware variant's
        // PicoBlaze core sits behind a box.
        let size = std::mem::size_of::<Model>();
        assert!(size <= 64, "Model is {size} bytes");
    }

    #[test]
    fn adaptivity_classification() {
        assert!(!ModelKind::NoIntelligence.is_adaptive());
        assert!(ModelKind::ForagingForWork(FfwConfig::default()).is_adaptive());
    }
}
