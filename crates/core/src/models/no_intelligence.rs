//! The paper's baseline: no embedded intelligence at all.

use crate::io::AimIo;
use crate::models::RtmModel;

/// The "No Intelligence" baseline. The node keeps whatever task the fixed
/// heuristic mapping assigned; the AIM scan is a no-op.
///
/// # Examples
///
/// ```
/// use sirtm_core::models::{NoIntelligence, RtmModel};
/// use sirtm_core::io::MockAimIo;
///
/// let mut model = NoIntelligence::new();
/// let mut io = MockAimIo::new(3);
/// io.routed = vec![100, 100, 100];
/// model.scan(&mut io);
/// assert!(io.switches.is_empty(), "the baseline never switches tasks");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoIntelligence;

impl NoIntelligence {
    /// Creates the baseline model.
    pub fn new() -> Self {
        Self
    }
}

impl RtmModel for NoIntelligence {
    fn name(&self) -> &'static str {
        "none"
    }

    fn scan(&mut self, _io: &mut dyn AimIo) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::MockAimIo;

    #[test]
    fn never_switches_regardless_of_stimulus() {
        let mut model = NoIntelligence::new();
        let mut io = MockAimIo::new(3);
        for _ in 0..100 {
            io.routed = vec![255, 255, 255];
            io.internal = vec![0, 0, 0];
            io.oldest = Some((sirtm_taskgraph::TaskId::new(1), 10_000));
            model.scan(&mut io);
            io.tick();
        }
        assert!(io.switches.is_empty());
    }
}
