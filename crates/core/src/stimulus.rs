//! Stimulus–threshold primitives (Fig. 2b of the paper).
//!
//! The paper's AIM software platform provides "functions for: interfacing
//! to convert between impulse sequences (spike trains) and binary number
//! representation, logical comparators that generate impulses when vector
//! inputs match, and threshold circuits that act as final decision
//! makers". This module holds the two the task-allocation models in
//! [`crate::models`] are wired out of: a saturating impulse counter with a
//! firing threshold, and a retriggerable timeout.

/// An excitatory/inhibitory impulse counter with a firing threshold —
/// the "sense-react thresholder" of Fig. 2b.
///
/// Impulses raise ([`ThresholdUnit::excite`]) or lower
/// ([`ThresholdUnit::inhibit`]) a counter that saturates at
/// [`ThresholdUnit::DEFAULT_SATURATION`]; an optional leak decays it every
/// scan. The unit *fires* while the counter is at or above
/// the threshold.
///
/// # Examples
///
/// ```
/// use sirtm_core::stimulus::ThresholdUnit;
///
/// let mut unit = ThresholdUnit::new(10);
/// unit.excite(7);
/// assert!(!unit.fired());
/// unit.excite(4);
/// assert!(unit.fired());
/// assert_eq!(unit.count(), 11);
/// unit.reset();
/// assert_eq!(unit.count(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ThresholdUnit {
    count: u32,
    threshold: u32,
    leak: u32,
}

impl ThresholdUnit {
    /// Saturation cap, matching an 8-bit hardware counter.
    pub const DEFAULT_SATURATION: u32 = 255;

    /// Creates a unit firing at `threshold`, with no leak.
    pub fn new(threshold: u32) -> Self {
        Self {
            count: 0,
            threshold,
            leak: 0,
        }
    }

    /// Sets the per-scan leak (decay applied by [`ThresholdUnit::tick`]).
    pub fn with_leak(mut self, leak: u32) -> Self {
        self.leak = leak;
        self
    }

    /// Current counter value.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Replaces the threshold (adaptive-threshold extensions use this).
    pub fn set_threshold(&mut self, threshold: u32) {
        self.threshold = threshold;
    }

    /// Applies `n` excitatory impulses (saturating).
    pub fn excite(&mut self, n: u32) {
        self.count = self.count.saturating_add(n).min(Self::DEFAULT_SATURATION);
    }

    /// Applies `n` inhibitory impulses (floor at zero).
    pub fn inhibit(&mut self, n: u32) {
        self.count = self.count.saturating_sub(n);
    }

    /// Applies one scan of leak decay.
    pub fn tick(&mut self) {
        self.count = self.count.saturating_sub(self.leak);
    }

    /// Whether the counter has reached the threshold.
    pub fn fired(&self) -> bool {
        self.count >= self.threshold
    }

    /// Clears the counter (the paper resets counters after a decision).
    pub fn reset(&mut self) {
        self.count = 0;
    }
}

/// A retriggerable timeout: armed with a scan count, cleared by feed
/// impulses, fires when it runs down — the temporal element of the
/// Foraging-for-Work model ("time since sent" / task-switch timeout).
///
/// Semantics deliberately match the PicoBlaze firmware byte-for-byte so
/// the two backends are differentially testable: the timer starts
/// *expired* (remaining = 0), a feed rearms it to the full timeout, an
/// unfed scan decrements, and expiry is observed when an unfed scan finds
/// it already at zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimeoutTimer {
    timeout_scans: u32,
    remaining: u32,
}

impl TimeoutTimer {
    /// Creates a timer with the given timeout in scans, initially expired.
    pub fn new(timeout_scans: u32) -> Self {
        Self {
            timeout_scans,
            remaining: 0,
        }
    }

    /// Reconfigures the timeout (applies from the next rearm).
    pub fn set_timeout(&mut self, timeout_scans: u32) {
        self.timeout_scans = timeout_scans;
    }

    /// Scans left before expiry.
    pub fn remaining(&self) -> u32 {
        self.remaining
    }

    /// Rearms to the full timeout (a feed impulse arrived).
    pub fn feed(&mut self) {
        self.remaining = self.timeout_scans;
    }

    /// Adds `scans` of commitment, saturating at the configured timeout —
    /// the work-proportional feed of the utilisation-aware FFW variant.
    pub fn top_up(&mut self, scans: u32) {
        self.remaining = self.remaining.saturating_add(scans).min(self.timeout_scans);
    }

    /// Advances `scans` unfed scans that all fall before expiry — the same
    /// as that many [`TimeoutTimer::step_unfed`] calls returning `false`.
    pub fn run_down(&mut self, scans: u32) {
        debug_assert!(scans <= self.remaining, "a run-down may not reach expiry");
        self.remaining -= scans;
    }

    /// Advances one unfed scan; returns `true` if the timer was already
    /// expired (the FFW "task switch" trigger), in which case it rearms.
    pub fn step_unfed(&mut self) -> bool {
        if self.remaining == 0 {
            self.remaining = self.timeout_scans;
            true
        } else {
            self.remaining -= 1;
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_fires_at_exact_threshold() {
        let mut u = ThresholdUnit::new(5);
        u.excite(4);
        assert!(!u.fired());
        u.excite(1);
        assert!(u.fired());
    }

    #[test]
    fn threshold_zero_always_fires() {
        let u = ThresholdUnit::new(0);
        assert!(u.fired(), "threshold 0 fires on an empty counter");
    }

    #[test]
    fn threshold_saturates() {
        let mut u = ThresholdUnit::new(10);
        u.excite(500);
        assert_eq!(u.count(), ThresholdUnit::DEFAULT_SATURATION);
    }

    #[test]
    fn inhibit_floors_at_zero() {
        let mut u = ThresholdUnit::new(10);
        u.excite(3);
        u.inhibit(5);
        assert_eq!(u.count(), 0);
    }

    #[test]
    fn leak_decays_per_tick() {
        let mut u = ThresholdUnit::new(10).with_leak(2);
        u.excite(5);
        u.tick();
        assert_eq!(u.count(), 3);
        u.tick();
        u.tick();
        assert_eq!(u.count(), 0);
    }

    #[test]
    fn timer_starts_expired_and_rearms() {
        let mut t = TimeoutTimer::new(3);
        assert_eq!(t.remaining(), 0);
        assert!(t.step_unfed(), "expired timer fires and rearms");
        assert_eq!(t.remaining(), 3);
        assert!(!t.step_unfed());
        assert!(!t.step_unfed());
        assert!(!t.step_unfed());
        assert!(t.step_unfed(), "runs down after timeout unfed scans");
    }

    #[test]
    fn timer_feed_rearms() {
        let mut t = TimeoutTimer::new(5);
        t.feed();
        assert_eq!(t.remaining(), 5);
        assert!(!t.step_unfed());
        t.feed();
        assert_eq!(t.remaining(), 5);
    }
}
