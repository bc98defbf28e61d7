//! Network task allocation as differential equations (Fig. 1 model 6).
//!
//! Gordon, Goodwin & Trainor (1992) model colony-level task allocation at
//! a higher abstraction level: continuous per-task populations driven by
//! stimulus levels rather than individual decisions. This module provides
//! that reference model. It is *not* embedded in nodes — its fixed point
//! ([`OdeColony::analytic_fixed_point`]) predicts a demand-proportional
//! allocation. The workspace test `tests/colony_core_crosscheck.rs`
//! measures platform runs against that prediction. On the default 8x16
//! fork-join (1:3:1, so 25.6 / 76.8 / 25.6 PEs), after 1000 ms at seeds
//! 20000–20009, the L1 distance is 0.013 for the baseline's heuristic
//! mapping, 0.12–0.33 for NI and 0.24–0.32 for FFW: the adaptive models
//! do not converge to it.
//!
//! Dynamics (forward-Euler integrated):
//!
//! * stimulus: `s_t' = demand_t − service_t · n_t` (work arrives at a fixed
//!   demand rate and is consumed by the `n_t` nodes on the task),
//! * reallocation: idle pressure moves population from low-stimulus to
//!   high-stimulus tasks at a rate proportional to the stimulus gap.
//!
//! The integrated populations orbit the fixed point without settling on
//! it, so the prediction is the fixed point, not an integrated state.

/// Continuous-population colony model.
///
/// # Examples
///
/// ```
/// use sirtm_core::models::network_ode::OdeColony;
///
/// // Demands 1:3:1 over 128 nodes (unit service rates).
/// let colony = OdeColony::new(vec![1.0, 3.0, 1.0], vec![1.0, 1.0, 1.0], 128.0);
/// // The demand-proportional split 25.6 / 76.8 / 25.6.
/// let fixed = colony.analytic_fixed_point();
/// for (f, want) in fixed.iter().zip([25.6, 76.8, 25.6]) {
///     assert!((f - want).abs() < 1e-9, "got {fixed:?}");
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OdeColony {
    demand: Vec<f64>,
    service: Vec<f64>,
    stimulus: Vec<f64>,
    population: Vec<f64>,
}

/// Population moved per unit stimulus gap per unit time.
const MOBILITY: f64 = 0.5;

impl OdeColony {
    /// Creates a colony of `total` individuals split evenly across tasks.
    ///
    /// `demand[t]` is the *relative* work arrival rate of task `t`;
    /// `service[t]` is the work one individual on task `t` completes per
    /// unit time. Demands are internally rescaled so the colony is exactly
    /// fully loaded (`Σ demand_t / service_t = total`), which makes the
    /// demand-proportional split the unique stimulus-free fixed point —
    /// only the demand *ratios* matter, mirroring how the embedded models
    /// only ever see relative traffic.
    ///
    /// # Panics
    ///
    /// Panics if the vectors differ in length, are empty, any service rate
    /// is non-positive, or all demands are zero.
    pub fn new(demand: Vec<f64>, service: Vec<f64>, total: f64) -> Self {
        assert_eq!(
            demand.len(),
            service.len(),
            "demand/service length mismatch"
        );
        assert!(!demand.is_empty(), "at least one task required");
        assert!(
            service.iter().all(|&s| s > 0.0),
            "service rates must be positive"
        );
        let load: f64 = demand.iter().zip(&service).map(|(&d, &s)| d / s).sum();
        assert!(load > 0.0, "total demand must be positive");
        let scale = total / load;
        let demand = demand.into_iter().map(|d| d * scale).collect();
        let n = service.len();
        Self {
            stimulus: vec![0.0; n],
            population: vec![total / n as f64; n],
            demand,
            service,
        }
    }

    /// Current per-task populations.
    pub fn populations(&self) -> &[f64] {
        &self.population
    }

    /// Current per-task stimulus levels.
    pub fn stimuli(&self) -> &[f64] {
        &self.stimulus
    }

    /// Advances one Euler step of size `dt`.
    pub fn step(&mut self, dt: f64) {
        let n = self.demand.len();
        for t in 0..n {
            let ds = self.demand[t] - self.service[t] * self.population[t];
            self.stimulus[t] = (self.stimulus[t] + ds * dt).max(0.0);
        }
        // Pairwise population flow along stimulus gradients.
        let mut delta = vec![0.0; n];
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                let gap = self.stimulus[b] - self.stimulus[a];
                if gap > 0.0 {
                    let flow = (MOBILITY * gap * dt).min(self.population[a] * 0.5);
                    delta[a] -= flow;
                    delta[b] += flow;
                }
            }
        }
        for (p, d) in self.population.iter_mut().zip(&delta) {
            *p = (*p + d).max(0.0);
        }
    }

    /// Runs `steps` Euler steps of size `dt`.
    pub fn run(&mut self, steps: usize, dt: f64) {
        for _ in 0..steps {
            self.step(dt);
        }
    }

    /// The demand-proportional fixed point the dynamics orbit:
    /// `n_t* = demand_t / service_t`, rescaled to the colony size.
    /// Euler-integrated populations circle it without settling, so this
    /// is the model's prediction, not where [`OdeColony::run`] ends.
    pub fn analytic_fixed_point(&self) -> Vec<f64> {
        let total: f64 = self.population.iter().sum();
        let raw: Vec<f64> = self
            .demand
            .iter()
            .zip(&self.service)
            .map(|(&d, &s)| d / s)
            .collect();
        let raw_total: f64 = raw.iter().sum();
        raw.iter().map(|&r| r / raw_total * total).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_is_conserved() {
        let mut c = OdeColony::new(vec![1.0, 3.0, 1.0], vec![1.0, 1.0, 1.0], 128.0);
        c.run(5000, 0.01);
        let total: f64 = c.populations().iter().sum();
        assert!((total - 128.0).abs() < 1e-6, "total drifted to {total}");
    }

    /// The 1:3:1 colony at `dt = 0.01` orbits its fixed point
    /// (25.6 / 76.8 / 25.6) without settling. Measured over steps 20,000
    /// to 1,000,000: the outer tasks swing between 15.7 and 35.5 and the
    /// middle task between 57.1 and 96.5, each crossing its fixed point
    /// about every 256 steps, with the total within 1e-11 of 128. Where
    /// a run stops on that orbit is arbitrary (25.3 / 77.3 / 25.3 at
    /// 200,000 steps, 15.8 / 96.3 / 15.8 at 500,000), so this checks what
    /// holds at every horizon: the total is conserved and, after the
    /// transient, every 1,000-step block crosses each fixed point.
    #[test]
    fn populations_keep_crossing_the_fixed_point() {
        const TRANSIENT: usize = 20_000;
        const BLOCK: usize = 1_000;
        let mut c = OdeColony::new(vec![1.0, 3.0, 1.0], vec![1.0, 1.0, 1.0], 128.0);
        let fixed = c.analytic_fixed_point();
        c.run(TRANSIENT, 0.01);
        for block in 0..300 {
            let mut above = [false; 3];
            let mut below = [false; 3];
            for _ in 0..BLOCK {
                c.step(0.01);
                let total: f64 = c.populations().iter().sum();
                assert!((total - 128.0).abs() < 1e-9, "total drifted to {total}");
                for (t, (n, f)) in c.populations().iter().zip(&fixed).enumerate() {
                    above[t] |= n > f;
                    below[t] |= n < f;
                }
            }
            for t in 0..3 {
                assert!(
                    above[t] && below[t],
                    "task {t} stopped crossing {:.1} in block {block}: {:?}",
                    fixed[t],
                    c.populations()
                );
            }
        }
    }

    #[test]
    fn service_rates_shift_the_fixed_point() {
        // Task 1's individuals are twice as fast, so it needs half as many.
        let c = OdeColony::new(vec![2.0, 2.0], vec![1.0, 2.0], 90.0);
        let fp = c.analytic_fixed_point();
        assert!((fp[0] - 60.0).abs() < 1e-9);
        assert!((fp[1] - 30.0).abs() < 1e-9);
    }

    #[test]
    fn stimulus_stays_non_negative() {
        let mut c = OdeColony::new(vec![0.1, 5.0], vec![1.0, 1.0], 10.0);
        c.run(10_000, 0.01);
        assert!(c.stimuli().iter().all(|&s| s >= 0.0));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        OdeColony::new(vec![1.0], vec![1.0, 2.0], 10.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_service_panics() {
        OdeColony::new(vec![1.0], vec![0.0], 10.0);
    }
}
