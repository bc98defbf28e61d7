//! Division-of-labour metrics over the platform's PEs.

use crate::agent::Agent;

/// Shannon entropy (nats) of a discrete distribution given as
/// non-negative weights; zero-weight symbols are skipped.
fn entropy(weights: &[f64]) -> f64 {
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    -weights
        .iter()
        .filter(|&&w| w > 0.0)
        .map(|&w| {
            let p = w / total;
            p * p.ln()
        })
        .sum::<f64>()
}

/// Mean Shannon entropy (nats) of individual lifetime task-time
/// distributions, over alive PEs that have worked at all.
///
/// Specialists spend their lifetime on one task (entropy → 0);
/// generalists spread evenly (entropy → `ln(n_tasks)`).
///
/// # Examples
///
/// ```
/// use sirtm_scenario::agent::Agent;
/// use sirtm_scenario::metrics::mean_individual_entropy;
///
/// let mut specialist = Agent::new(2);
/// specialist.engage(0);
/// for _ in 0..10 {
///     specialist.record_step();
/// }
/// assert_eq!(mean_individual_entropy(&[specialist]), 0.0);
/// ```
pub fn mean_individual_entropy(agents: &[Agent]) -> f64 {
    let entropies: Vec<f64> = workers(agents)
        .map(|a| {
            let w: Vec<f64> = a.task_times().iter().map(|&t| t as f64).collect();
            entropy(&w)
        })
        .collect();
    if entropies.is_empty() {
        0.0
    } else {
        entropies.iter().sum::<f64>() / entropies.len() as f64
    }
}

/// The specialisation index `1 − H_individual / H_colony`: 0 when every
/// PE mirrors the platform's overall task-time distribution (pure
/// generalists), approaching 1 when PEs are fully specialised while the
/// platform still covers all tasks.
///
/// Returns 0 when there is no work history or it covers a single task
/// (no division of labour is measurable).
///
/// # Examples
///
/// ```
/// use sirtm_scenario::agent::Agent;
/// use sirtm_scenario::metrics::specialisation_index;
///
/// // Two complementary specialists: full division of labour.
/// let mut a = Agent::new(2);
/// a.engage(0);
/// for _ in 0..10 { a.record_step(); }
/// let mut b = Agent::new(2);
/// b.engage(1);
/// for _ in 0..10 { b.record_step(); }
/// assert!((specialisation_index(&[a, b]) - 1.0).abs() < 1e-12);
/// ```
pub fn specialisation_index(agents: &[Agent]) -> f64 {
    let Some(n_tasks) = workers(agents).next().map(|a| a.task_times().len()) else {
        return 0.0;
    };
    let mut colony = vec![0.0; n_tasks];
    for a in workers(agents) {
        for (c, &t) in colony.iter_mut().zip(a.task_times()) {
            *c += t as f64;
        }
    }
    let h_colony = entropy(&colony);
    if h_colony <= 0.0 {
        return 0.0;
    }
    1.0 - mean_individual_entropy(agents) / h_colony
}

/// Alive records with any work history.
fn workers(agents: &[Agent]) -> impl Iterator<Item = &Agent> {
    agents
        .iter()
        .filter(|a| a.is_alive() && a.task_times().iter().sum::<u64>() > 0)
}

/// L1 distance between the normalised allocation and the normalised
/// demand vector — 0 when the workforce mirrors demand perfectly, up to
/// 2 for complete mismatch.
///
/// # Examples
///
/// ```
/// use sirtm_scenario::metrics::allocation_error;
///
/// assert_eq!(allocation_error(&[20, 10], &[2.0, 1.0]), 0.0);
/// assert_eq!(allocation_error(&[10, 0], &[0.0, 1.0]), 2.0);
/// ```
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn allocation_error(allocation: &[usize], demand: &[f64]) -> f64 {
    assert_eq!(allocation.len(), demand.len(), "length mismatch");
    let a_total: f64 = allocation.iter().map(|&a| a as f64).sum();
    let d_total: f64 = demand.iter().sum();
    if a_total == 0.0 || d_total == 0.0 {
        // No workers or no demand: error is the full mass of the other.
        return if a_total == d_total { 0.0 } else { 2.0 };
    }
    allocation
        .iter()
        .zip(demand)
        .map(|(&a, &d)| (a as f64 / a_total - d / d_total).abs())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn worker(task: usize, steps: u64, n_tasks: usize) -> Agent {
        let mut a = Agent::new(n_tasks);
        a.engage(task);
        for _ in 0..steps {
            a.record_step();
        }
        a
    }

    #[test]
    fn entropy_of_uniform_is_ln_n() {
        assert!((entropy(&[1.0, 1.0]) - (2.0f64).ln()).abs() < 1e-12);
        assert!((entropy(&[3.0, 3.0, 3.0]) - (3.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn entropy_of_point_mass_is_zero() {
        assert_eq!(entropy(&[5.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn generalists_score_zero_specialisation() {
        // Each PE splits its time evenly over both tasks.
        let mut agents = Vec::new();
        for _ in 0..4 {
            let mut a = Agent::new(2);
            a.engage(0);
            for _ in 0..5 {
                a.record_step();
            }
            a.engage(1);
            for _ in 0..5 {
                a.record_step();
            }
            agents.push(a);
        }
        assert!(specialisation_index(&agents).abs() < 1e-12);
    }

    #[test]
    fn complementary_specialists_score_one() {
        let agents = vec![worker(0, 10, 2), worker(1, 10, 2)];
        assert!((specialisation_index(&agents) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_task_colony_scores_zero() {
        let agents = vec![worker(0, 10, 2), worker(0, 4, 2)];
        assert_eq!(specialisation_index(&agents), 0.0, "no labour to divide");
    }

    #[test]
    fn dead_agents_excluded() {
        let mut dead = worker(1, 100, 2);
        dead.kill();
        let agents = vec![worker(0, 10, 2), dead];
        assert_eq!(mean_individual_entropy(&agents), 0.0);
        assert_eq!(
            specialisation_index(&agents),
            0.0,
            "one live worker, one task"
        );
    }

    #[test]
    fn workless_colony_scores_zero() {
        let agents = vec![Agent::new(2)];
        assert_eq!(mean_individual_entropy(&agents), 0.0);
        assert_eq!(specialisation_index(&agents), 0.0);
    }

    #[test]
    fn allocation_error_bounds() {
        assert_eq!(allocation_error(&[1, 1], &[1.0, 1.0]), 0.0);
        let e = allocation_error(&[3, 1], &[1.0, 1.0]);
        assert!(e > 0.0 && e < 2.0);
        assert_eq!(allocation_error(&[0, 0], &[0.0, 0.0]), 0.0);
        assert_eq!(allocation_error(&[0, 0], &[1.0, 0.0]), 2.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn allocation_error_length_mismatch_panics() {
        allocation_error(&[1], &[1.0, 2.0]);
    }
}
