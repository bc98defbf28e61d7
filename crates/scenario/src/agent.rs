//! Per-PE work records: the platform's PEs seen as colony members.

/// What a PE is doing right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AgentState {
    /// Not mapped to any task.
    #[default]
    Idle,
    /// Performing the given task (its index in the task graph).
    Performing(usize),
}

/// One PE's lifetime bookkeeping: current state, time per task and
/// task switches — the raw material of the division-of-labour
/// [`metrics`](crate::metrics). The [`Recorder`](crate::recorder::Recorder)
/// keeps one per PE and advances it once per window, so time is counted
/// in windows.
///
/// # Examples
///
/// ```
/// use sirtm_scenario::agent::{Agent, AgentState};
///
/// let mut pe = Agent::new(2);
/// assert_eq!(pe.state(), AgentState::Idle);
/// pe.engage(1);
/// pe.record_step();
/// pe.quit();
/// assert_eq!(pe.task_times(), &[0, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Agent {
    state: AgentState,
    time_per_task: Vec<u64>,
    switches: u64,
    alive: bool,
}

impl Agent {
    /// Creates an idle, alive record over `n_tasks` tasks.
    ///
    /// # Panics
    ///
    /// Panics if `n_tasks` is zero.
    pub fn new(n_tasks: usize) -> Self {
        assert!(n_tasks > 0, "agent needs at least one task");
        Self {
            state: AgentState::Idle,
            time_per_task: vec![0; n_tasks],
            switches: 0,
            alive: true,
        }
    }

    /// Current state.
    pub fn state(&self) -> AgentState {
        self.state
    }

    /// Whether the PE is alive.
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// Lifetime task-time distribution.
    pub fn task_times(&self) -> &[u64] {
        &self.time_per_task
    }

    /// Lifetime engagements (changes into a new task).
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Starts performing `task`.
    ///
    /// # Panics
    ///
    /// Panics if `task` is out of range or the PE is dead.
    pub fn engage(&mut self, task: usize) {
        assert!(task < self.time_per_task.len(), "task out of range");
        assert!(self.alive, "dead agents cannot engage");
        if self.state != AgentState::Performing(task) {
            self.switches += 1;
        }
        self.state = AgentState::Performing(task);
    }

    /// Returns to idle.
    pub fn quit(&mut self) {
        self.state = AgentState::Idle;
    }

    /// Records one step of activity in the lifetime tally.
    pub fn record_step(&mut self) {
        if let AgentState::Performing(t) = self.state {
            self.time_per_task[t] += 1;
        }
    }

    /// Marks the PE dead. A dead record is idle forever and invisible to
    /// the metrics.
    pub fn kill(&mut self) {
        self.alive = false;
        self.state = AgentState::Idle;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engage_counts_switches_once_per_change() {
        let mut a = Agent::new(2);
        a.engage(0);
        a.engage(0); // no change
        a.engage(1);
        assert_eq!(a.switches(), 2);
    }

    #[test]
    fn record_accumulates_only_while_performing() {
        let mut a = Agent::new(2);
        a.record_step();
        a.engage(1);
        a.record_step();
        a.record_step();
        a.quit();
        a.record_step();
        assert_eq!(a.task_times(), &[0, 2]);
    }

    #[test]
    fn killed_agent_idles_forever() {
        let mut a = Agent::new(1);
        a.engage(0);
        a.kill();
        assert!(!a.is_alive());
        assert_eq!(a.state(), AgentState::Idle);
    }

    #[test]
    #[should_panic(expected = "dead agents")]
    fn dead_agent_cannot_engage() {
        let mut a = Agent::new(1);
        a.kill();
        a.engage(0);
    }

    #[test]
    #[should_panic(expected = "task out of range")]
    fn out_of_range_task_rejected() {
        let mut a = Agent::new(1);
        a.engage(3);
    }
}
