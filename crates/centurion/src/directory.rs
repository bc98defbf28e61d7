//! The neighbour-gossip task directory.
//!
//! The paper lists "signals from intelligence modules of neighbouring
//! nodes" among the AIM's monitors. SIRTM turns those neighbour wires into
//! a distance-vector directory: every gossip round a node rebuilds, per
//! task, up to five candidate instances — itself plus the best instance
//! known to each of its four neighbours one round ago. Information
//! propagates one hop per round, so an entry at distance *d* is *d* rounds
//! old; a staleness bound on distance flushes mirages (including
//! count-to-infinity loops) after at most `dist_max` rounds.
//!
//! Senders address data to the nearest known instance
//! ([`Directory::pick_nearest`]) and round-robin acks over the candidate
//! slots ([`Directory::pick`]), which spreads the success signal across
//! sibling instances in different directions.
//!
//! [`gossip_round`] recomputes every table; the platform's [`Gossip`]
//! recomputes only the tables whose inputs changed and yields the same
//! tables round for round.

use sirtm_noc::NodeId;
use sirtm_taskgraph::TaskId;

/// A known task instance: where and how far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirEntry {
    /// The instance's node.
    pub node: NodeId,
    /// Hop distance when the entry was built (also its age in rounds).
    pub dist: u8,
}

/// Candidate slots per task: N, E, S, W neighbours' best plus self.
pub const SLOTS: usize = 5;

/// The self slot index.
pub const SELF_SLOT: usize = 4;

/// One node's directory: per task, up to [`SLOTS`] candidate instances.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Directory {
    /// `entries[task * SLOTS + slot]`.
    entries: Vec<Option<DirEntry>>,
    /// Per-task round-robin pointer for sender-side load spreading.
    rr: Vec<u8>,
    n_tasks: usize,
}

impl Directory {
    /// Creates an empty directory for `n_tasks` tasks.
    pub fn new(n_tasks: usize) -> Self {
        Self {
            entries: vec![None; n_tasks * SLOTS],
            rr: vec![0; n_tasks],
            n_tasks,
        }
    }

    /// Number of tasks.
    pub fn n_tasks(&self) -> usize {
        self.n_tasks
    }

    /// The candidate in `slot` for `task`.
    ///
    /// # Panics
    ///
    /// Panics if `task` or `slot` are out of range.
    pub fn slot(&self, task: TaskId, slot: usize) -> Option<DirEntry> {
        assert!(slot < SLOTS, "slot out of range");
        self.entries[task.index() * SLOTS + slot]
    }

    /// Writes the candidate in `slot` for `task` (used by the gossip
    /// update).
    pub fn set_slot(&mut self, task: TaskId, slot: usize, entry: Option<DirEntry>) {
        assert!(slot < SLOTS, "slot out of range");
        self.entries[task.index() * SLOTS + slot] = entry;
    }

    /// The nearest known instance of `task` (minimum distance, ties to
    /// the lowest node id for determinism).
    pub fn best(&self, task: TaskId) -> Option<DirEntry> {
        let base = task.index() * SLOTS;
        self.entries[base..base + SLOTS]
            .iter()
            .flatten()
            .copied()
            .min_by_key(|e| (e.dist, e.node))
    }

    /// Picks an instance of `task` for the next send, round-robining over
    /// the populated candidate slots to spread load across sibling
    /// instances. Returns `None` when no instance is known.
    pub fn pick(&mut self, task: TaskId) -> Option<NodeId> {
        let base = task.index() * SLOTS;
        let start = self.rr[task.index()] as usize;
        for k in 0..SLOTS {
            let slot = (start + k) % SLOTS;
            if let Some(e) = self.entries[base + slot] {
                self.rr[task.index()] = ((slot + 1) % SLOTS) as u8;
                return Some(e.node);
            }
        }
        None
    }

    /// The nearest known instance's node: where the platform sends data
    /// packets.
    pub fn pick_nearest(&self, task: TaskId) -> Option<NodeId> {
        self.best(task).map(|e| e.node)
    }

    /// Whether any instance of `task` is known.
    pub fn knows(&self, task: TaskId) -> bool {
        self.best(task).is_some()
    }

    /// Clears every entry (used when a node dies).
    pub fn clear(&mut self) {
        self.entries.fill(None);
    }
}

/// Computes one synchronous gossip round for the whole grid.
///
/// `locals[n]` is node `n`'s advertised task (alive nodes only);
/// `neighbours[n][d]` is the node index of `n`'s neighbour in direction
/// `d` (N, E, S, W), if any. Reads `prev`, returns a fresh set of tables
/// (the sender-side round-robin pointers are carried over). The oracle
/// [`Gossip::round`] is checked against.
pub fn gossip_round(
    prev: &[Directory],
    locals: &[Option<TaskId>],
    neighbours: &[[Option<usize>; 4]],
    n_tasks: usize,
    dist_max: u8,
) -> Vec<Directory> {
    let mut next: Vec<Directory> = prev.to_vec();
    for (n, dir) in next.iter_mut().enumerate() {
        for t in 0..n_tasks {
            let task = TaskId::new(t as u8);
            // Self slot: advertise own task at distance 0.
            let self_entry = (locals[n] == Some(task)).then_some(DirEntry {
                node: NodeId::new(n as u16),
                dist: 0,
            });
            dir.set_slot(task, SELF_SLOT, self_entry);
            // Neighbour slots: their best from the previous round, one
            // hop further and bounded by the staleness limit.
            for (d, link) in neighbours[n].iter().enumerate() {
                let entry = link
                    .and_then(|m| prev[m].best(task))
                    .and_then(|e| hop(e, dist_max));
                dir.set_slot(task, d, entry);
            }
        }
    }
    next
}

/// `e` as seen one hop further away, unless that exceeds `dist_max`.
fn hop(e: DirEntry, dist_max: u8) -> Option<DirEntry> {
    let dist = e.dist.saturating_add(1);
    (dist <= dist_max).then_some(DirEntry { node: e.node, dist })
}

/// Every node's directory, advanced by gossip rounds that recompute only
/// the nodes whose tables can change.
///
/// A node's next table depends only on its advertised task and on its
/// neighbours' best entries from the previous round. So a round
/// recomputes only *dirty* nodes: nodes whose task changed, a cleared
/// (killed) node and its neighbours, the neighbours of any node whose
/// best entry changed in the last round, and every node whose table
/// changed in it. The last rule makes the round after a change recheck
/// it, as a full round would, so the gossip counts as converged — no
/// node dirty — exactly when a full round would reproduce its input.
/// Tables match [`gossip_round`]'s round for round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gossip {
    dirs: Vec<Directory>,
    /// `bests[n * n_tasks + t]`: node `n`'s best entry for task `t` as of
    /// the last round — what its neighbours read in the next.
    bests: Vec<Option<DirEntry>>,
    /// Nodes the next round recomputes, and their membership flags.
    dirty: Vec<u32>,
    is_dirty: Vec<bool>,
    /// Reused buffers: the list being recomputed and its changed nodes.
    spare: Vec<u32>,
    changed: Vec<u32>,
    n_tasks: usize,
    dist_max: u8,
}

impl Gossip {
    /// Starts from `dirs` (one per node, each sized for `n_tasks`) with
    /// every node dirty, so the first round checks them all.
    pub fn new(dirs: Vec<Directory>, n_tasks: usize, dist_max: u8) -> Self {
        let n = dirs.len();
        let mut gossip = Self {
            bests: vec![None; n * n_tasks],
            dirty: Vec::with_capacity(n),
            is_dirty: vec![false; n],
            spare: Vec::with_capacity(n),
            changed: Vec::with_capacity(n),
            dirs,
            n_tasks,
            dist_max,
        };
        gossip.reset_derived();
        gossip
    }

    /// Every node's directory, in node order.
    pub fn directories(&self) -> &[Directory] {
        &self.dirs
    }

    /// The staleness bound on entry distance, in hops.
    pub fn dist_max(&self) -> u8 {
        self.dist_max
    }

    /// Whether the tables are at a fixpoint: no node is dirty, so a round
    /// would change nothing.
    pub fn is_converged(&self) -> bool {
        self.dirty.is_empty()
    }

    /// [`Directory::pick`] on `node`'s directory.
    pub fn pick(&mut self, node: usize, task: TaskId) -> Option<NodeId> {
        self.dirs[node].pick(task)
    }

    /// [`Directory::pick_nearest`] on `node`'s directory.
    pub fn pick_nearest(&self, node: usize, task: TaskId) -> Option<NodeId> {
        self.dirs[node].pick_nearest(task)
    }

    /// Records that `node`'s advertised task changed.
    pub fn task_changed(&mut self, node: usize) {
        self.mark(node);
    }

    /// Clears `node`'s directory (the node died): it and, if it knew any
    /// instance, its neighbours become dirty.
    pub fn clear(&mut self, node: usize, neighbours: &[[Option<usize>; 4]]) {
        self.dirs[node].clear();
        self.mark(node);
        if self.publish_bests(node) {
            for &m in neighbours[node].iter().flatten() {
                self.mark(m);
            }
        }
    }

    /// Replaces every table (after rounds computed elsewhere, such as the
    /// platform's naive stepper) and marks every node dirty.
    pub fn reset(&mut self, dirs: Vec<Directory>) {
        assert_eq!(dirs.len(), self.dirs.len(), "grid size mismatch");
        self.dirs = dirs;
        self.reset_derived();
    }

    /// Recomputes the cached bests and marks every node dirty.
    fn reset_derived(&mut self) {
        for node in 0..self.dirs.len() {
            self.publish_bests(node);
            self.mark(node);
        }
    }

    fn mark(&mut self, node: usize) {
        if !std::mem::replace(&mut self.is_dirty[node], true) {
            self.dirty.push(node as u32);
        }
    }

    /// Refreshes `node`'s cached bests from its table; returns whether
    /// any changed.
    fn publish_bests(&mut self, node: usize) -> bool {
        let mut moved = false;
        for t in 0..self.n_tasks {
            let best = self.dirs[node].best(TaskId::new(t as u8));
            let cached = &mut self.bests[node * self.n_tasks + t];
            moved |= *cached != best;
            *cached = best;
        }
        moved
    }

    /// One synchronous gossip round over the dirty nodes. `locals` and
    /// `neighbours` are as for [`gossip_round`].
    pub fn round(&mut self, locals: &[Option<TaskId>], neighbours: &[[Option<usize>; 4]]) {
        let spare = std::mem::take(&mut self.spare);
        let mut dirty = std::mem::replace(&mut self.dirty, spare);
        let mut changed = std::mem::take(&mut self.changed);
        // Recompute every dirty table from the previous round's bests;
        // the bests are republished only once all are done.
        for &n in &dirty {
            let n = n as usize;
            self.is_dirty[n] = false;
            if self.recompute(n, locals[n], &neighbours[n]) {
                changed.push(n as u32);
            }
        }
        for &n in &changed {
            let n = n as usize;
            self.mark(n);
            if self.publish_bests(n) {
                for &m in neighbours[n].iter().flatten() {
                    self.mark(m);
                }
            }
        }
        dirty.clear();
        changed.clear();
        self.spare = dirty;
        self.changed = changed;
    }

    /// Rebuilds `n`'s table in place; returns whether it changed.
    fn recompute(&mut self, n: usize, local: Option<TaskId>, links: &[Option<usize>; 4]) -> bool {
        let (nt, dist_max) = (self.n_tasks, self.dist_max);
        let entries = &mut self.dirs[n].entries;
        let mut changed = false;
        let mut set = |slot: usize, entry: Option<DirEntry>| {
            changed |= std::mem::replace(&mut entries[slot], entry) != entry;
        };
        for t in 0..nt {
            let task = TaskId::new(t as u8);
            let self_entry = (local == Some(task)).then_some(DirEntry {
                node: NodeId::new(n as u16),
                dist: 0,
            });
            set(t * SLOTS + SELF_SLOT, self_entry);
            for (d, link) in links.iter().enumerate() {
                let entry = link
                    .and_then(|m| self.bests[m * nt + t])
                    .and_then(|e| hop(e, dist_max));
                set(t * SLOTS + d, entry);
            }
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirtm_taskgraph::GridDims;

    fn line_neighbours(len: usize) -> Vec<[Option<usize>; 4]> {
        // A 1×len line: only east (slot 1) and west (slot 3) links.
        (0..len)
            .map(|i| {
                let mut nb = [None; 4];
                if i + 1 < len {
                    nb[1] = Some(i + 1);
                }
                if i > 0 {
                    nb[3] = Some(i - 1);
                }
                nb
            })
            .collect()
    }

    #[test]
    fn information_propagates_one_hop_per_round() {
        let n = 5;
        let neighbours = line_neighbours(n);
        let mut dirs: Vec<Directory> = (0..n).map(|_| Directory::new(1)).collect();
        let mut locals = vec![None; n];
        locals[0] = Some(TaskId::new(0));
        // Round 1 seeds node 0's self slot; each later round carries the
        // entry one hop further.
        for round in 1..=5 {
            dirs = gossip_round(&dirs, &locals, &neighbours, 1, 32);
            let reach = (0..n).filter(|&i| dirs[i].knows(TaskId::new(0))).count();
            assert_eq!(reach, round.min(n), "round {round}");
        }
        // Node 4 sees node 0 at distance 4.
        let e = dirs[4].best(TaskId::new(0)).expect("propagated");
        assert_eq!(e.node, NodeId::new(0));
        assert_eq!(e.dist, 4);
    }

    #[test]
    fn nearest_instance_wins() {
        let n = 5;
        let neighbours = line_neighbours(n);
        let mut dirs: Vec<Directory> = (0..n).map(|_| Directory::new(1)).collect();
        let mut locals = vec![None; n];
        locals[0] = Some(TaskId::new(0));
        locals[4] = Some(TaskId::new(0));
        for _ in 0..6 {
            dirs = gossip_round(&dirs, &locals, &neighbours, 1, 32);
        }
        // Node 1 is 1 hop from node 0 and 3 hops from node 4.
        assert_eq!(
            dirs[1].best(TaskId::new(0)).map(|e| e.node),
            Some(NodeId::new(0))
        );
        assert_eq!(
            dirs[3].best(TaskId::new(0)).map(|e| e.node),
            Some(NodeId::new(4))
        );
    }

    #[test]
    fn dead_instance_washes_out() {
        let n = 4;
        let neighbours = line_neighbours(n);
        let mut dirs: Vec<Directory> = (0..n).map(|_| Directory::new(1)).collect();
        let mut locals = vec![None; n];
        locals[0] = Some(TaskId::new(0));
        for _ in 0..6 {
            dirs = gossip_round(&dirs, &locals, &neighbours, 1, 8);
        }
        assert!(dirs[3].knows(TaskId::new(0)));
        // The instance dies: entries must vanish within dist_max rounds.
        locals[0] = None;
        for _ in 0..9 {
            dirs = gossip_round(&dirs, &locals, &neighbours, 1, 8);
        }
        for d in &dirs {
            assert!(!d.knows(TaskId::new(0)), "stale entry survived: {d:?}");
        }
    }

    #[test]
    fn staleness_bound_limits_reach() {
        let n = 6;
        let neighbours = line_neighbours(n);
        let mut dirs: Vec<Directory> = (0..n).map(|_| Directory::new(1)).collect();
        let mut locals = vec![None; n];
        locals[0] = Some(TaskId::new(0));
        for _ in 0..10 {
            dirs = gossip_round(&dirs, &locals, &neighbours, 1, 2);
        }
        assert!(dirs[2].knows(TaskId::new(0)), "within bound");
        assert!(!dirs[3].knows(TaskId::new(0)), "beyond dist_max 2");
    }

    #[test]
    fn pick_round_robins_over_candidates() {
        let mut d = Directory::new(1);
        let t = TaskId::new(0);
        d.set_slot(
            t,
            0,
            Some(DirEntry {
                node: NodeId::new(10),
                dist: 2,
            }),
        );
        d.set_slot(
            t,
            2,
            Some(DirEntry {
                node: NodeId::new(20),
                dist: 3,
            }),
        );
        let picks: Vec<NodeId> = (0..4).map(|_| d.pick(t).expect("known")).collect();
        assert_eq!(
            picks,
            vec![
                NodeId::new(10),
                NodeId::new(20),
                NodeId::new(10),
                NodeId::new(20)
            ]
        );
    }

    #[test]
    fn pick_unknown_task_is_none() {
        let mut d = Directory::new(2);
        assert_eq!(d.pick(TaskId::new(1)), None);
        assert!(!d.knows(TaskId::new(1)));
    }

    #[test]
    fn grid_neighbour_table_shape() {
        // Sanity-check the neighbour layout used by the platform on a
        // 2×2 grid via GridDims-style indexing.
        let dims = GridDims::new(2, 2);
        assert_eq!(dims.len(), 4);
        // node 0 = (0,0): E → 1, S → 2.
        // Built by the platform; here we just document the convention:
        // slots are N, E, S, W.
    }
}
