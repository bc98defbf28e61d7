//! ASCII visualisation of the grid's task topology.
//!
//! The paper's Fig. 4 caption speaks of the system "reorganising the task
//! topology to reflect the task graph"; this module makes that topology
//! visible: one character per node (task index as a letter, `.` for idle,
//! `x` for dead, `~` for hung), laid out as the physical grid.

use crate::platform::Platform;
use sirtm_noc::NodeId;

/// Renders the platform's current task topology as a `height`-line map.
///
/// # Examples
///
/// ```
/// use sirtm_centurion::{render, Platform, PlatformConfig};
/// use sirtm_core::models::ModelKind;
/// use sirtm_taskgraph::{workloads, Mapping};
///
/// let cfg = PlatformConfig::default();
/// let graph = workloads::fork_join(&workloads::ForkJoinParams::default());
/// let mapping = Mapping::heuristic(&graph, cfg.dims);
/// let platform = Platform::new(graph, &mapping, &ModelKind::NoIntelligence, cfg);
/// let map = render::task_map(&platform);
/// assert_eq!(map.lines().count(), 16);
/// assert!(map.contains('A') && map.contains('B') && map.contains('C'));
/// ```
pub fn task_map(platform: &Platform) -> String {
    let dims = platform.config().dims;
    let mut out = String::with_capacity((dims.width() as usize + 1) * dims.height() as usize);
    for y in 0..dims.height() {
        for x in 0..dims.width() {
            let node = NodeId::new(dims.index(x, y) as u16);
            let pe = platform.pe(node);
            let c = if !pe.is_alive() {
                'x'
            } else if !pe.clock_enabled() {
                '~'
            } else {
                match pe.task() {
                    Some(t) => (b'A' + (t.raw() % 26)) as char,
                    None => '.',
                }
            };
            out.push(c);
        }
        out.push('\n');
    }
    out
}

/// Renders a per-node activity map: `#` nodes that completed work within
/// the trailing `window_ms`, `-` alive-but-quiet, `x` dead.
pub fn activity_map(platform: &Platform, window_ms: f64) -> String {
    let dims = platform.config().dims;
    let since = platform
        .now()
        .saturating_sub(platform.config().ms_to_cycles(window_ms));
    let mut out = String::with_capacity((dims.width() as usize + 1) * dims.height() as usize);
    for y in 0..dims.height() {
        for x in 0..dims.width() {
            let node = NodeId::new(dims.index(x, y) as u16);
            let pe = platform.pe(node);
            let c = if !pe.is_alive() {
                'x'
            } else if pe.last_completion().is_some_and(|t| t >= since) {
                '#'
            } else {
                '-'
            };
            out.push(c);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlatformConfig;
    use sirtm_core::models::ModelKind;
    use sirtm_taskgraph::workloads::{fork_join, ForkJoinParams};
    use sirtm_taskgraph::{GridDims, Mapping};

    fn platform() -> Platform {
        let cfg = PlatformConfig {
            dims: GridDims::new(4, 4),
            ..PlatformConfig::default()
        };
        let g = fork_join(&ForkJoinParams::default());
        let mapping = Mapping::heuristic(&g, cfg.dims);
        Platform::new(g, &mapping, &ModelKind::NoIntelligence, cfg)
    }

    #[test]
    fn task_map_shape_and_symbols() {
        let p = platform();
        let map = task_map(&p);
        assert_eq!(map.lines().count(), 4);
        assert!(map.lines().all(|l| l.chars().count() == 4));
        // Ratio 1:3:1: B (task2) dominates.
        let b_count = map.chars().filter(|&c| c == 'B').count();
        assert!(b_count >= 8, "expected task-2 majority, got {b_count}");
    }

    #[test]
    fn dead_and_hung_nodes_are_marked() {
        let mut p = platform();
        p.kill_pe(NodeId::new(0));
        p.hang_pe(NodeId::new(1));
        let map = task_map(&p);
        let first_row: Vec<char> = map.lines().next().expect("rows").chars().collect();
        assert_eq!(first_row[0], 'x');
        assert_eq!(first_row[1], '~');
    }

    #[test]
    fn activity_map_tracks_recent_work() {
        let mut p = platform();
        p.run_ms(50.0);
        let map = activity_map(&p, 20.0);
        assert!(map.contains('#'), "somebody worked recently:\n{map}");
        p.kill_pe(NodeId::new(5));
        let map = activity_map(&p, 20.0);
        assert!(map.contains('x'));
    }
}
