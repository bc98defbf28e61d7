//! Compilation of a spec's event list into a concrete, pollable
//! timeline of platform mutations.
//!
//! Random victim sets are resolved here, deterministically from the run
//! seed, with **per-event RNG substreams**: each randomness-consuming
//! event draws from its own stream, identified by the event's instant
//! (`at_ms` bit pattern) and its ordinal among randomness-consuming
//! events sharing that instant — *not* by its position in the event
//! list. Inserting, removing or reordering other events therefore never
//! perturbs an event's victim set (see `docs/determinism.md` for the
//! stream-id scheme). Thermal events run their physics pre-run during
//! compilation — memoized process-wide, since the victim set is a pure
//! function of the grid and the event parameters, not of the run seed
//! or the instant the event fires — so execution itself stays a pure
//! fault application.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

use sirtm_centurion::{Platform, PlatformConfig};
use sirtm_faults::{generators, Fault, FaultKind};
use sirtm_noc::{Cycle, Direction, NodeId};
use sirtm_rng::{Rng, SplitMix64, Xoshiro256StarStar};
use sirtm_taskgraph::{GridDims, TaskId};
use sirtm_thermal::{thermal_fault_scenario, ThermalConfig, ThermalScenario};

use crate::spec::{EventAction, ScenarioSpec, ThermalEventSpec};

/// Seed salt of the fault-victim stream domain: every event substream
/// derives from `seed ^ FAULT_SEED_SALT` before the per-event stream id
/// is mixed in, keeping victim streams disjoint from the mapping/phase
/// streams that consume the raw run seed.
pub const FAULT_SEED_SALT: u64 = 0x5EED_FA17;

/// Derives the RNG substream of one randomness-consuming event.
///
/// The stream id is `(at_ms bit pattern, ordinal)` where the ordinal
/// counts randomness-consuming events sharing that exact instant, in
/// listed order. Golden-ratio multiplies decorrelate the coordinates
/// and the SplitMix64 finaliser scrambles them — the same construction
/// as [`crate::sweep::SeedScheme::Derived`].
fn event_rng(seed: u64, at_ms: f64, ordinal: u64) -> Xoshiro256StarStar {
    let mixed = (seed ^ FAULT_SEED_SALT)
        ^ at_ms.to_bits().wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ ordinal.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    Xoshiro256StarStar::seed_from_u64(SplitMix64::new(mixed).next_u64())
}

#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
struct ThermalKey {
    width: u16,
    height: u16,
    overclock_mhz: u16,
    generation_period: u32,
    runaway_bits: u64,
    overclock_rows: Option<(u16, u16)>,
}

// An ordered map (detlint D1): the cache is keyed-access only today,
// but a BTreeMap keeps even its iteration order deterministic, so no
// future drain/debug path can smuggle hasher order into artefacts.
#[derive(Default)]
struct ThermalCache {
    map: BTreeMap<ThermalKey, Vec<NodeId>>,
    hits: u64,
    misses: u64,
}

static THERMAL_CACHE: OnceLock<Mutex<ThermalCache>> = OnceLock::new();

/// `(hits, misses)` counters of the process-wide thermal victim-set
/// cache. The physics pre-run of a [`ThermalEventSpec`] depends only on
/// the grid and the event parameters — never on the run seed or the
/// firing instant — so every replicate of the same cell, and every
/// event with the same physics at another instant, shares one computed
/// victim set. `tests` use the counters to assert the cache is
/// observationally transparent.
pub fn thermal_cache_stats() -> (u64, u64) {
    let cache = THERMAL_CACHE.get_or_init(Mutex::default);
    let c = cache.lock().expect("thermal cache poisoned");
    (c.hits, c.misses)
}

/// The memoized thermal pre-run: returns the victim set for `(dims, t)`,
/// computing it at most once per process.
fn thermal_victims(dims: GridDims, t: &ThermalEventSpec) -> Vec<NodeId> {
    let key = ThermalKey {
        width: dims.width(),
        height: dims.height(),
        overclock_mhz: t.overclock_mhz,
        generation_period: t.generation_period,
        runaway_bits: t.runaway_ms.to_bits(),
        overclock_rows: t.overclock_rows,
    };
    let cache = THERMAL_CACHE.get_or_init(Mutex::default);
    {
        let mut c = cache.lock().expect("thermal cache poisoned");
        if let Some(victims) = c.map.get(&key).cloned() {
            c.hits += 1;
            return victims;
        }
    }
    // Compute outside the lock so concurrent sweep workers on *different*
    // keys never serialise behind one pre-run; a rare duplicate compute
    // of the same key yields the identical (deterministic) set.
    let scenario = ThermalScenario {
        platform: PlatformConfig {
            dims,
            ..PlatformConfig::default()
        },
        overclock_mhz: t.overclock_mhz,
        generation_period: t.generation_period,
        runaway_ms: t.runaway_ms,
        overclock_rows: t.overclock_rows,
    };
    let thermal = ThermalConfig { dims };
    // The returned schedule is dropped, so its firing cycle is moot.
    let (_, report) = thermal_fault_scenario(&scenario, &thermal, 0);
    let victims = report.victim_nodes();
    let mut c = cache.lock().expect("thermal cache poisoned");
    c.misses += 1;
    c.map.entry(key).or_insert_with(|| victims.clone());
    victims
}

/// One compiled, concrete platform mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum CompiledAction {
    /// Apply these faults through the debug interface.
    Faults(Vec<Fault>),
    /// Set every node's clock.
    SetFrequencyAll(u16),
    /// Set these nodes' clocks.
    SetFrequencyNodes(Vec<NodeId>, u16),
    /// Retune a source task's generation period.
    SetGenerationPeriod(TaskId, u32),
}

/// A compiled event: an instant plus a concrete action.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledEvent {
    /// Firing instant in cycles.
    pub at: Cycle,
    /// The mutation to apply.
    pub action: CompiledAction,
}

/// An ordered, compiled perturbation timeline. Apply with
/// [`Timeline::poll`] while the platform runs, exactly like a
/// [`sirtm_faults::FaultSchedule`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    events: Vec<CompiledEvent>,
    next: usize,
    /// Thermal victim-set resolutions this compilation requested (the
    /// sim plane's `thermal_solves` counter). Counted at compile rather
    /// than at the physics layer because the thermal solver memoizes
    /// process-wide: actual solve counts depend on what other runs have
    /// already warmed, which would break sidecar determinism.
    thermal_solves: u64,
}

impl Timeline {
    /// Compiles a spec's events for one run.
    ///
    /// # Panics
    ///
    /// Panics if an event references geometry outside the spec's grid
    /// (e.g. a clock region past the last row).
    pub fn compile(spec: &ScenarioSpec, seed: u64) -> Self {
        let dims = spec.grid();
        // Ordinals of randomness-consuming events per exact instant: the
        // second random event at 500 ms is stream (500ms, 1) no matter
        // what else the timeline holds.
        let mut ordinals: Vec<(u64, u64)> = Vec::new();
        let mut stream = |at_ms: f64| -> Xoshiro256StarStar {
            let bits = at_ms.to_bits();
            let ordinal = match ordinals.iter_mut().find(|(k, _)| *k == bits) {
                Some((_, n)) => {
                    *n += 1;
                    *n - 1
                }
                None => {
                    ordinals.push((bits, 1));
                    0
                }
            };
            event_rng(seed, at_ms, ordinal)
        };
        let mut thermal_solves = 0u64;
        let mut events: Vec<CompiledEvent> = spec
            .events
            .iter()
            .map(|e| {
                let at = spec.platform.ms_to_cycles(e.at_ms);
                let action = match &e.action {
                    EventAction::RandomPeFaults { count } => {
                        let mut rng = stream(e.at_ms);
                        CompiledAction::Faults(generators::random_nodes(
                            dims,
                            *count,
                            FaultKind::PeDead,
                            &mut rng,
                        ))
                    }
                    EventAction::RandomHangs { count } => {
                        let mut rng = stream(e.at_ms);
                        CompiledAction::Faults(generators::random_nodes(
                            dims,
                            *count,
                            FaultKind::PeHang,
                            &mut rng,
                        ))
                    }
                    EventAction::RandomLinkFaults { count } => {
                        let mut rng = stream(e.at_ms);
                        let count = (*count).min(dims.len());
                        let nodes = rng.sample_indices(dims.len(), count);
                        CompiledAction::Faults(
                            nodes
                                .into_iter()
                                .map(|i| Fault {
                                    node: NodeId::new(i as u16),
                                    kind: FaultKind::LinkDown(
                                        Direction::ALL[rng.range_usize(0..4)],
                                    ),
                                })
                                .collect(),
                        )
                    }
                    EventAction::ClockRegionFaults { first_row, rows } => CompiledAction::Faults(
                        generators::clock_region(dims, *first_row, *rows, FaultKind::TileDead),
                    ),
                    EventAction::HotspotFaults { x, y, radius } => {
                        let centre = NodeId::new(dims.index(*x, *y) as u16);
                        CompiledAction::Faults(generators::hotspot(
                            dims,
                            centre,
                            *radius,
                            FaultKind::PeDead,
                        ))
                    }
                    EventAction::ThermalFaults(t) => {
                        thermal_solves += 1;
                        CompiledAction::Faults(
                            thermal_victims(dims, t)
                                .into_iter()
                                .map(|node| Fault {
                                    node,
                                    kind: FaultKind::PeDead,
                                })
                                .collect(),
                        )
                    }
                    EventAction::SetFrequencyAll { mhz } => CompiledAction::SetFrequencyAll(*mhz),
                    EventAction::SetFrequencyRows {
                        first_row,
                        rows,
                        mhz,
                    } => {
                        assert!(
                            first_row + rows <= dims.height(),
                            "frequency region outside grid"
                        );
                        let nodes = (*first_row..first_row + rows)
                            .flat_map(|y| (0..dims.width()).map(move |x| (x, y)))
                            .map(|(x, y)| NodeId::new(dims.index(x, y) as u16))
                            .collect();
                        CompiledAction::SetFrequencyNodes(nodes, *mhz)
                    }
                    EventAction::SetGenerationPeriod {
                        task,
                        period_cycles,
                    } => CompiledAction::SetGenerationPeriod(TaskId::new(*task), *period_cycles),
                };
                CompiledEvent { at, action }
            })
            .collect();
        // Stable: simultaneous events keep their listed order.
        events.sort_by_key(|e| e.at);
        Self {
            events,
            next: 0,
            thermal_solves,
        }
    }

    /// The compiled events, in firing order.
    pub fn events(&self) -> &[CompiledEvent] {
        &self.events
    }

    /// Thermal victim-set resolutions this compilation requested — the
    /// sim plane's deterministic `thermal_solves` counter.
    pub fn thermal_solves(&self) -> u64 {
        self.thermal_solves
    }

    /// Whether every event has fired.
    pub fn exhausted(&self) -> bool {
        self.next >= self.events.len()
    }

    /// The firing instant of the next event [`Timeline::poll`] has not
    /// applied yet (`None` once every event has fired).
    pub fn next_at(&self) -> Option<Cycle> {
        self.events.get(self.next).map(|e| e.at)
    }

    /// Applies every event whose instant is `<= platform.now()`; returns
    /// the number of events applied. Call once per window.
    pub fn poll(&mut self, platform: &mut Platform) -> usize {
        let now = platform.now();
        let mut applied = 0;
        while self.next < self.events.len() && self.events[self.next].at <= now {
            Self::apply(&self.events[self.next].action, platform);
            self.next += 1;
            applied += 1;
        }
        applied
    }

    fn apply(action: &CompiledAction, platform: &mut Platform) {
        match action {
            CompiledAction::Faults(faults) => {
                for f in faults {
                    f.apply(platform);
                }
            }
            CompiledAction::SetFrequencyAll(mhz) => platform.set_frequency_all(*mhz),
            CompiledAction::SetFrequencyNodes(nodes, mhz) => {
                for &node in nodes {
                    platform.set_frequency(node, *mhz);
                }
            }
            CompiledAction::SetGenerationPeriod(task, period) => {
                platform.set_generation_period(*task, *period);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirtm_core::models::ModelKind;
    use sirtm_taskgraph::GridDims;

    use crate::spec::{EventSpec, ScenarioSpec};

    fn small_spec(events: Vec<EventSpec>) -> ScenarioSpec {
        let mut spec = ScenarioSpec::new("t", ModelKind::NoIntelligence);
        spec.platform.dims = GridDims::new(4, 4);
        spec.duration_ms = 100.0;
        spec.events = events;
        spec
    }

    /// Victim sets the process-wide thermal cache holds for `dims`.
    fn cached_victim_sets(dims: GridDims) -> usize {
        let cache = THERMAL_CACHE.get_or_init(Mutex::default);
        let c = cache.lock().expect("thermal cache poisoned");
        c.map
            .keys()
            .filter(|k| (k.width, k.height) == (dims.width(), dims.height()))
            .count()
    }

    #[test]
    fn compilation_is_seed_deterministic_and_seed_sensitive() {
        let spec = small_spec(vec![EventSpec {
            at_ms: 10.0,
            action: EventAction::RandomPeFaults { count: 4 },
        }]);
        let a = Timeline::compile(&spec, 7);
        let b = Timeline::compile(&spec, 7);
        assert_eq!(a, b);
        let c = Timeline::compile(&spec, 8);
        assert_ne!(a.events(), c.events(), "different seed, different victims");
    }

    #[test]
    fn victims_are_model_independent() {
        // Paired comparison: the same seed yields the same victims no
        // matter which model the spec names.
        let base = small_spec(vec![EventSpec {
            at_ms: 10.0,
            action: EventAction::RandomPeFaults { count: 4 },
        }]);
        let mut ffw = base.clone();
        ffw.model = crate::spec::model_from_name("ffw").expect("known");
        assert_eq!(
            Timeline::compile(&base, 3).events(),
            Timeline::compile(&ffw, 3).events()
        );
    }

    #[test]
    fn inserting_an_event_never_perturbs_later_victim_sets() {
        // The ROADMAP's substream guarantee: an event's victims are a
        // function of (seed, instant, same-instant ordinal), not of the
        // event list around it.
        let lone = small_spec(vec![EventSpec {
            at_ms: 50.0,
            action: EventAction::RandomPeFaults { count: 4 },
        }]);
        let reference = Timeline::compile(&lone, 9);
        let victims_at_50 = |t: &Timeline| {
            t.events()
                .iter()
                .find(|e| {
                    e.at == lone.platform.ms_to_cycles(50.0)
                        && matches!(e.action, CompiledAction::Faults(_))
                })
                .expect("fault event at 50 ms")
                .action
                .clone()
        };
        // Insert an earlier random event, an earlier DVFS move, and a
        // same-instant non-random event — none may move the victims.
        for extra in [
            EventSpec {
                at_ms: 10.0,
                action: EventAction::RandomHangs { count: 2 },
            },
            EventSpec {
                at_ms: 10.0,
                action: EventAction::SetFrequencyAll { mhz: 60 },
            },
            EventSpec {
                at_ms: 50.0,
                action: EventAction::SetFrequencyAll { mhz: 60 },
            },
        ] {
            let mut events = vec![extra];
            events.extend(lone.events.clone());
            let perturbed = Timeline::compile(&small_spec(events), 9);
            assert_eq!(
                victims_at_50(&perturbed),
                victims_at_50(&reference),
                "victims at 50 ms moved"
            );
        }
    }

    #[test]
    fn same_instant_random_events_use_distinct_substreams() {
        let spec = small_spec(vec![
            EventSpec {
                at_ms: 20.0,
                action: EventAction::RandomPeFaults { count: 4 },
            },
            EventSpec {
                at_ms: 20.0,
                action: EventAction::RandomPeFaults { count: 4 },
            },
        ]);
        let t = Timeline::compile(&spec, 5);
        assert_ne!(
            t.events()[0].action,
            t.events()[1].action,
            "ordinal disambiguates same-instant draws"
        );
    }

    #[test]
    fn thermal_victim_cache_is_observationally_transparent() {
        // A key no other test uses, so the counter deltas are ours.
        let event = ThermalEventSpec {
            runaway_ms: 61.25,
            ..ThermalEventSpec::default()
        };
        let spec = small_spec(vec![EventSpec {
            at_ms: 10.0,
            action: EventAction::ThermalFaults(event.clone()),
        }]);
        let (hits_before, _) = thermal_cache_stats();
        let first = Timeline::compile(&spec, 1);
        // Different run seed, same physics: the pre-run is seed-free, so
        // the second compile must hit the cache and agree bit for bit.
        let second = Timeline::compile(&spec, 2);
        assert_eq!(first.events(), second.events());
        let (hits_after, _) = thermal_cache_stats();
        assert!(hits_after > hits_before, "replicate reused the pre-run");
        // Transparency: the cached set equals a fresh, uncached physics
        // computation.
        let scenario = ThermalScenario {
            platform: PlatformConfig {
                dims: spec.grid(),
                ..PlatformConfig::default()
            },
            overclock_mhz: event.overclock_mhz,
            generation_period: event.generation_period,
            runaway_ms: event.runaway_ms,
            overclock_rows: event.overclock_rows,
        };
        let thermal = ThermalConfig { dims: spec.grid() };
        let (_, report) =
            thermal_fault_scenario(&scenario, &thermal, spec.platform.ms_to_cycles(10.0));
        let fresh: Vec<Fault> = report
            .victim_nodes()
            .into_iter()
            .map(|node| Fault {
                node,
                kind: FaultKind::PeDead,
            })
            .collect();
        assert_eq!(first.events()[0].action, CompiledAction::Faults(fresh));
    }

    #[test]
    fn thermal_events_at_different_instants_share_one_pre_run() {
        // A grid no other test uses, so its cache entries are ours.
        let dims = GridDims::new(5, 7);
        let event = ThermalEventSpec {
            runaway_ms: 40.0,
            ..ThermalEventSpec::default()
        };
        let mut spec = small_spec(
            [10.0, 30.0]
                .map(|at_ms| EventSpec {
                    at_ms,
                    action: EventAction::ThermalFaults(event.clone()),
                })
                .to_vec(),
        );
        spec.platform.dims = dims;
        let (hits_before, misses_before) = thermal_cache_stats();
        let t = Timeline::compile(&spec, 1);
        let (hits_after, misses_after) = thermal_cache_stats();
        assert_eq!(t.thermal_solves(), 2, "both events are counted");
        assert_eq!(t.events()[0].action, t.events()[1].action);
        // The process-wide counters also move with concurrent tests, so
        // the one miss is read off this grid's cache entries.
        assert_eq!(cached_victim_sets(dims), 1, "one miss for two instants");
        assert!(misses_after > misses_before, "the first instant missed");
        assert!(hits_after > hits_before, "the second instant hit");
    }

    #[test]
    fn oversized_kill_requests_saturate() {
        let spec = small_spec(vec![EventSpec {
            at_ms: 10.0,
            action: EventAction::RandomPeFaults { count: 10_000 },
        }]);
        let t = Timeline::compile(&spec, 1);
        let mut victims: Vec<NodeId> = t
            .events()
            .iter()
            .flat_map(|e| match &e.action {
                CompiledAction::Faults(faults) => faults.iter().map(|f| f.node).collect(),
                _ => Vec::new(),
            })
            .collect();
        let requested = victims.len();
        victims.sort();
        victims.dedup();
        assert_eq!(
            (requested, victims.len()),
            (16, 16),
            "the whole 4x4 grid, once"
        );
    }

    #[test]
    fn poll_applies_at_the_right_instant() {
        let spec = small_spec(vec![EventSpec {
            at_ms: 5.0,
            action: EventAction::RandomPeFaults { count: 3 },
        }]);
        let mut timeline = Timeline::compile(&spec, 2);
        let graph = spec.graph();
        let mapping = sirtm_taskgraph::Mapping::heuristic(&graph, spec.grid());
        let mut p = Platform::new(graph, &mapping, &spec.model, spec.platform.clone());
        p.run_ms(4.0);
        assert_eq!(timeline.poll(&mut p), 0, "too early");
        assert_eq!(timeline.next_at(), Some(spec.platform.ms_to_cycles(5.0)));
        assert_eq!(p.alive_count(), 16);
        p.run_ms(2.0);
        assert_eq!(timeline.poll(&mut p), 1);
        assert_eq!(p.alive_count(), 13);
        assert!(timeline.exhausted());
        assert_eq!(timeline.next_at(), None);
    }

    #[test]
    fn frequency_rows_cover_exactly_the_band() {
        let spec = small_spec(vec![EventSpec {
            at_ms: 1.0,
            action: EventAction::SetFrequencyRows {
                first_row: 1,
                rows: 2,
                mhz: 40,
            },
        }]);
        let mut timeline = Timeline::compile(&spec, 1);
        let graph = spec.graph();
        let mapping = sirtm_taskgraph::Mapping::heuristic(&graph, spec.grid());
        let mut p = Platform::new(graph, &mapping, &spec.model, spec.platform.clone());
        p.run_ms(2.0);
        timeline.poll(&mut p);
        for i in 0..16u16 {
            let expect = if (4..12).contains(&i) { 40 } else { 100 };
            assert_eq!(p.pe(NodeId::new(i)).frequency_mhz(), expect, "node {i}");
        }
    }
}
