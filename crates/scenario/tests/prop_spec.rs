//! Property tests for the spec codec and the shard partitioner.
//!
//! Two laws the rest of the stack leans on without ever stating:
//!
//! * `parse ∘ render = id` over the whole typed [`ScenarioSpec`] space —
//!   every field of every event variant survives a JSON round-trip, so
//!   a spec can cross a process/host boundary (sharding, dispatch, the
//!   fuzz corpus) without drifting.
//! * [`ShardPlan`] partitions the run list: shard ranges are disjoint,
//!   cover `0..run_count` in order, and are balanced to within one run.
//!
//! Clamped specs are also checked end to end: every one either fails
//! [`ScenarioSpec::check_grid`] or runs a short horizon without panicking
//! and renders an artefact that passes [`check_artifact`]. So is the JSON
//! input path: a spec with one degenerate number is rejected by
//! [`ScenarioSpec::from_json`] or runs without panicking. And a fork
//! group ([`run_group`]) is invisible: each member's outcome equals the
//! one [`run_spec`] computes from scratch, bit for bit.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use proptest::sample::select;

use sirtm_core::models::{FfwConfig, ModelKind, NiConfig};
use sirtm_scenario::detect::DetectorConfig;
use sirtm_scenario::json::Json;
use sirtm_scenario::{
    check_artifact, clamp_spec, run_group, run_spec, run_sweep, EventAction, EventSpec,
    MappingSpec, ScenarioSpec, SeedScheme, ShardPlan, SweepOptions, SweepSpec, ThermalEventSpec,
    Timeline, WorkloadSpec,
};
use sirtm_taskgraph::workloads::ForkJoinParams;
use sirtm_taskgraph::GridDims;

fn model() -> impl Strategy<Value = ModelKind> {
    select(vec![
        ModelKind::NoIntelligence,
        ModelKind::NetworkInteraction(NiConfig::default()),
        ModelKind::ForagingForWork(FfwConfig::default()),
        ModelKind::NetworkInteractionFirmware(NiConfig::default()),
        ModelKind::ForagingForWorkFirmware(FfwConfig::default()),
    ])
}

fn workload() -> impl Strategy<Value = WorkloadSpec> {
    prop_oneof![
        (1u8..5, 200u32..4000).prop_map(|(branches, generation_period)| {
            WorkloadSpec::ForkJoin(ForkJoinParams {
                branches,
                generation_period,
                ..ForkJoinParams::default()
            })
        }),
        // Past 16 stages: the firmware models' task limit.
        (2u8..20, 200u32..4000, 20u32..400).prop_map(|(stages, generation_period, service)| {
            WorkloadSpec::Pipeline {
                stages,
                generation_period,
                service,
            }
        }),
        (200u32..4000).prop_map(|generation_period| WorkloadSpec::Diamond { generation_period }),
    ]
}

fn action() -> impl Strategy<Value = EventAction> {
    prop_oneof![
        (1usize..64).prop_map(|count| EventAction::RandomPeFaults { count }),
        (1usize..64).prop_map(|count| EventAction::RandomLinkFaults { count }),
        (1usize..64).prop_map(|count| EventAction::RandomHangs { count }),
        (0u16..16, 1u16..8)
            .prop_map(|(first_row, rows)| EventAction::ClockRegionFaults { first_row, rows }),
        (0u16..16, 0u16..16, 1u32..8).prop_map(|(x, y, radius)| EventAction::HotspotFaults {
            x,
            y,
            radius
        }),
        (
            120u16..=255,
            20u32..200,
            1.0f64..60.0,
            proptest::option::of((0u16..8, 1u16..4)),
        )
            .prop_map(
                |(overclock_mhz, generation_period, runaway_ms, overclock_rows)| {
                    EventAction::ThermalFaults(ThermalEventSpec {
                        overclock_mhz,
                        generation_period,
                        runaway_ms,
                        overclock_rows,
                    })
                }
            ),
        (10u16..300).prop_map(|mhz| EventAction::SetFrequencyAll { mhz }),
        (0u16..16, 1u16..8, 10u16..300).prop_map(|(first_row, rows, mhz)| {
            EventAction::SetFrequencyRows {
                first_row,
                rows,
                mhz,
            }
        }),
        (0u8..4, 100u32..4000).prop_map(|(task, period_cycles)| EventAction::SetGenerationPeriod {
            task,
            period_cycles,
        }),
    ]
}

/// A full typed scenario: every field the codec carries, drawn wide —
/// including names that stress string escaping and float-valued times.
fn spec() -> impl Strategy<Value = ScenarioSpec> {
    let shape = (
        select(vec![
            "prop-spec".to_string(),
            "with space".to_string(),
            "quote\"back\\slash".to_string(),
            "unicode-µ-Δt".to_string(),
        ]),
        select(vec![
            (1u16, 1u16),
            (2, 3),
            (4, 4),
            (5, 7),
            (8, 8),
            (8, 16),
            (16, 16),
        ]),
        model(),
        workload(),
        select(vec![
            MappingSpec::Auto,
            MappingSpec::Random,
            MappingSpec::Heuristic,
        ]),
        (1u32..8, 2u32..80),
        select(vec![50u32, 100, 200]),
    );
    shape.prop_flat_map(
        |(name, dims, model, workload, mapping, (half_windows, windows), cycles)| {
            let window_ms = half_windows as f64 * 0.5;
            let duration_ms = window_ms * windows as f64;
            let events = pvec(
                (0.0f64..duration_ms, action())
                    .prop_map(|(at_ms, action)| EventSpec { at_ms, action }),
                0..6,
            );
            let settle = proptest::option::of(window_ms..=duration_ms);
            let detector = (0.05f64..0.5, 0.0f64..2.0, 1usize..10, 5usize..30, 1usize..8);
            (
                Just((
                    name,
                    dims,
                    model,
                    workload,
                    mapping,
                    window_ms,
                    duration_ms,
                    cycles,
                )),
                events,
                settle,
                detector,
            )
                .prop_map(
                    |(
                        (name, dims, model, workload, mapping, window_ms, duration_ms, cycles),
                        events,
                        settle_region_ms,
                        (tolerance_frac, tolerance_abs, hold, steady, smooth),
                    )| {
                        let mut s = ScenarioSpec::new(name, model);
                        s.platform.dims = GridDims::new(dims.0, dims.1);
                        s.platform.cycles_per_ms = cycles;
                        s.workload = workload;
                        s.mapping = mapping;
                        s.duration_ms = duration_ms;
                        s.window_ms = window_ms;
                        s.settle_region_ms = settle_region_ms;
                        s.detector = DetectorConfig {
                            tolerance_frac,
                            tolerance_abs,
                            hold_windows: hold,
                            steady_windows: steady,
                            smooth_windows: smooth,
                        };
                        s.events = events;
                        s
                    },
                )
        },
    )
}

/// A generated spec clamped into the input domain `from_json` accepts
/// (events inside the run and the grid, generation-period moves on
/// source tasks).
fn valid_spec() -> impl Strategy<Value = ScenarioSpec> {
    spec().prop_map(|mut s| {
        clamp_spec(&mut s);
        s
    })
}

/// How one member of a fork group differs from the group's base spec.
#[derive(Debug, Clone)]
enum Variant {
    /// The base spec's own events.
    Base,
    /// No events: the shared prefix can run to the end.
    Cleared,
    /// The base events plus one at this fraction of the run.
    Later(f64, EventAction),
    /// The base events plus one at this fraction of the first window. At
    /// fraction 0 it fires before the first window, so the prefix is
    /// empty.
    FirstWindow(f64, EventAction),
}

impl Variant {
    /// The member spec this variant makes of `base`.
    fn apply(&self, base: &ScenarioSpec) -> ScenarioSpec {
        let mut spec = base.clone();
        match self {
            Variant::Base => {}
            Variant::Cleared => spec.events.clear(),
            Variant::Later(frac, action) => spec.events.push(EventSpec {
                at_ms: frac * spec.duration_ms,
                action: action.clone(),
            }),
            Variant::FirstWindow(frac, action) => spec.events.push(EventSpec {
                at_ms: frac * spec.window_ms,
                action: action.clone(),
            }),
        }
        spec
    }
}

fn variant() -> impl Strategy<Value = Variant> {
    prop_oneof![
        Just(Variant::Base),
        Just(Variant::Cleared),
        (0.0f64..1.0, action()).prop_map(|(frac, a)| Variant::Later(frac, a)),
        (prop_oneof![Just(0.0), 0.0f64..1.0], action())
            .prop_map(|(frac, a)| Variant::FirstWindow(frac, a)),
    ]
}

/// Every numeric leaf of a JSON tree, in document order.
fn numbers(v: &mut Json) -> Vec<&mut f64> {
    match v {
        Json::Num(n) => vec![n],
        Json::Arr(items) => items.iter_mut().flat_map(numbers).collect(),
        Json::Obj(pairs) => pairs.iter_mut().flat_map(|(_, v)| numbers(v)).collect(),
        _ => Vec::new(),
    }
}

/// Runs one replicate of `s` through the sweep orchestrator and
/// renders the artefact.
fn sweep_artifact(s: ScenarioSpec) -> String {
    let sweep = SweepSpec {
        name: s.name.clone(),
        base: s,
        axes: vec![],
        replicates: 1,
        seeds: SeedScheme::Derived { root: 42 },
    };
    run_sweep(&sweep, SweepOptions { threads: 1 })
        .to_json()
        .render_pretty()
}

proptest! {
    /// `parse ∘ render = id`: both the compact and the pretty rendering
    /// reconstruct the exact typed spec, floats and escapes included.
    #[test]
    fn spec_json_round_trips(s in valid_spec()) {
        s.validate();
        let pretty = ScenarioSpec::from_json_text(&s.to_json_pretty())
            .expect("pretty rendering parses");
        prop_assert_eq!(&pretty, &s);
        let compact = ScenarioSpec::from_json_text(&s.to_json().render())
            .expect("compact rendering parses");
        prop_assert_eq!(&compact, &s);
    }

    /// A second render after a round-trip is byte-identical — the codec
    /// has one canonical form, which the corpus format relies on.
    #[test]
    fn spec_rendering_is_canonical(s in valid_spec()) {
        let text = s.to_json_pretty();
        let back = ScenarioSpec::from_json_text(&text).expect("parses");
        prop_assert_eq!(back.to_json_pretty(), text);
    }

    /// Shard ranges are disjoint, in order, cover `0..run_count`
    /// exactly, and differ in size by at most one run.
    #[test]
    fn shard_plans_partition_the_run_list(
        shards in 1usize..12,
        run_count in 0usize..240,
    ) {
        let plans = ShardPlan::all(shards, run_count);
        prop_assert_eq!(plans.len(), shards);
        let mut covered = Vec::new();
        let mut sizes = Vec::new();
        for plan in &plans {
            let range = plan.range();
            sizes.push(range.len());
            covered.extend(range);
        }
        prop_assert_eq!(covered, (0..run_count).collect::<Vec<_>>());
        let lo = sizes.iter().copied().min().unwrap_or(0);
        let hi = sizes.iter().copied().max().unwrap_or(0);
        prop_assert!(hi - lo <= 1, "unbalanced shards: {:?}", sizes);
    }
}

proptest! {
    // Compiling a timeline with thermal events runs the physics
    // pre-run, so this property gets a smaller case budget.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any generated spec, once clamped, is geometrically valid: it
    /// validates and its timeline compiles against the grid.
    #[test]
    fn clamped_specs_validate_and_compile(s in spec()) {
        let mut s = s;
        clamp_spec(&mut s);
        s.validate();
        let _ = Timeline::compile(&s, 42);
    }

    /// Robustness: a clamped spec, cut to at most four windows, either
    /// fails the grid check or runs through the sweep orchestrator and
    /// renders a structurally sound artefact.
    #[test]
    fn clamped_specs_run_and_render_checkable_artifacts(s in spec()) {
        let mut s = s;
        clamp_spec(&mut s);
        s.duration_ms = s.duration_ms.min(4.0 * s.window_ms);
        // Re-clamp: the shorter run pulls events and the settle region in.
        clamp_spec(&mut s);
        s.validate();
        if s.check_grid().is_ok() {
            prop_assert_eq!(check_artifact(&sweep_artifact(s)), Ok(1));
        }
    }

    /// A fork group is invisible: 1-3 members that differ from a clamped
    /// spec only in their events (none, the spec's own, one more later,
    /// or one more in the first window) each get the outcome `run_spec`
    /// computes from scratch, trace and sim counters included. `Debug`
    /// renders every float exactly, so equal renderings are equal bits.
    #[test]
    fn fork_group_members_match_run_spec(
        s in spec(),
        variants in pvec(variant(), 1..4),
        seed in any::<u64>(),
    ) {
        let mut base = s;
        clamp_spec(&mut base);
        base.duration_ms = base.duration_ms.min(6.0 * base.window_ms);
        clamp_spec(&mut base);
        // Clamping a member can grow its grid for a thermal event's
        // pre-run; such a member is no longer in the base's group.
        let members: Vec<ScenarioSpec> = variants
            .iter()
            .map(|v| {
                let mut m = v.apply(&base);
                clamp_spec(&mut m);
                m
            })
            .filter(|m| m.eq_except_events(&base) && m.check_grid().is_ok())
            .collect();
        prop_assume!(!members.is_empty());
        let refs: Vec<&ScenarioSpec> = members.iter().collect();
        let mut forked = Vec::new();
        run_group(&refs, seed, |_| {}, |k, outcome| forked.push((k, outcome)));
        prop_assert_eq!(forked.len(), members.len());
        for (k, outcome) in forked {
            prop_assert_eq!(
                format!("{outcome:?}"),
                format!("{:?}", run_spec(&members[k], seed)),
                "member {} of {} diverged from its from-scratch run",
                k,
                members.len()
            );
        }
    }

    /// Robustness of the spec input path: a rendered spec with any one
    /// numeric field set to 0, -1 or 0.5 is either rejected by
    /// `from_json`, or, cut to at most four windows, fails the grid
    /// check or runs through the sweep orchestrator without panicking.
    #[test]
    fn degenerate_spec_numbers_are_rejected_or_run(
        s in valid_spec(),
        pick in any::<u32>(),
        value in select(vec![0.0, -1.0, 0.5]),
    ) {
        let mut json = s.to_json();
        {
            let mut fields = numbers(&mut json);
            let i = pick as usize % fields.len();
            *fields[i] = value;
        }
        if let Ok(mut s) = ScenarioSpec::from_json(&json) {
            let cut = s.duration_ms.min(4.0 * s.window_ms);
            s.events.retain(|e| e.at_ms <= cut);
            s.duration_ms = cut;
            if s.check_grid().is_ok() {
                sweep_artifact(s);
            }
        }
    }
}
