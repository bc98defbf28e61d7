//! Differential tests: the behavioural models and the PicoBlaze firmware
//! must make *identical* decisions on identical stimulus streams.
//!
//! This is the evidence that the bundled `.psm` programs faithfully encode
//! the models the paper describes, and that the behavioural fast path used
//! by the big experiments is a valid stand-in for the firmware.

use proptest::prelude::*;

use sirtm_core::firmware::FirmwareModel;
use sirtm_core::io::MockAimIo;
use sirtm_core::models::{regs, FfwConfig, Model, ModelKind, NiConfig};
use sirtm_taskgraph::TaskId;

/// One scan's worth of synthetic stimulus.
#[derive(Debug, Clone)]
struct Stimulus {
    routed: Vec<u32>,
    internal: Vec<u32>,
    oldest: Option<(u8, u64)>,
    recent: Option<(u8, u64)>,
    feed: u32,
}

fn stimulus(n_tasks: usize) -> impl Strategy<Value = Stimulus> {
    stimulus_with(n_tasks, 0u32..12)
}

/// Stimulus whose routed impulses come from `routed`.
fn stimulus_with(
    n_tasks: usize,
    routed: impl Strategy<Value = u32>,
) -> impl Strategy<Value = Stimulus> {
    (
        proptest::collection::vec(routed, n_tasks),
        proptest::collection::vec(0u32..3, n_tasks),
        proptest::option::of((0u8..n_tasks as u8, 0u64..5000)),
        proptest::option::of((0u8..n_tasks as u8, 0u64..5000)),
        prop_oneof![3 => Just(0u32), 2 => 1u32..80, 1 => Just(255u32)],
    )
        .prop_map(|(routed, internal, oldest, recent, feed)| Stimulus {
            routed,
            internal,
            oldest,
            recent,
            feed,
        })
}

/// One step of a trace: a scan, or a runtime write of `value` to AIM
/// configuration register `reg`, applied identically to every backend.
#[derive(Debug, Clone)]
enum Step {
    Scan(Stimulus),
    Configure(u8, u8),
}

fn scans(trace: Vec<Stimulus>) -> Vec<Step> {
    trace.into_iter().map(Step::Scan).collect()
}

/// Scans whose routed impulses reach past the bridge's and the
/// counters' 8-bit saturation, interleaved with runtime writes drawn
/// from `configure`.
fn trace_with(
    n_tasks: usize,
    len: std::ops::Range<usize>,
    configure: impl Strategy<Value = (u8, u8)> + 'static,
) -> impl Strategy<Value = Vec<Step>> {
    let routed = prop_oneof![8 => 0u32..12, 2 => 12u32..300, 1 => 300u32..100_000];
    proptest::collection::vec(
        prop_oneof![
            8 => stimulus_with(n_tasks, routed).prop_map(Step::Scan),
            1 => configure.prop_map(|(reg, value)| Step::Configure(reg, value)),
        ],
        len,
    )
}

/// A threshold, fixation window or timeout: often 0 (the register's
/// off or hair-trigger setting), mostly small enough to be crossed or
/// drained within a trace, sometimes anywhere in the byte.
fn small_or_any_byte() -> impl Strategy<Value = u8> {
    prop_oneof![1 => Just(0u8), 4 => 0u8..40, 1 => 0u8..=255]
}

/// NI trace over `n_tasks` tasks with runtime threshold, leak and
/// fixation writes.
fn ni_trace(n_tasks: usize) -> impl Strategy<Value = Vec<Step>> {
    let configure = prop_oneof![
        (Just(regs::NI_THRESHOLD), small_or_any_byte()),
        (Just(regs::NI_LEAK), 0u8..=4),
        (Just(regs::NI_FIXATION), small_or_any_byte()),
    ];
    trace_with(n_tasks, 1..160, configure)
}

/// FFW trace over `n_tasks` tasks with runtime timeout writes.
fn ffw_trace(n_tasks: usize) -> impl Strategy<Value = Vec<Step>> {
    trace_with(
        n_tasks,
        1..200,
        (Just(regs::FFW_TIMEOUT), small_or_any_byte()),
    )
}

/// Runs a model over a trace and returns the switch decisions
/// (step index, task) it made.
fn run_trace(model: &mut Model, trace: &[Step], n_tasks: usize) -> Vec<(usize, u8)> {
    run_trace_from(model, trace, n_tasks, None)
}

/// Like [`run_trace`] but with an initial local task.
fn run_trace_from(
    model: &mut Model,
    trace: &[Step],
    n_tasks: usize,
    local_init: Option<u8>,
) -> Vec<(usize, u8)> {
    let mut io = MockAimIo::new(n_tasks);
    io.local = local_init.map(TaskId::new);
    let mut decisions = Vec::new();
    for (i, step) in trace.iter().enumerate() {
        let s = match step {
            Step::Scan(s) => s,
            Step::Configure(reg, value) => {
                model.configure(*reg, *value);
                continue;
            }
        };
        io.routed = s.routed.clone();
        io.internal = s.internal.clone();
        io.oldest = s.oldest.map(|(t, a)| (TaskId::new(t), a));
        io.recent = s.recent.map(|(t, a)| (TaskId::new(t), a));
        io.feed = s.feed;
        let before = io.switches.len();
        model.scan(&mut io);
        for &t in &io.switches[before..] {
            decisions.push((i, t.raw()));
        }
        io.tick();
    }
    decisions
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// NI behavioural == NI firmware on arbitrary stimulus streams over
    /// 1 to 16 tasks, with saturating impulses, any starting threshold,
    /// a leak, and runtime threshold, leak and fixation writes.
    #[test]
    fn ni_backends_agree(
        case in (1usize..=16).prop_flat_map(|n| (Just(n), ni_trace(n))),
        threshold in small_or_any_byte(),
        leak in 0u8..=4,
        fixation in 0u8..12,
    ) {
        let (n_tasks, trace) = case;
        let cfg = NiConfig { threshold, leak, fixation_scans: fixation, ..NiConfig::default() };
        let mut behavioural = ModelKind::NetworkInteraction(cfg.clone()).build(n_tasks);
        let mut firmware = ModelKind::NetworkInteractionFirmware(cfg).build(n_tasks);
        let a = run_trace(&mut behavioural, &trace, n_tasks);
        let b = run_trace(&mut firmware, &trace, n_tasks);
        prop_assert_eq!(a, b);
    }

    /// FFW behavioural == FFW firmware on arbitrary stimulus streams over
    /// 1 to 16 tasks with runtime timeout writes, regardless of the
    /// starting task.
    #[test]
    fn ffw_backends_agree(
        case in (1usize..=16).prop_flat_map(|n| (Just(n), ffw_trace(n))),
        timeout in 1u8..30,
        local_init in proptest::option::of(0u8..16),
    ) {
        let (n_tasks, trace) = case;
        let cfg = FfwConfig { timeout_scans: timeout, ..FfwConfig::default() };
        let local_init = local_init.filter(|&t| usize::from(t) < n_tasks);
        let mut behavioural = ModelKind::ForagingForWork(cfg.clone()).build(n_tasks);
        let mut firmware = ModelKind::ForagingForWorkFirmware(cfg).build(n_tasks);
        let a = run_trace_from(&mut behavioural, &trace, n_tasks, local_init);
        let b = run_trace_from(&mut firmware, &trace, n_tasks, local_init);
        prop_assert_eq!(a, b);
    }

    /// The baseline never decides anything, whatever it observes.
    #[test]
    fn baseline_is_inert(trace in proptest::collection::vec(stimulus(3), 1..60)) {
        let mut model = ModelKind::NoIntelligence.build(3);
        prop_assert!(run_trace(&mut model, &scans(trace), 3).is_empty());
    }
}

#[test]
fn backends_agree_on_fuzz_derived_seeds() {
    // Three evaluation seeds from the committed fuzz frontier corpus
    // (`corpus/frontier.jsonl`, pins 45828b3283fa153e, 76e56634907329d2
    // and 415f77c1e7e30a92): the stimulus streams are regenerated from
    // the exact seeds whose scenarios broke the colony, and both model
    // families are run with hair-trigger configs (threshold 1, no
    // fixation; forage timeout 1) so a single off-by-one in either
    // backend changes a decision.
    use proptest::test_runner::TestRng;
    for seed in [
        0xd9b7_34a8_b193_6bee_u64,
        0x281d_cc93_20ef_e756,
        0x4a53_411b_c7fa_8d16,
    ] {
        let mut rng = TestRng::new(seed);
        let gen = stimulus(3);
        let trace = scans((0..160).map(|_| gen.pick(&mut rng)).collect());
        let ni = NiConfig {
            threshold: 1,
            fixation_scans: 0,
            ..NiConfig::default()
        };
        let mut behavioural = ModelKind::NetworkInteraction(ni.clone()).build(3);
        let mut firmware = ModelKind::NetworkInteractionFirmware(ni).build(3);
        assert_eq!(
            run_trace(&mut behavioural, &trace, 3),
            run_trace(&mut firmware, &trace, 3),
            "NI backends diverged on fuzz seed {seed:#x}"
        );
        let ffw = FfwConfig {
            timeout_scans: 1,
            ..FfwConfig::default()
        };
        let mut behavioural = ModelKind::ForagingForWork(ffw.clone()).build(3);
        let mut firmware = ModelKind::ForagingForWorkFirmware(ffw).build(3);
        assert_eq!(
            run_trace_from(&mut behavioural, &trace, 3, Some(0)),
            run_trace_from(&mut firmware, &trace, 3, Some(0)),
            "FFW backends diverged on fuzz seed {seed:#x}"
        );
    }
}

#[test]
fn ni_backends_agree_on_directed_burst() {
    // Deterministic spot-check: a burst that crosses the threshold twice.
    let cfg = NiConfig {
        threshold: 10,
        fixation_scans: 0,
        ..NiConfig::default()
    };
    let trace = scans(
        (0..8)
            .map(|i| Stimulus {
                routed: vec![0, 4, if i >= 4 { 9 } else { 0 }],
                internal: vec![0; 3],
                oldest: None,
                recent: None,
                feed: 0,
            })
            .collect(),
    );
    let mut behavioural = ModelKind::NetworkInteraction(cfg.clone()).build(3);
    let mut firmware = ModelKind::NetworkInteractionFirmware(cfg).build(3);
    let a = run_trace(&mut behavioural, &trace, 3);
    let b = run_trace(&mut firmware, &trace, 3);
    assert_eq!(a, b);
    assert!(!a.is_empty(), "the burst must trigger at least one switch");
}

#[test]
fn ffw_backends_agree_on_feed_then_starve() {
    let cfg = FfwConfig {
        timeout_scans: 5,
        ..FfwConfig::default()
    };
    let mut trace = Vec::new();
    for _ in 0..3 {
        trace.push(Stimulus {
            routed: vec![0; 3],
            internal: vec![1, 0, 0],
            oldest: Some((2, 100)),
            recent: None,
            feed: 255,
        });
    }
    for _ in 0..12 {
        trace.push(Stimulus {
            routed: vec![0; 3],
            internal: vec![0; 3],
            oldest: Some((2, 900)),
            recent: None,
            feed: 0,
        });
    }
    let trace = scans(trace);
    let mut behavioural = ModelKind::ForagingForWork(cfg.clone()).build(3);
    let mut firmware = ModelKind::ForagingForWorkFirmware(cfg).build(3);
    let a = run_trace_from(&mut behavioural, &trace, 3, Some(0));
    let b = run_trace_from(&mut firmware, &trace, 3, Some(0));
    assert_eq!(a, b);
    // Starvation with work still waiting re-forages every timeout+1 scans:
    // first expiry 5 unfed scans after the last feed, then periodically.
    assert_eq!(a, vec![(8, 2), (14, 2)]);
}

#[test]
fn firmware_counts_instructions() {
    let mut fw = FirmwareModel::network_interaction(3, &NiConfig::default());
    let mut io = MockAimIo::new(3);
    fw.scan(&mut io);
    let first = fw.instructions_retired();
    assert!(first > 10, "a scan takes real instructions, got {first}");
    fw.scan(&mut io);
    assert!(fw.instructions_retired() > first);
}
