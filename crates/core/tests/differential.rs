//! Differential tests: the behavioural models and the PicoBlaze firmware
//! must make *identical* decisions on identical stimulus streams.
//!
//! This is the evidence that the bundled `.psm` programs faithfully encode
//! the models the paper describes, and that the behavioural fast path used
//! by the big experiments is a valid stand-in for the firmware.

use proptest::prelude::*;

use sirtm_core::io::MockAimIo;
use sirtm_core::models::{FfwConfig, ModelKind, NiConfig, RtmModel};
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
    (
        proptest::collection::vec(0u32..12, n_tasks),
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

/// Runs a model over a stimulus trace and returns the switch decisions
/// (scan index, task) it made.
fn run_trace(model: &mut dyn RtmModel, trace: &[Stimulus], n_tasks: usize) -> Vec<(usize, u8)> {
    run_trace_from(model, trace, n_tasks, None)
}

/// Like [`run_trace`] but with an initial local task.
fn run_trace_from(
    model: &mut dyn RtmModel,
    trace: &[Stimulus],
    n_tasks: usize,
    local_init: Option<u8>,
) -> Vec<(usize, u8)> {
    let mut io = MockAimIo::new(n_tasks);
    io.local = local_init.map(TaskId::new);
    let mut decisions = Vec::new();
    for (i, s) in trace.iter().enumerate() {
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

    /// NI behavioural == NI firmware on arbitrary stimulus streams.
    #[test]
    fn ni_backends_agree(
        trace in proptest::collection::vec(stimulus(3), 1..120),
        threshold in 1u8..40,
        fixation in 0u8..12,
    ) {
        let cfg = NiConfig { threshold, fixation_scans: fixation, ..NiConfig::default() };
        let mut behavioural = ModelKind::NetworkInteraction(cfg.clone()).build(3);
        let mut firmware = ModelKind::NetworkInteractionFirmware(cfg).build(3);
        let a = run_trace(behavioural.as_mut(), &trace, 3);
        let b = run_trace(firmware.as_mut(), &trace, 3);
        prop_assert_eq!(a, b);
    }

    /// FFW behavioural == FFW firmware on arbitrary stimulus streams,
    /// regardless of the starting task.
    #[test]
    fn ffw_backends_agree(
        trace in proptest::collection::vec(stimulus(3), 1..200),
        timeout in 1u8..30,
        local_init in proptest::option::of(0u8..3),
    ) {
        let cfg = FfwConfig { timeout_scans: timeout, ..FfwConfig::default() };
        let mut behavioural = ModelKind::ForagingForWork(cfg.clone()).build(3);
        let mut firmware = ModelKind::ForagingForWorkFirmware(cfg).build(3);
        let a = run_trace_from(behavioural.as_mut(), &trace, 3, local_init);
        let b = run_trace_from(firmware.as_mut(), &trace, 3, local_init);
        prop_assert_eq!(a, b);
    }

    /// The baseline never decides anything, whatever it observes.
    #[test]
    fn baseline_is_inert(trace in proptest::collection::vec(stimulus(3), 1..60)) {
        let mut model = ModelKind::NoIntelligence.build(3);
        prop_assert!(run_trace(model.as_mut(), &trace, 3).is_empty());
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
        let trace: Vec<Stimulus> = (0..160).map(|_| gen.pick(&mut rng)).collect();
        let ni = NiConfig {
            threshold: 1,
            fixation_scans: 0,
            ..NiConfig::default()
        };
        let mut behavioural = ModelKind::NetworkInteraction(ni.clone()).build(3);
        let mut firmware = ModelKind::NetworkInteractionFirmware(ni).build(3);
        assert_eq!(
            run_trace(behavioural.as_mut(), &trace, 3),
            run_trace(firmware.as_mut(), &trace, 3),
            "NI backends diverged on fuzz seed {seed:#x}"
        );
        let ffw = FfwConfig {
            timeout_scans: 1,
            ..FfwConfig::default()
        };
        let mut behavioural = ModelKind::ForagingForWork(ffw.clone()).build(3);
        let mut firmware = ModelKind::ForagingForWorkFirmware(ffw).build(3);
        assert_eq!(
            run_trace_from(behavioural.as_mut(), &trace, 3, Some(0)),
            run_trace_from(firmware.as_mut(), &trace, 3, Some(0)),
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
    let trace: Vec<Stimulus> = (0..8)
        .map(|i| Stimulus {
            routed: vec![0, 4, if i >= 4 { 9 } else { 0 }],
            internal: vec![0; 3],
            oldest: None,
            recent: None,
            feed: 0,
        })
        .collect();
    let mut behavioural = ModelKind::NetworkInteraction(cfg.clone()).build(3);
    let mut firmware = ModelKind::NetworkInteractionFirmware(cfg).build(3);
    let a = run_trace(behavioural.as_mut(), &trace, 3);
    let b = run_trace(firmware.as_mut(), &trace, 3);
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
    let mut behavioural = ModelKind::ForagingForWork(cfg.clone()).build(3);
    let mut firmware = ModelKind::ForagingForWorkFirmware(cfg).build(3);
    let a = run_trace_from(behavioural.as_mut(), &trace, 3, Some(0));
    let b = run_trace_from(firmware.as_mut(), &trace, 3, Some(0));
    assert_eq!(a, b);
    // Starvation with work still waiting re-forages every timeout+1 scans:
    // first expiry 5 unfed scans after the last feed, then periodically.
    assert_eq!(a, vec![(8, 2), (14, 2)]);
}

#[test]
fn firmware_counts_instructions() {
    use sirtm_core::firmware::FirmwareModel;
    let mut fw = FirmwareModel::network_interaction(3, &NiConfig::default());
    let mut io = MockAimIo::new(3);
    fw.scan(&mut io);
    let first = fw.instructions_retired();
    assert!(first > 10, "a scan takes real instructions, got {first}");
    fw.scan(&mut io);
    assert!(fw.instructions_retired() > first);
}
