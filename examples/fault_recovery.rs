//! Graceful degradation in a remote deployment.
//!
//! The paper's discussion motivates exactly this scenario: a high-
//! throughput device "deployed in remote application scenarios with
//! requirements of autonomous operation and long lifetime" where faults
//! accumulate over the device's life. This example ages a Centurion
//! platform through an escalating fault history — scattered node deaths,
//! a thermal hotspot, then a clock-region failure — and shows the
//! Foraging-for-Work colony re-knitting the task topology after each blow
//! with no ground control involved.
//!
//! Run with:
//! ```text
//! cargo run --release --example fault_recovery
//! ```

use sirtm_centurion::{Platform, PlatformConfig};
use sirtm_core::models::{FfwConfig, ModelKind};
use sirtm_faults::{generators, FaultEvent, FaultKind, FaultSchedule};
use sirtm_noc::NodeId;
use sirtm_rng::Xoshiro256StarStar;
use sirtm_taskgraph::{workloads, Mapping, TaskId};

fn main() {
    let cfg = PlatformConfig::default();
    let graph = workloads::fork_join(&workloads::ForkJoinParams::default());
    let mut rng = Xoshiro256StarStar::seed_from_u64(7);
    let mapping = Mapping::random_uniform(&graph, cfg.dims, &mut rng);
    let model = ModelKind::ForagingForWork(FfwConfig::default());
    let mut platform = Platform::new(graph, &mapping, &model, cfg.clone());

    // A lifetime of trouble, compressed into 1.2 simulated seconds.
    let mut schedule = FaultSchedule::from_events(vec![
        FaultEvent {
            at: cfg.ms_to_cycles(300.0),
            faults: generators::random_nodes(cfg.dims, 6, FaultKind::PeDead, &mut rng),
        },
        FaultEvent {
            at: cfg.ms_to_cycles(600.0),
            faults: generators::hotspot(
                cfg.dims,
                NodeId::new(cfg.dims.index(4, 8) as u16),
                2,
                FaultKind::PeDead,
            ),
        },
        FaultEvent {
            at: cfg.ms_to_cycles(900.0),
            faults: generators::clock_region(cfg.dims, 12, 4, FaultKind::TileDead),
        },
    ]);
    println!(
        "scheduled fault history: {} faults across 3 events\n",
        schedule.fault_count()
    );

    let mut last_t3 = 0u64;
    for window in 1..=24 {
        schedule.poll(&mut platform);
        platform.run_ms(50.0);
        let t3 = platform.completions(TaskId::new(2));
        let rate = (t3 - last_t3) as f64 / 50.0;
        last_t3 = t3;
        let marker = match platform.now_ms() as u64 {
            350 => "  <- 6 scattered node deaths",
            650 => "  <- thermal hotspot (13 nodes)",
            950 => "  <- clock region lost (4 rows, routers too)",
            _ => "",
        };
        println!(
            "t={:>5.0} ms  alive {:>3}  throughput {:>5.2} sinks/ms  distribution {:?}{}",
            platform.now_ms(),
            platform.alive_count(),
            rate,
            platform.task_counts(),
            marker,
        );
        let _ = window;
    }

    let alive = platform.alive_count();
    println!(
        "\nsurvivors: {alive} of 128 ({} dead); the colony re-balanced itself after every event",
        128 - alive
    );
    println!(
        "\nfinal task topology (A=task1, B=task2, C=task3, x=dead):\n{}",
        sirtm_centurion::render::task_map(&platform)
    );
}
