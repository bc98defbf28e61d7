//! Reproduction driver: regenerates the paper's tables and figure.
//!
//! ```text
//! repro table1 [--runs N]          Table I  (settling, no faults)
//! repro table2 [--runs N]          Table II (recovery vs fault count)
//! repro fig4   [--seed S] [--out DIR]  Fig. 4 time series (ASCII + CSV)
//! repro graph                      Fig. 3 workload summary
//! repro thermal [--seed S]         thermal extension (open/closed loop, thermal fault)
//! repro all    [--runs N]          everything
//! ```

use std::path::PathBuf;

use sirtm_core::models::ModelKind;
use sirtm_experiments::{fig4, outln, table1, table2, thermal_ext};
use sirtm_scenario::ScenarioSpec;
use sirtm_taskgraph::{workloads, FlowAnalysis};

struct Args {
    command: String,
    runs: usize,
    seed: u64,
    out: PathBuf,
}

fn parse_args() -> Args {
    let mut args = Args {
        command: "all".to_string(),
        runs: 100,
        seed: 42,
        out: PathBuf::from("target/sirtm"),
    };
    let mut it = std::env::args().skip(1);
    if let Some(cmd) = it.next() {
        args.command = cmd;
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--runs" => {
                args.runs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| die("--runs needs a run count >= 1"));
            }
            "--seed" => {
                args.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs a number"));
            }
            "--out" => {
                args.out = it
                    .next()
                    .map(PathBuf::from)
                    .unwrap_or_else(|| die("--out needs a path"));
            }
            other => die(&format!("unknown flag `{other}`")),
        }
    }
    args
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    eprintln!(
        "usage: repro [table1|table2|fig4|graph|thermal|all] [--runs N] [--seed S] [--out DIR]"
    );
    std::process::exit(2);
}

fn print_graph() {
    let params = workloads::ForkJoinParams::default();
    let graph = workloads::fork_join(&params);
    let flow = FlowAnalysis::analyze(&graph);
    outln!("Fig 3 — fork-join task graph (ratio 1:3:1)");
    for t in graph.task_ids() {
        let spec = graph.spec(t);
        let d = flow.demand(t);
        outln!(
            "  {t} `{}`: service {} cycles, join arity {}, {} — \
             completion rate {:.4}/cycle, demand {:.2} nodes",
            spec.name,
            spec.service_cycles,
            spec.join_arity,
            if spec.is_source() {
                format!("source every {} cycles", params.generation_period)
            } else {
                "worker".to_string()
            },
            d.completion_rate,
            d.demand_nodes,
        );
    }
    outln!("  instance ratio: {:?}", flow.instance_ratio());
    for e in graph.edges() {
        outln!(
            "  edge {} -> {} x{} ({:?}, {} payload flits)",
            e.from,
            e.to,
            e.count,
            e.kind,
            e.payload_flits
        );
    }
}

fn main() {
    let args = parse_args();
    // The paper's protocol: the 8x16 Centurion running the Fig. 3
    // fork-join for 1000 ms in 2 ms windows, settling measured strictly
    // before the 500 ms fault instant. Fig. 4 plots 10 ms windows.
    let mut base = ScenarioSpec::new("paper", ModelKind::NoIntelligence);
    base.settle_region_ms = Some(500.0);
    let fig4_base = ScenarioSpec {
        window_ms: 10.0,
        ..base.clone()
    };
    let started = std::time::Instant::now();
    match args.command.as_str() {
        "graph" => print_graph(),
        "table1" => {
            let t = table1::run(&base, args.runs);
            outln!("{}", table1::render(&t));
            if let Err(e) = table1::write_csv(&t, &args.out.join("table1.csv")) {
                eprintln!("repro: CSV write failed: {e}");
            }
        }
        "table2" => {
            let t = table2::run(&base, args.runs);
            outln!("{}", table2::render(&t));
            if let Err(e) = table2::write_csv(&t, &args.out.join("table2.csv")) {
                eprintln!("repro: CSV write failed: {e}");
            }
        }
        "fig4" => {
            let f = fig4::run(&fig4_base, args.seed);
            outln!("{}", fig4::render(&f, 80));
            match fig4::write_csvs(&f, &args.out) {
                Ok(files) => {
                    outln!("\nCSV series written:");
                    for f in files {
                        outln!("  {}", f.display());
                    }
                }
                Err(e) => eprintln!("repro: CSV write failed: {e}"),
            }
        }
        "thermal" => {
            let r = thermal_ext::run(args.seed);
            outln!("{}", thermal_ext::render(&r));
        }
        "all" => {
            print_graph();
            let t1 = table1::run(&base, args.runs);
            outln!("\n{}", table1::render(&t1));
            let _ = table1::write_csv(&t1, &args.out.join("table1.csv"));
            let t2 = table2::run(&base, args.runs);
            outln!("\n{}", table2::render(&t2));
            let _ = table2::write_csv(&t2, &args.out.join("table2.csv"));
            let f = fig4::run(&fig4_base, args.seed);
            outln!("{}", fig4::render(&f, 80));
            if let Ok(files) = fig4::write_csvs(&f, &args.out) {
                outln!("\nCSV series written under {}", args.out.display());
                let _ = files;
            }
        }
        other => die(&format!("unknown command `{other}`")),
    }
    eprintln!("\n[repro finished in {:.1?}]", started.elapsed());
}
