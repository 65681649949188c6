//! Runs every experiment binary — the one-shot reproduction of all the
//! paper's tables and figures. Results land in `results/`.
//!
//! Experiments fan out across cores (they are independent processes with
//! per-experiment output files), but their stdout/stderr is captured and
//! printed strictly in list order. Timings and the job count go to
//! stderr, so stdout is byte-identical across runs, `--jobs` settings and
//! `VERUS_RESULTS` directories (`scripts/ci.sh` diffs it against
//! `results/repro_all_output.txt`).
//!
//! Usage: `cargo run --release -p verus-bench --bin repro_all [--jobs N | --sequential]`
//! (`VERUS_REPRO_JOBS` sets the default job count.)

use std::process::Command;
use verus_bench::{default_jobs, run_ordered};

const EXPERIMENTS: &[&str] = &[
    "fig01_burst_arrivals",
    "fig02_burst_pdfs",
    "fig03_competing_traffic",
    "fig04_throughput_windows",
    "fig05_delay_profile",
    "fig07_profile_evolution",
    "fig08_macro_3g_lte",
    "fig09_r_tradeoff",
    "fig10_mobility_scatter",
    "table1_jain_fairness",
    "fig11_rapid_change",
    "fig12_flow_arrivals",
    "fig13_rtt_fairness",
    "fig14_vs_cubic",
    "fig15_static_profile",
    "sec3_predictability",
    "sec53_sensitivity",
    "sec7_short_flows",
];

struct Outcome {
    name: &'static str,
    stdout: Vec<u8>,
    stderr: Vec<u8>,
    success: bool,
    error: Option<String>,
    secs: f64,
}

fn parse_jobs() -> usize {
    let mut jobs = default_jobs();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--sequential" => jobs = 1,
            "--jobs" | "-j" => {
                let v = args.next().unwrap_or_default();
                jobs = v.parse().unwrap_or_else(|_| {
                    eprintln!("--jobs expects a positive integer, got {v:?}");
                    std::process::exit(2);
                });
                if jobs == 0 {
                    eprintln!("--jobs must be at least 1");
                    std::process::exit(2);
                }
            }
            other => {
                eprintln!("unknown argument {other:?} (try --jobs N or --sequential)");
                std::process::exit(2);
            }
        }
    }
    jobs
}

fn main() {
    let jobs = parse_jobs();
    let exe_dir = std::env::current_exe()
        .expect("current exe path")
        .parent()
        .expect("exe dir")
        .to_path_buf();
    let started = std::time::Instant::now();
    println!("Running {} experiments…", EXPERIMENTS.len());
    eprintln!("({} parallel job(s))", jobs.min(EXPERIMENTS.len()));

    let outcomes = run_ordered(
        EXPERIMENTS,
        jobs,
        |_, name| {
            let t0 = std::time::Instant::now();
            let out = Command::new(exe_dir.join(name)).output();
            let secs = t0.elapsed().as_secs_f64();
            match out {
                Ok(o) => Outcome {
                    name,
                    success: o.status.success(),
                    error: (!o.status.success()).then(|| format!("exited with {}", o.status)),
                    stdout: o.stdout,
                    stderr: o.stderr,
                    secs,
                },
                Err(e) => Outcome {
                    name,
                    success: false,
                    error: Some(format!("could not run: {e} (build with --release first)")),
                    stdout: Vec::new(),
                    stderr: Vec::new(),
                    secs,
                },
            }
        },
        |i, o| {
            use std::io::Write;
            println!();
            println!(
                "━━━ [{}/{}] {} ━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━",
                i + 1,
                EXPERIMENTS.len(),
                o.name
            );
            std::io::stdout().write_all(&o.stdout).expect("stdout");
            std::io::stderr().write_all(&o.stderr).expect("stderr");
            if o.success {
                eprintln!("({} finished in {:.1} s)", o.name, o.secs);
            } else if let Some(e) = &o.error {
                eprintln!("{}: {e}", o.name);
            }
        },
    );

    let failures: Vec<&str> = outcomes
        .iter()
        .filter(|o| !o.success)
        .map(|o| o.name)
        .collect();
    println!();
    if failures.is_empty() {
        println!("All {} experiments completed.", EXPERIMENTS.len());
        eprintln!("({:.1} s wall clock)", started.elapsed().as_secs_f64());
    } else {
        eprintln!("FAILED: {failures:?}");
        std::process::exit(1);
    }
}
