//! The repository's benchmark.
//!
//! ```text
//! perfbench --workload <verus_single|cubic_crowd|udp_crowd> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload for about `--seconds`, checks its outputs, prints
//! every metric by name with its unit, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics from untraced runs; `--trace 1` additionally
//! runs the workload with every controller wrapped in a timing probe
//! (and, for Verus, with a trace recorder attached) and reports the
//! per-layer metrics. See README.md for what each metric means.

mod host;
mod probe;
mod sim;
mod udp;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["verus_single", "cubic_crowd", "udp_crowd"];

/// End-to-end metrics: every workload reports each of them.
const END_TO_END: [(&str, &str); 2] = [("cpu_us_per_pkt", "us"), ("setup_s", "s")];

/// Per-layer metrics of the traced run. A workload that does not reach
/// a layer reports 0 for its metrics.
const PER_LAYER: [(&str, &str); 39] = [
    ("core.on_tick.calls", "count"),
    ("core.on_tick.self_ns", "ns"),
    ("core.on_ack.calls", "count"),
    ("core.on_ack.self_ns", "ns"),
    ("core.on_loss.calls", "count"),
    ("core.quota.self_ns", "ns"),
    ("core.share", "frac"),
    ("baselines.on_ack.calls", "count"),
    ("baselines.on_ack.self_ns", "ns"),
    ("baselines.share", "frac"),
    ("netsim.events", "count"),
    ("netsim.sched_pops", "count"),
    ("netsim.pops_per_event", "ratio"),
    ("netsim.self_ns_per_event", "ns"),
    ("netsim.share", "frac"),
    ("netsim.delivered", "count"),
    ("netsim.useful_ratio", "frac"),
    ("netsim.queue_drops", "count"),
    ("netsim.fast_losses", "count"),
    ("netsim.timeouts", "count"),
    ("netsim.sim_s_per_wall_s", "s/s"),
    ("cellular.trace_gen_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.records", "count"),
    ("transport.io.syscalls", "count"),
    ("transport.io.pkts_per_syscall", "ratio"),
    ("transport.io.syscalls_per_pkt", "ratio"),
    ("transport.io.send_failed", "count"),
    ("transport.timer.fires", "count"),
    ("transport.timer.epoch_fires", "count"),
    ("transport.timer.late_p50_ms", "ms"),
    ("transport.timer.late_p99_ms", "ms"),
    ("transport.retransmits", "count"),
    ("transport.timeouts", "count"),
    ("transport.useful_ratio", "frac"),
    ("transport.goodput_pps", "1/s"),
    ("bench.span_overhead_pct", "%"),
    ("bench.failed_frac", "frac"),
    ("bench.peak_rss_mb", "MB"),
];

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness violations, each described; any makes the run incorrect.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "udp_crowd" => udp::run(args.seed, args.seconds, args.trace),
        w => sim::run(w, args.seed, args.seconds, args.trace),
    };
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    out.metric("bench.failed_frac", failed_frac);

    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let backend = match verus_transport::IoMode::auto() {
        verus_transport::IoMode::Batched => "mmsg",
        verus_transport::IoMode::PerPacket => "per-packet",
    };
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "{{\"host\": {{\"nproc\": {nproc}, \"shards\": {}, \"io_backend\": \"{backend}\", \
         \"profile\": \"{profile}\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \
         \"trace\": {}}}}}",
        udp::SHARDS,
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for n in &out.notes {
        println!("# {n}");
    }
    for p in &out.problems {
        println!("# FAILED CHECK: {p}");
    }

    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut json = String::new();
    let mut finite = true;
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = if args.trace {
            out.metrics.get(name).copied().unwrap_or(0.0)
        } else {
            out.metrics.get(name).copied().unwrap_or(f64::NAN)
        };
        if !value.is_finite() {
            finite = false;
            println!("# FAILED CHECK: {name} is not a finite number ({value})");
        }
        let shown = if value.is_finite() { value } else { 0.0 };
        println!("{name} = {shown} {unit}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {shown}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "failed_frac = {failed_frac} ({} of {} failed)",
        out.failed, out.attempted
    );
    let correct = out.problems.is_empty() && out.failed == 0 && finite;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        out.attempted, out.failed
    );
    ExitCode::SUCCESS
}
