//! `verus-trace` — generate, inspect and convert cellular channel traces.
//!
//! ```bash
//! verus-trace gen <scenario> <out-file> [--operator O] [--secs N] [--seed N]
//! verus-trace info <file>
//! verus-trace convert <in-file> <out-file>     # re-quantize to MTU lines
//! ```
//!
//! Scenario names: campus, pedestrian, city, driving, highway, mall,
//! waterfront. Operators: etisalat3g (default), du3g, etisalatlte, dulte.
//! Trace files are mahimahi text (one ms-timestamp line per 1500-byte
//! opportunity).

use verus_cellular::burst::{burst_stats, trace_bursts};
use verus_cellular::{OperatorModel, Scenario, Trace};
use verus_nettypes::SimDuration;

fn usage() -> ! {
    eprintln!(
        "usage:\n  verus-trace gen <scenario> <out> [--operator O] [--secs N] [--seed N]\n  \
         verus-trace info <file>\n  verus-trace convert <in> <out>"
    );
    std::process::exit(2);
}

fn scenario_by_name(name: &str) -> Scenario {
    match name {
        "campus" => Scenario::CampusStationary,
        "pedestrian" => Scenario::CampusPedestrian,
        "city" => Scenario::CityStationary,
        "driving" => Scenario::CityDriving,
        "highway" => Scenario::HighwayDriving,
        "mall" => Scenario::ShoppingMall,
        "waterfront" => Scenario::CityWaterfront,
        other => {
            eprintln!("unknown scenario {other:?}");
            usage();
        }
    }
}

fn operator_by_name(name: &str) -> OperatorModel {
    match name {
        "etisalat3g" => OperatorModel::Etisalat3G,
        "du3g" => OperatorModel::Du3G,
        "etisalatlte" => OperatorModel::EtisalatLte,
        "dulte" => OperatorModel::DuLte,
        other => {
            eprintln!("unknown operator {other:?}");
            usage();
        }
    }
}

fn load(path: &str) -> Trace {
    let result = std::fs::File::open(path)
        .map_err(Into::into)
        .and_then(|f| Trace::load_mahimahi(path.to_string(), f));
    result.unwrap_or_else(|e| {
        eprintln!("could not load {path}: {e}");
        std::process::exit(1);
    })
}

fn save(trace: &Trace, path: &str) {
    let result = std::fs::File::create(path)
        .map_err(Into::into)
        .and_then(|f| trace.save_mahimahi(f));
    if let Err(e) = result {
        eprintln!("could not write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {path}");
}

fn info(trace: &Trace) {
    println!("name        : {}", trace.name);
    println!("duration    : {:.1} s", trace.duration().as_secs_f64());
    println!("opportunities: {}", trace.len());
    println!("total bytes : {:.2} MB", trace.total_bytes() as f64 / 1e6);
    println!("mean rate   : {:.3} Mbit/s", trace.mean_rate_bps() / 1e6);
    let rates: Vec<f64> = trace
        .windowed_rate_bps(SimDuration::from_secs(1))
        .into_iter()
        .map(|(_, bps)| bps / 1e6)
        .collect();
    if let Some(summary) = verus_stats::Summary::from_samples(&rates) {
        println!(
            "per-second  : min {:.2} / median {:.2} / p95 {:.2} / max {:.2} Mbit/s",
            summary.min, summary.median, summary.p95, summary.max
        );
    }
    let tti_gap = SimDuration::from_millis_f64(2.5);
    if let Some(stats) = burst_stats(&trace_bursts(trace, tti_gap)) {
        println!(
            "bursts      : {} (size mean {:.0} B, gap mean {:.1} ms)",
            stats.count, stats.size_bytes.mean, stats.inter_arrival_ms.mean
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("gen") => {
            if args.len() < 3 {
                usage();
            }
            let scenario = scenario_by_name(&args[1]);
            let out = &args[2];
            let mut operator = OperatorModel::Etisalat3G;
            let mut secs = 300u64;
            let mut seed = 0u64;
            let mut i = 3;
            while i + 1 < args.len() + 1 {
                match args.get(i).map(String::as_str) {
                    Some("--operator") => {
                        operator = operator_by_name(args.get(i + 1).unwrap_or_else(|| usage()));
                        i += 2;
                    }
                    Some("--secs") => {
                        secs = args
                            .get(i + 1)
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| usage());
                        i += 2;
                    }
                    Some("--seed") => {
                        seed = args
                            .get(i + 1)
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| usage());
                        i += 2;
                    }
                    Some(_) => usage(),
                    None => break,
                }
            }
            let trace = scenario
                .generate_trace(operator, SimDuration::from_secs(secs), seed)
                .unwrap_or_else(|e| {
                    eprintln!("generation failed: {e}");
                    std::process::exit(1);
                });
            info(&trace);
            save(&trace, out);
        }
        Some("info") => {
            if args.len() != 2 {
                usage();
            }
            info(&load(&args[1]));
        }
        Some("convert") => {
            if args.len() != 3 {
                usage();
            }
            let trace = load(&args[1]);
            save(&trace, &args[2]);
        }
        _ => usage(),
    }
}
