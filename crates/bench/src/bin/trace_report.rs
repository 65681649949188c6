//! Replays a `verus-trace` JSONL file into paper-style artifacts.
//!
//! ```text
//! trace_report capture [out.jsonl]   # record a short seeded netsim run
//! trace_report report  <trace.jsonl> # trace → timelines + tables
//! ```
//!
//! `report` writes, next to the other experiment artifacts
//! (`results/` or `$VERUS_RESULTS`):
//!
//! * `<stem>_timeline.csv` — per-epoch window / `Dest` / delay timeline
//!   (the axes of Figures 2, 7 and 11);
//! * `<stem>_profile_evolution.csv` — the sampled delay profile at every
//!   refit generation (Figures 5 / 7b);
//! * `<stem>_summary.json` — record counts, drop counters, substrate
//!   ledger counters, and per-interval throughput/delay summaries built
//!   with `verus-stats` (`ThroughputSeries` + `StreamingStats`).
//!
//! The capture scenario is fixed (CampusStationary / Etisalat3G, 10 s,
//! seed 42) so the committed sample trace is reproducible.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use verus_bench::{print_table, results_dir, CellExperiment, ProtocolSpec};
use verus_cellular::{OperatorModel, Scenario};
use verus_nettypes::SimDuration;
use verus_stats::{StreamingStats, ThroughputSeries, WindowedSeries};
use verus_trace::{
    epochs_csv, parse_jsonl, profiles_csv, to_jsonl, PacketKind, Recorder, TraceFile,
};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("capture") => capture(args.get(2).map(String::as_str)),
        Some("report") => match args.get(2) {
            Some(path) => report(path),
            None => usage_and_exit(),
        },
        _ => usage_and_exit(),
    }
}

fn usage_and_exit() -> ! {
    eprintln!("usage: trace_report capture [out.jsonl]");
    eprintln!("       trace_report report  <trace.jsonl>");
    std::process::exit(2);
}

/// Records the fixed capture scenario and writes the JSONL trace.
fn capture(out: Option<&str>) {
    let trace = Scenario::CampusStationary
        .generate_trace(OperatorModel::Etisalat3G, SimDuration::from_secs(10), 1)
        .expect("valid channel trace");
    let exp = CellExperiment::new(trace, 1, SimDuration::from_secs(10), 42);
    let (reports, recorder) = exp.run_traced(ProtocolSpec::verus(2.0), Recorder::new());
    let text = to_jsonl(&recorder, "netsim", "sim");
    let path = out.map_or_else(|| results_dir().join("sample_trace.jsonl"), Into::into);
    std::fs::write(&path, text).expect("write trace");
    let dropped = recorder.dropped();
    println!(
        "→ wrote {} ({} epochs, {} packet events, {} profiles, {} dropped)",
        path.display(),
        recorder.epochs().len(),
        recorder.packets().len(),
        recorder.profiles().len(),
        dropped.total(),
    );
    if let Some(r) = reports.first() {
        println!(
            "  flow 0: {:.3} Mbit/s, mean delay {:.1} ms",
            r.mean_throughput_mbps(),
            r.mean_delay_ms()
        );
    }
}

/// Hand-rolled JSON for the summary artifact (workspace `serde_json` is
/// an offline stub; same convention as `bench_chaos`).
fn summary_json(tf: &TraceFile, intervals: &[Interval]) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"schema\": \"verus-trace-report-v0\",");
    let _ = writeln!(s, "  \"substrate\": \"{}\",", tf.substrate);
    let _ = writeln!(s, "  \"clock\": \"{}\",", tf.clock);
    let _ = writeln!(s, "  \"epoch_records\": {},", tf.epochs.len());
    let _ = writeln!(s, "  \"packet_records\": {},", tf.packets.len());
    let _ = writeln!(s, "  \"profile_snapshots\": {},", tf.profiles.len());
    let _ = writeln!(s, "  \"dropped_epochs\": {},", tf.dropped.epochs);
    let _ = writeln!(s, "  \"dropped_packets\": {},", tf.dropped.packets);
    let _ = writeln!(s, "  \"dropped_profiles\": {},", tf.dropped.profiles);
    let phases = phase_spans(tf);
    let _ = writeln!(s, "  \"phase_sequence\": [{}],",
        phases
            .iter()
            .map(|(p, n)| format!("{{\"phase\": \"{p}\", \"epochs\": {n}}}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(s, "  \"counters\": {{");
    let n = tf.counters.len();
    for (i, (k, v)) in tf.counters.iter().enumerate() {
        let _ = writeln!(s, "    \"{k}\": {v}{}", if i + 1 < n { "," } else { "" });
    }
    let _ = writeln!(s, "  }},");
    let _ = writeln!(s, "  \"intervals\": [");
    let m = intervals.len();
    for (i, iv) in intervals.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"t_s\": {:.1}, \"throughput_mbps\": {:.4}, \"mean_delay_ms\": {:.3}, \
             \"p95_delay_ms\": {:.3}, \"mean_window\": {:.3}, \"losses\": {}}}{}",
            iv.t_s,
            iv.throughput_mbps,
            iv.mean_delay_ms,
            iv.p95_delay_ms,
            iv.mean_window,
            iv.losses,
            if i + 1 < m { "," } else { "" }
        );
    }
    let _ = writeln!(s, "  ]");
    s.push_str("}\n");
    s
}

/// Collapses the per-epoch phase column into (phase, run-length) spans.
fn phase_spans(tf: &TraceFile) -> Vec<(&'static str, u64)> {
    let mut spans: Vec<(&'static str, u64)> = Vec::new();
    for e in &tf.epochs {
        let name = e.phase.as_str();
        match spans.last_mut() {
            Some((p, n)) if *p == name => *n += 1,
            _ => spans.push((name, 1)),
        }
    }
    spans
}

/// One per-interval summary row (1 s windows, as in the paper's plots).
struct Interval {
    t_s: f64,
    throughput_mbps: f64,
    mean_delay_ms: f64,
    p95_delay_ms: f64,
    mean_window: f64,
    losses: u64,
}

/// Builds 1-second interval summaries from the packet + epoch streams.
fn intervals(tf: &TraceFile) -> Vec<Interval> {
    let mut acked = ThroughputSeries::new(1.0);
    let mut windows = WindowedSeries::new(1.0);
    let mut delay_by_sec: BTreeMap<u64, StreamingStats> = BTreeMap::new();
    let mut losses_by_sec: BTreeMap<u64, u64> = BTreeMap::new();
    for p in &tf.packets {
        let t_s = p.t_ns as f64 / 1e9;
        match p.kind {
            PacketKind::Ack => {
                acked.record(t_s, p.bytes);
                if let Some(rtt) = p.rtt_ms {
                    delay_by_sec
                        .entry(t_s as u64)
                        .or_insert_with(StreamingStats::for_delays_ms)
                        .record(rtt);
                }
            }
            PacketKind::Loss | PacketKind::Timeout => {
                *losses_by_sec.entry(t_s as u64).or_insert(0) += 1;
            }
            PacketKind::Send => {}
        }
    }
    for e in &tf.epochs {
        windows.record(e.t_ns as f64 / 1e9, e.window);
    }
    let window_means: BTreeMap<u64, f64> = windows
        .series_mean()
        .into_iter()
        .map(|(t, w)| (t as u64, w))
        .collect();
    acked
        .series_mbps()
        .into_iter()
        .map(|(t_s, mbps)| {
            let sec = t_s as u64;
            let delays = delay_by_sec.get(&sec);
            Interval {
                t_s,
                throughput_mbps: mbps,
                mean_delay_ms: delays.map_or(f64::NAN, StreamingStats::mean),
                p95_delay_ms: delays
                    .and_then(|d| d.quantile(0.95))
                    .unwrap_or(f64::NAN),
                mean_window: window_means.get(&sec).copied().unwrap_or(f64::NAN),
                losses: losses_by_sec.get(&sec).copied().unwrap_or(0),
            }
        })
        .collect()
}

fn report(path: &str) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let tf = parse_jsonl(&text).unwrap_or_else(|e| panic!("cannot parse {path}: {e}"));
    let stem = Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("trace");
    let dir = results_dir();

    let timeline = dir.join(format!("{stem}_timeline.csv"));
    std::fs::write(&timeline, epochs_csv(&tf.epochs)).expect("write timeline");
    println!("→ wrote {} ({} epochs)", timeline.display(), tf.epochs.len());

    let evolution = dir.join(format!("{stem}_profile_evolution.csv"));
    std::fs::write(&evolution, profiles_csv(&tf.profiles)).expect("write profile evolution");
    println!(
        "→ wrote {} ({} refit generations)",
        evolution.display(),
        tf.profiles.len()
    );

    let ivs = intervals(&tf);
    let summary = dir.join(format!("{stem}_summary.json"));
    std::fs::write(&summary, summary_json(&tf, &ivs)).expect("write summary");
    println!("→ wrote {}", summary.display());

    println!("\ntrace: {} ({} clock)", tf.substrate, tf.clock);
    println!(
        "records: {} epochs, {} packet events, {} profiles ({} dropped)",
        tf.epochs.len(),
        tf.packets.len(),
        tf.profiles.len(),
        tf.dropped.epochs + tf.dropped.packets + tf.dropped.profiles,
    );
    let spans = phase_spans(&tf);
    println!(
        "phases: {}",
        spans
            .iter()
            .map(|(p, n)| format!("{p}×{n}"))
            .collect::<Vec<_>>()
            .join(" → ")
    );

    println!("\nper-second summary:");
    let rows: Vec<Vec<String>> = ivs
        .iter()
        .map(|iv| {
            vec![
                format!("{:.0}", iv.t_s.floor()),
                format!("{:.3}", iv.throughput_mbps),
                format!("{:.1}", iv.mean_delay_ms),
                format!("{:.1}", iv.p95_delay_ms),
                format!("{:.1}", iv.mean_window),
                format!("{}", iv.losses),
            ]
        })
        .collect();
    print_table(
        &["t (s)", "tput (Mbit/s)", "mean delay (ms)", "p95 (ms)", "mean W", "losses"],
        &rows,
    );

    println!("\nprofile evolution (delay at fixed windows, ms):");
    let probe_windows = [5.0, 20.0, 50.0, 100.0];
    let prow: Vec<Vec<String>> = tf
        .profiles
        .iter()
        .map(|snap| {
            let mut row = vec![
                format!("{}", snap.generation),
                format!("{:.2}", snap.t_ns as f64 / 1e9),
            ];
            for w in probe_windows {
                row.push(
                    interp(&snap.samples, w)
                        .map_or_else(|| "-".into(), |d| format!("{d:.1}")),
                );
            }
            row
        })
        .collect();
    print_table(&["gen", "t (s)", "W=5", "W=20", "W=50", "W=100"], &prow);

    if !tf.counters.is_empty() {
        println!("\nsubstrate counters:");
        for (k, v) in &tf.counters {
            println!("  {k}: {v}");
        }
    }
}

/// Linear interpolation of a sampled profile curve at window `w`
/// (`None` outside the sampled range).
fn interp(samples: &[(f64, f64)], w: f64) -> Option<f64> {
    let first = samples.first()?;
    let last = samples.last()?;
    if w < first.0 || w > last.0 {
        return None;
    }
    for pair in samples.windows(2) {
        let (w0, d0) = pair[0];
        let (w1, d1) = pair[1];
        if w >= w0 && w <= w1 {
            if w1 - w0 < 1e-12 {
                return Some(d0);
            }
            return Some(d0 + (d1 - d0) * (w - w0) / (w1 - w0));
        }
    }
    Some(last.1)
}
