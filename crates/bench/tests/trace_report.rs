//! `trace_report report` writes a summary JSON that any JSON reader
//! accepts: names from the trace are escaped, and an interval without a
//! sample is `null`, never a bare `NaN`.

use std::process::Command;
use verus_trace::json::{self, Json};
use verus_trace::{
    to_jsonl, DeltaDecision, EpochRecord, PacketKind, PacketRecord, Recorder, TracePhase, TraceSink,
};

#[test]
fn summary_escapes_names_and_writes_missing_samples_as_null() {
    let mut rec = Recorder::with_capacity(4, 4, 1);
    rec.on_epoch(&EpochRecord {
        t_ns: 500_000_000,
        epoch: 1,
        phase: TracePhase::SlowStart,
        window: 4.0,
        dest_ms: None,
        delay_ms: None,
        decision: DeltaDecision::None,
        headroom: None,
    });
    // One ACK in each of the first two seconds; the second second has no
    // epoch record, so its mean window has no sample.
    for t_ns in [600_000_000, 1_500_000_000] {
        rec.on_packet(&PacketRecord {
            t_ns,
            kind: PacketKind::Ack,
            seq: 0,
            bytes: 1400,
            window: 4.0,
            rtt_ms: Some(40.0),
        });
    }
    rec.set_counter("odd\"counter", 3);

    let dir = std::env::temp_dir().join(format!("verus-trace-report-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("quoted.jsonl");
    std::fs::write(&trace, to_jsonl(&rec, "net\"sim", "sim")).expect("write trace");

    let out = Command::new(env!("CARGO_BIN_EXE_trace_report"))
        .arg("report")
        .arg(&trace)
        .env("VERUS_RESULTS", &dir)
        .output()
        .expect("run trace_report");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(dir.join("quoted_summary.json")).expect("summary");
    std::fs::remove_dir_all(&dir).expect("clean temp dir");
    let summary = json::parse(&text).unwrap_or_else(|e| panic!("invalid JSON ({e}):\n{text}"));

    assert_eq!(
        summary.get("substrate").and_then(Json::as_str),
        Some("net\"sim")
    );
    let counter = summary.get("counters").and_then(|c| c.get("odd\"counter"));
    assert_eq!(counter.and_then(Json::as_u64), Some(3));
    let intervals = summary
        .get("intervals")
        .and_then(Json::as_array)
        .expect("intervals");
    assert_eq!(intervals.len(), 2);
    assert_eq!(
        intervals[0].get("mean_window").and_then(Json::as_f64),
        Some(4.0)
    );
    assert_eq!(intervals[1].get("mean_window"), Some(&Json::Null));
}
