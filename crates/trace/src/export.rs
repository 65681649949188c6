//! JSONL / CSV export and the matching parser.
//!
//! Lines are built and read with the crate's [`crate::json`] module.
//! Every line is one flat JSON object with a `type` field; key order is
//! fixed per record type so two traces from different substrates can be
//! compared field-for-field.
//!
//! File layout (`verus-trace-v0`):
//!
//! ```text
//! {"type":"header","schema":"verus-trace-v0","substrate":"netsim","clock":"sim"}
//! {"type":"epoch","t_ns":…,"epoch":…,"phase":…,"window":…,"dest_ms":…,"delay_ms":…,"decision":…,"headroom":…}
//! {"type":"packet","t_ns":…,"kind":…,"seq":…,"bytes":…,"window":…,"rtt_ms":…}
//! {"type":"profile","t_ns":…,"generation":…,"samples":[[w,d],…]}
//! {"type":"session","t_ns":…,"kind":…,"state":…,"retries":…,"elapsed_ns":…}
//! {"type":"summary","epochs":…,"packets":…,"profiles":…,"sessions":…,"dropped_epochs":…,"dropped_packets":…,"dropped_profiles":…,"dropped_sessions":…,"counters":{…}}
//! ```
//!
//! Record streams are written as blocks (epochs, then packets, then
//! profiles, then sessions); each block is internally time-ordered.
//! Session lines only appear in traces whose producer records session
//! transitions (no driver in the workspace does at present) — plain
//! controller captures contain none. The parser accepts summary
//! records without the `sessions`/`dropped_sessions` fields (defaulting
//! them to 0) so artifacts written before the session stream existed
//! still load.

use crate::recorder::{DropCounts, Recorder};
use crate::schema::{
    DeltaDecision, EpochRecord, PacketKind, PacketRecord, ProfileSnapshot, SessionEventKind,
    SessionRecord, SessionState, TracePhase,
};
use crate::json::{self, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The trace file schema identifier (the header's `schema` field).
pub const SCHEMA: &str = "verus-trace-v0";

// ------------------------------------------------------------- formatting

/// Emission order for one record stream: indices stably sorted by
/// `(t_ns, lane)`. When nothing in the stream is tagged (every lane is
/// [`crate::lane::NONE`]) the sort key is constant per timestamp and
/// the stable sort is the identity — untagged traces keep their exact
/// arrival-order bytes. Tagged traces get the canonical order: each
/// flow's handle batches records before flushing, so arrival order
/// interleaves flows by flush, not by time; `(t_ns, lane, arrival)`
/// depends only on what each flow emitted and when.
fn stream_order(times: &[u64], lanes: &[u32]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..times.len()).collect();
    if lanes.len() == times.len() && lanes.iter().any(|&l| l != crate::lane::NONE) {
        idx.sort_by_key(|&i| (times[i], lanes[i]));
    }
    idx
}

fn epoch_line(r: &EpochRecord) -> Json {
    Json::object()
        .field("type", "epoch")
        .field("t_ns", r.t_ns)
        .field("epoch", r.epoch)
        .field("phase", r.phase.as_str())
        .field("window", r.window)
        .field("dest_ms", r.dest_ms)
        .field("delay_ms", r.delay_ms)
        .field("decision", r.decision.as_str())
        .field("headroom", r.headroom)
}

fn packet_line(r: &PacketRecord) -> Json {
    Json::object()
        .field("type", "packet")
        .field("t_ns", r.t_ns)
        .field("kind", r.kind.as_str())
        .field("seq", r.seq)
        .field("bytes", r.bytes)
        .field("window", r.window)
        .field("rtt_ms", r.rtt_ms)
}

fn profile_line(s: &ProfileSnapshot) -> Json {
    Json::object()
        .field("type", "profile")
        .field("t_ns", s.t_ns)
        .field("generation", s.generation)
        .field("samples", s.samples.iter().copied().collect::<Json>())
}

fn session_line(r: &SessionRecord) -> Json {
    Json::object()
        .field("type", "session")
        .field("t_ns", r.t_ns)
        .field("kind", r.kind.as_str())
        .field("state", r.state.as_str())
        .field("retries", r.retries)
        .field("elapsed_ns", r.elapsed_ns)
}

/// Serializes a recorded trace to JSONL. `substrate` names the producer
/// (`"netsim"` / `"transport"`); `clock` names the timestamp domain
/// (`"sim"` / `"wall"`).
#[must_use]
pub fn to_jsonl(rec: &Recorder, substrate: &str, clock: &str) -> String {
    let mut out = String::new();
    let mut emit = |line: Json| {
        let _ = writeln!(out, "{line}");
    };
    emit(
        Json::object()
            .field("type", "header")
            .field("schema", SCHEMA)
            .field("substrate", substrate)
            .field("clock", clock),
    );
    let epochs = rec.epochs();
    for i in stream_order(
        &epochs.iter().map(|r| r.t_ns).collect::<Vec<_>>(),
        rec.epoch_lanes(),
    ) {
        emit(epoch_line(&epochs[i]));
    }
    let packets = rec.packets();
    for i in stream_order(
        &packets.iter().map(|r| r.t_ns).collect::<Vec<_>>(),
        rec.packet_lanes(),
    ) {
        emit(packet_line(&packets[i]));
    }
    let profiles = rec.profiles();
    for i in stream_order(
        &profiles.iter().map(|s| s.t_ns).collect::<Vec<_>>(),
        rec.profile_lanes(),
    ) {
        emit(profile_line(&profiles[i]));
    }
    let sessions = rec.sessions();
    for i in stream_order(
        &sessions.iter().map(|s| s.t_ns).collect::<Vec<_>>(),
        rec.session_lanes(),
    ) {
        emit(session_line(&sessions[i]));
    }
    let d = rec.dropped();
    let counters = rec
        .counters()
        .iter()
        .fold(Json::object(), |obj, (k, v)| obj.field(k, *v));
    emit(
        Json::object()
            .field("type", "summary")
            .field("epochs", epochs.len())
            .field("packets", packets.len())
            .field("profiles", profiles.len())
            .field("sessions", sessions.len())
            .field("dropped_epochs", d.epochs)
            .field("dropped_packets", d.packets)
            .field("dropped_profiles", d.profiles)
            .field("dropped_sessions", d.sessions)
            .field("counters", counters),
    );
    out
}

// ------------------------------------------------------------------- CSV

/// Epoch records as CSV (`t_s` in seconds; empty cells for `None`).
#[must_use]
pub fn epochs_csv(epochs: &[EpochRecord]) -> String {
    let mut out = String::from("t_s,epoch,phase,window,dest_ms,delay_ms,decision,headroom\n");
    let opt = |v: Option<f64>| v.map_or_else(String::new, |x| format!("{x:.4}"));
    for r in epochs {
        let _ = writeln!(
            out,
            "{:.6},{},{},{:.4},{},{},{},{}",
            r.t_ns as f64 / 1e9,
            r.epoch,
            r.phase.as_str(),
            r.window,
            opt(r.dest_ms),
            opt(r.delay_ms),
            r.decision.as_str(),
            opt(r.headroom),
        );
    }
    out
}

/// Packet records as CSV.
#[must_use]
pub fn packets_csv(packets: &[PacketRecord]) -> String {
    let mut out = String::from("t_s,kind,seq,bytes,window,rtt_ms\n");
    for r in packets {
        let _ = writeln!(
            out,
            "{:.6},{},{},{},{:.4},{}",
            r.t_ns as f64 / 1e9,
            r.kind.as_str(),
            r.seq,
            r.bytes,
            r.window,
            r.rtt_ms.map_or_else(String::new, |x| format!("{x:.4}")),
        );
    }
    out
}

/// Profile snapshots as long-format CSV (one row per curve sample).
#[must_use]
pub fn profiles_csv(profiles: &[ProfileSnapshot]) -> String {
    let mut out = String::from("generation,t_s,window,delay_ms\n");
    for s in profiles {
        for (w, d) in &s.samples {
            let _ = writeln!(out, "{},{:.6},{w:.4},{d:.4}", s.generation, s.t_ns as f64 / 1e9);
        }
    }
    out
}

// ---------------------------------------------------------------- parser

/// `null` or a number.
fn opt_f64(v: &Json) -> Result<Option<f64>, String> {
    match v {
        Json::Null => Ok(None),
        other => other
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("expected number or null, got {other:?}")),
    }
}

fn parse_line(line: &str) -> Result<Json, String> {
    match json::parse(line)? {
        obj @ Json::Obj(_) => Ok(obj),
        _ => Err("line is not a JSON object".to_string()),
    }
}

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn req_u64(obj: &Json, key: &str) -> Result<u64, String> {
    field(obj, key)?
        .as_u64()
        .ok_or_else(|| format!("field {key:?} is not a u64"))
}

/// A `u64` field defaulting to 0 when absent — for summary fields added
/// after artifacts were committed (missing field ≠ malformed file).
fn opt_u64(obj: &Json, key: &str) -> Result<u64, String> {
    match obj.get(key) {
        None => Ok(0),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| format!("field {key:?} is not a u64")),
    }
}

fn req_f64(obj: &Json, key: &str) -> Result<f64, String> {
    field(obj, key)?
        .as_f64()
        .ok_or_else(|| format!("field {key:?} is not a number"))
}

fn req_str<'a>(obj: &'a Json, key: &str) -> Result<&'a str, String> {
    field(obj, key)?
        .as_str()
        .ok_or_else(|| format!("field {key:?} is not a string"))
}

/// A parsed trace file.
#[derive(Debug, Clone, Default)]
pub struct TraceFile {
    /// Schema identifier from the header ([`SCHEMA`]).
    pub schema: String,
    /// Producing substrate (`"netsim"` / `"transport"`).
    pub substrate: String,
    /// Timestamp domain (`"sim"` / `"wall"`).
    pub clock: String,
    /// Epoch records in file order.
    pub epochs: Vec<EpochRecord>,
    /// Packet records in file order.
    pub packets: Vec<PacketRecord>,
    /// Profile snapshots in file order.
    pub profiles: Vec<ProfileSnapshot>,
    /// Session lifecycle records in file order (empty for traces that
    /// predate the session stream or had no session producer).
    pub sessions: Vec<SessionRecord>,
    /// Summary counters.
    pub counters: BTreeMap<String, u64>,
    /// Drop counters from the summary record.
    pub dropped: DropCounts,
    /// Per record type: the exact key order of its lines (every line of
    /// a type must agree — enforced at parse time). This is what the
    /// cross-substrate parity test compares field-for-field.
    pub field_order: BTreeMap<String, Vec<String>>,
}

/// Parses a `verus-trace-v0` JSONL document.
///
/// # Errors
/// Returns a message naming the offending line for malformed JSON,
/// unknown record types, missing fields, or schema drift between lines
/// of the same record type.
pub fn parse_jsonl(text: &str) -> Result<TraceFile, String> {
    let mut out = TraceFile::default();
    let mut saw_header = false;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let obj = parse_line(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let ty = req_str(&obj, "type")
            .map_err(|e| format!("line {}: {e}", lineno + 1))?
            .to_string();
        let keys: Vec<String> = obj
            .as_object()
            .unwrap_or_default()
            .iter()
            .map(|(k, _)| k.clone())
            .collect();
        match out.field_order.get(&ty) {
            None => {
                out.field_order.insert(ty.clone(), keys);
            }
            Some(prev) if *prev != keys => {
                return Err(format!(
                    "line {}: {ty:?} record schema drifted: {prev:?} vs {keys:?}",
                    lineno + 1
                ));
            }
            Some(_) => {}
        }
        let mut parse = || -> Result<(), String> {
            match ty.as_str() {
                "header" => {
                    out.schema = req_str(&obj, "schema")?.to_string();
                    out.substrate = req_str(&obj, "substrate")?.to_string();
                    out.clock = req_str(&obj, "clock")?.to_string();
                    saw_header = true;
                }
                "epoch" => out.epochs.push(EpochRecord {
                    t_ns: req_u64(&obj, "t_ns")?,
                    epoch: req_u64(&obj, "epoch")?,
                    phase: TracePhase::from_str(req_str(&obj, "phase")?)
                        .ok_or("unknown phase")?,
                    window: req_f64(&obj, "window")?,
                    dest_ms: opt_f64(field(&obj, "dest_ms")?)?,
                    delay_ms: opt_f64(field(&obj, "delay_ms")?)?,
                    decision: DeltaDecision::from_str(req_str(&obj, "decision")?)
                        .ok_or("unknown decision")?,
                    headroom: opt_f64(field(&obj, "headroom")?)?,
                }),
                "packet" => out.packets.push(PacketRecord {
                    t_ns: req_u64(&obj, "t_ns")?,
                    kind: PacketKind::from_str(req_str(&obj, "kind")?)
                        .ok_or("unknown packet kind")?,
                    seq: req_u64(&obj, "seq")?,
                    bytes: req_u64(&obj, "bytes")?,
                    window: req_f64(&obj, "window")?,
                    rtt_ms: opt_f64(field(&obj, "rtt_ms")?)?,
                }),
                "profile" => {
                    let Json::Arr(raw) = field(&obj, "samples")? else {
                        return Err("samples is not an array".to_string());
                    };
                    let mut samples = Vec::with_capacity(raw.len());
                    for pair in raw {
                        let Json::Arr(xy) = pair else {
                            return Err("sample is not a [w, d] pair".to_string());
                        };
                        if xy.len() != 2 {
                            return Err("sample is not a [w, d] pair".to_string());
                        }
                        samples.push((
                            xy[0].as_f64().ok_or("bad sample window")?,
                            xy[1].as_f64().ok_or("bad sample delay")?,
                        ));
                    }
                    out.profiles.push(ProfileSnapshot {
                        t_ns: req_u64(&obj, "t_ns")?,
                        generation: req_u64(&obj, "generation")?,
                        samples,
                    });
                }
                "session" => out.sessions.push(SessionRecord {
                    t_ns: req_u64(&obj, "t_ns")?,
                    kind: SessionEventKind::from_str(req_str(&obj, "kind")?)
                        .ok_or("unknown session event kind")?,
                    state: SessionState::from_str(req_str(&obj, "state")?)
                        .ok_or("unknown session state")?,
                    retries: req_u64(&obj, "retries")?,
                    elapsed_ns: req_u64(&obj, "elapsed_ns")?,
                }),
                "summary" => {
                    out.dropped = DropCounts {
                        epochs: req_u64(&obj, "dropped_epochs")?,
                        packets: req_u64(&obj, "dropped_packets")?,
                        profiles: req_u64(&obj, "dropped_profiles")?,
                        sessions: opt_u64(&obj, "dropped_sessions")?,
                    };
                    let Json::Obj(raw) = field(&obj, "counters")? else {
                        return Err("counters is not an object".to_string());
                    };
                    for (k, v) in raw {
                        out.counters.insert(
                            k.clone(),
                            v.as_u64().ok_or_else(|| format!("counter {k:?} not u64"))?,
                        );
                    }
                }
                other => return Err(format!("unknown record type {other:?}")),
            }
            Ok(())
        };
        parse().map_err(|e| format!("line {}: {e}", lineno + 1))?;
    }
    if !saw_header {
        return Err("trace has no header record".to_string());
    }
    if out.schema != SCHEMA {
        return Err(format!("unsupported schema {:?} (want {SCHEMA:?})", out.schema));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::TraceSink;

    fn sample_recorder() -> Recorder {
        let mut r = Recorder::with_capacity(16, 16, 16);
        r.on_epoch(&EpochRecord {
            t_ns: 5_000_000,
            epoch: 1,
            phase: TracePhase::SlowStart,
            window: 1.0,
            dest_ms: None,
            delay_ms: None,
            decision: DeltaDecision::None,
            headroom: None,
        });
        r.on_epoch(&EpochRecord {
            t_ns: 10_000_000,
            epoch: 2,
            phase: TracePhase::CongestionAvoidance,
            window: 12.5,
            dest_ms: Some(45.25),
            delay_ms: Some(44.0),
            decision: DeltaDecision::Up,
            headroom: Some(0.5),
        });
        r.on_packet(&PacketRecord {
            t_ns: 6_000_000,
            kind: PacketKind::Send,
            seq: 0,
            bytes: 1400,
            window: 1.0,
            rtt_ms: None,
        });
        r.on_packet(&PacketRecord {
            t_ns: 46_000_000,
            kind: PacketKind::Ack,
            seq: 0,
            bytes: 1400,
            window: 1.0,
            rtt_ms: Some(40.125),
        });
        r.on_profile(&ProfileSnapshot {
            t_ns: 9_000_000,
            generation: 1,
            samples: vec![(1.0, 20.0), (8.0, 33.5)],
        });
        r.on_session(&SessionRecord {
            t_ns: 7_000_000,
            kind: SessionEventKind::StateChange,
            state: SessionState::Established,
            retries: 0,
            elapsed_ns: 2_000_000,
        });
        r.on_session(&SessionRecord {
            t_ns: 50_000_000,
            kind: SessionEventKind::RecoveryComplete,
            state: SessionState::Established,
            retries: 3,
            elapsed_ns: 43_000_000,
        });
        r.set_counter("sent", 2);
        r.set_counter("delivered", 1);
        r
    }

    #[test]
    fn jsonl_round_trips_through_the_parser() {
        let rec = sample_recorder();
        let text = to_jsonl(&rec, "netsim", "sim");
        let parsed = parse_jsonl(&text).expect("parse");
        assert_eq!(parsed.schema, SCHEMA);
        assert_eq!(parsed.substrate, "netsim");
        assert_eq!(parsed.clock, "sim");
        assert_eq!(parsed.epochs, rec.epochs());
        assert_eq!(parsed.packets, rec.packets());
        assert_eq!(parsed.profiles, rec.profiles());
        assert_eq!(parsed.sessions, rec.sessions());
        assert_eq!(parsed.counters["sent"], 2);
        assert_eq!(parsed.counters["delivered"], 1);
        assert_eq!(parsed.dropped, DropCounts::default());
    }

    #[test]
    fn summaries_without_session_fields_still_parse() {
        // A pre-session-stream artifact: its summary has no `sessions` /
        // `dropped_sessions` keys. Both default to 0.
        let text = concat!(
            "{\"type\":\"header\",\"schema\":\"verus-trace-v0\",\"substrate\":\"netsim\",\"clock\":\"sim\"}\n",
            "{\"type\":\"summary\",\"epochs\":0,\"packets\":0,\"profiles\":0,\
             \"dropped_epochs\":1,\"dropped_packets\":2,\"dropped_profiles\":3,\
             \"counters\":{}}\n",
        );
        let parsed = parse_jsonl(text).expect("old artifact must parse");
        assert!(parsed.sessions.is_empty());
        assert_eq!(
            parsed.dropped,
            DropCounts {
                epochs: 1,
                packets: 2,
                profiles: 3,
                sessions: 0
            }
        );
    }

    #[test]
    fn field_order_is_recorded_per_type() {
        let text = to_jsonl(&sample_recorder(), "netsim", "sim");
        let parsed = parse_jsonl(&text).expect("parse");
        assert_eq!(
            parsed.field_order["epoch"],
            [
                "type", "t_ns", "epoch", "phase", "window", "dest_ms", "delay_ms",
                "decision", "headroom"
            ]
        );
        assert_eq!(
            parsed.field_order["packet"],
            ["type", "t_ns", "kind", "seq", "bytes", "window", "rtt_ms"]
        );
        assert_eq!(
            parsed.field_order["session"],
            ["type", "t_ns", "kind", "state", "retries", "elapsed_ns"]
        );
    }

    #[test]
    fn schema_drift_between_lines_is_an_error() {
        let text = concat!(
            "{\"type\":\"header\",\"schema\":\"verus-trace-v0\",\"substrate\":\"x\",\"clock\":\"sim\"}\n",
            "{\"type\":\"packet\",\"t_ns\":1,\"kind\":\"send\",\"seq\":0,\"bytes\":1,\"window\":1,\"rtt_ms\":null}\n",
            "{\"type\":\"packet\",\"t_ns\":2,\"seq\":1,\"kind\":\"send\",\"bytes\":1,\"window\":1,\"rtt_ms\":null}\n",
        );
        let err = parse_jsonl(text).expect_err("drifted key order must fail");
        assert!(err.contains("schema drifted"), "{err}");
    }

    #[test]
    fn missing_header_and_bad_schema_fail() {
        assert!(parse_jsonl("").is_err());
        let bad = "{\"type\":\"header\",\"schema\":\"v999\",\"substrate\":\"x\",\"clock\":\"sim\"}\n";
        assert!(parse_jsonl(bad).expect_err("bad schema").contains("unsupported schema"));
    }

    #[test]
    fn csv_exports_have_headers_and_rows() {
        let rec = sample_recorder();
        let e = epochs_csv(rec.epochs());
        assert!(e.starts_with("t_s,epoch,phase,window,dest_ms"));
        assert_eq!(e.lines().count(), 3);
        // None fields are empty cells, not "NaN".
        assert!(e.lines().nth(1).expect("row").contains(",,"));
        let p = packets_csv(rec.packets());
        assert_eq!(p.lines().count(), 3);
        let pr = profiles_csv(rec.profiles());
        assert_eq!(pr.lines().count(), 3, "one row per curve sample");
    }

    #[test]
    fn tagged_streams_sort_by_time_then_lane_and_untagged_keep_arrival_order() {
        let pkt = |t_ns, seq| PacketRecord {
            t_ns,
            kind: PacketKind::Send,
            seq,
            bytes: 1,
            window: 1.0,
            rtt_ms: None,
        };
        // Untagged: arrival order survives even when timestamps tie.
        crate::lane::clear();
        let mut plain = Recorder::with_capacity(1, 8, 1);
        plain.on_packet(&pkt(10, 2));
        plain.on_packet(&pkt(10, 1));
        let text = to_jsonl(&plain, "netsim", "sim");
        let parsed = parse_jsonl(&text).expect("parse");
        assert_eq!(parsed.packets[0].seq, 2, "untagged export is arrival order");
        // Tagged: lane breaks the timestamp tie regardless of arrival.
        let mut tagged = Recorder::with_capacity(1, 8, 1);
        crate::lane::set(1);
        tagged.on_packet(&pkt(10, 2));
        tagged.on_packet(&pkt(20, 3));
        crate::lane::set(0);
        tagged.on_packet(&pkt(10, 1));
        crate::lane::clear();
        let text = to_jsonl(&tagged, "netsim", "sim");
        let parsed = parse_jsonl(&text).expect("parse");
        let seqs: Vec<u64> = parsed.packets.iter().map(|p| p.seq).collect();
        assert_eq!(seqs, [1, 2, 3], "t_ns first, lane breaks the t=10 tie");
    }

    #[test]
    fn counter_names_are_escaped() {
        let mut r = Recorder::with_capacity(1, 1, 1);
        r.set_counter("weird\"name\\x", 7);
        let text = to_jsonl(&r, "t", "wall");
        let parsed = parse_jsonl(&text).expect("parse escaped");
        assert_eq!(parsed.counters["weird\"name\\x"], 7);
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        let mut r = Recorder::with_capacity(1, 1, 1);
        r.on_packet(&PacketRecord {
            t_ns: 1,
            kind: PacketKind::Ack,
            seq: 0,
            bytes: 1,
            window: f64::INFINITY,
            rtt_ms: Some(f64::NAN),
        });
        let text = to_jsonl(&r, "netsim", "sim");
        let packet = text.lines().nth(1).expect("packet line");
        assert!(packet.ends_with(r#""window":null,"rtt_ms":null}"#), "{packet}");
        assert_eq!(Json::from(1.5).to_string(), "1.5");
    }
}
