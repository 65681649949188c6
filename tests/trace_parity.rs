//! Trace parity across substrates: the same protocol over the same
//! channel, traced on the discrete-event simulator and on real UDP
//! sockets through the emulator, must emit *schema-identical* JSONL —
//! the same record types with the same fields in the same order,
//! field-for-field — with the same phase structure and matching epoch
//! cadence. Only the timestamp *values* (and the run's noise) may
//! differ: the simulator stamps simulated time, the transport stamps
//! wall-clock time.

use std::time::Duration;
use verus_bench::{CellExperiment, ProtocolSpec};
use verus_cellular::{OperatorModel, Scenario, Trace};
use verus_core::VerusCc;
use verus_netsim::queue::QueueConfig;
use verus_nettypes::{CongestionControl, SimDuration};
use verus_trace::{parse_jsonl, to_jsonl, Recorder, TraceFile, TracePhase};
use verus_transport::{
    Emulator, EmulatorConfig, FlowSpec, Receiver, ShardServer, ShardServerConfig, WallClock,
};

const RUN_SECS: u64 = 8;

fn shared_trace() -> Trace {
    Scenario::CampusStationary
        .generate_trace(OperatorModel::Etisalat3G, SimDuration::from_secs(12), 5000)
        .expect("trace")
}

/// Simulator side: run, export, re-parse (the parse round-trip is part
/// of what's under test).
fn sim_trace_file() -> TraceFile {
    let mut exp = CellExperiment::new(shared_trace(), 1, SimDuration::from_secs(RUN_SECS), 5001);
    exp.queue = QueueConfig::DropTail {
        capacity_bytes: 1 << 20,
    };
    let (_reports, rec) = exp.run_traced(ProtocolSpec::verus(2.0), Recorder::new());
    parse_jsonl(&to_jsonl(&rec, "netsim", "sim")).expect("sim trace parses")
}

/// Real-socket side: same trace through the loopback emulator.
fn real_trace_file() -> TraceFile {
    let clock = WallClock::new();
    let receiver = Receiver::spawn("127.0.0.1:0", clock).expect("receiver");
    let mut emulator = Emulator::spawn(
        EmulatorConfig::new(shared_trace(), receiver.local_addr()),
        clock,
    )
    .expect("emulator");
    emulator.attach_delivered(receiver.delivered_counter());
    let (handle, shared) = Recorder::new().shared();
    let mut cc: Box<dyn CongestionControl> = Box::new(VerusCc::default());
    cc.attach_trace(handle);
    let server = ShardServer::new(ShardServerConfig {
        deadline: SimDuration::from_secs(RUN_SECS),
        stagger: SimDuration::ZERO,
        ..ShardServerConfig::default()
    });
    let flow = FlowSpec {
        flow: 1,
        dest: emulator.ingress_addr(),
        packets: u64::MAX,
        cc,
    };
    let _report = server.run(vec![flow], clock).expect("sender run");
    // Quiesce before sampling counters: the sender is done, but the
    // emulator keeps forwarding its queued residue and the loopback hop
    // still holds packets the receiver hasn't counted. Wait until both
    // ends stop moving so the in-flight population is fully drained —
    // the hard conservation equality below is only meaningful then.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let snapshot = (emulator.forwarded(), receiver.received());
        std::thread::sleep(Duration::from_millis(300));
        if (emulator.forwarded(), receiver.received()) == snapshot {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "emulator/receiver never quiesced after the sender finished"
        );
    }
    let counters = emulator.trace_counters();
    emulator.stop();
    receiver.stop();
    let mut rec = shared
        .lock()
        .map(|mut r| std::mem::take(&mut *r))
        .expect("recorder lock");
    for (name, value) in counters {
        rec.set_counter(name, value);
    }
    parse_jsonl(&to_jsonl(&rec, "transport", "wall")).expect("real trace parses")
}

/// Consecutive-duplicate-free phase sequence of the epoch stream.
fn phase_seq(tf: &TraceFile) -> Vec<TracePhase> {
    let mut seq: Vec<TracePhase> = Vec::new();
    for e in &tf.epochs {
        if seq.last() != Some(&e.phase) {
            seq.push(e.phase);
        }
    }
    seq
}

#[test]
fn substrates_emit_schema_identical_traces() {
    let sim = sim_trace_file();
    let real = real_trace_file();

    assert_eq!(sim.schema, real.schema);
    assert_eq!(sim.clock, "sim");
    assert_eq!(real.clock, "wall");

    // Every record type either substrate produced must also appear on
    // the other, with byte-identical field lists in identical order —
    // the literal "same schema" guarantee a downstream plotting script
    // relies on. (Timestamp *values* differ; the `t_ns` key must not.)
    let sim_types: Vec<&String> = sim.field_order.keys().collect();
    let real_types: Vec<&String> = real.field_order.keys().collect();
    assert_eq!(
        sim_types, real_types,
        "substrates produced different record types"
    );
    for (ty, sim_fields) in &sim.field_order {
        let real_fields = &real.field_order[ty];
        assert_eq!(
            sim_fields, real_fields,
            "record type {ty:?} differs field-for-field between substrates"
        );
    }
    for ty in ["header", "epoch", "packet", "profile", "summary"] {
        assert!(
            sim.field_order.contains_key(ty),
            "trace is missing {ty:?} records"
        );
    }

    // Same epoch cadence: the simulator ticks exactly every ε = 5 ms;
    // the wall-clock loop schedules ticks on the same fixed cadence with
    // catch-up, so over the same duration the counts must agree to a
    // few percent (scheduling jitter only affects tick *timing*).
    let expected = RUN_SECS * 200; // ε = 5 ms → 200 epochs per second
    assert_eq!(sim.epochs.len() as u64, expected, "simulator epoch count");
    let real_n = real.epochs.len() as f64;
    assert!(
        (real_n - expected as f64).abs() <= 0.03 * expected as f64,
        "real epoch count {real_n} not within 3% of {expected}"
    );

    // Same phase structure: both runs start in slow start and settle
    // into congestion avoidance (later recovery excursions are channel
    // noise and may legitimately differ between substrates).
    let sim_seq = phase_seq(&sim);
    let real_seq = phase_seq(&real);
    assert_eq!(
        &sim_seq[..2],
        &[TracePhase::SlowStart, TracePhase::CongestionAvoidance],
        "sim phase sequence {sim_seq:?}"
    );
    assert_eq!(
        &real_seq[..2],
        &[TracePhase::SlowStart, TracePhase::CongestionAvoidance],
        "real phase sequence {real_seq:?}"
    );

    // Both recorders must have kept everything at default capacity.
    assert_eq!(sim.dropped.total(), 0, "sim recorder dropped records");
    assert_eq!(real.dropped.total(), 0, "real recorder dropped records");

    // Substrate-specific conservation counters ride in the summary:
    // the simulator's ledger on one side, the emulator's data-path
    // tally on the other.
    assert_eq!(sim.counters["ledger_balances"], 1);
    assert!(sim.counters.contains_key("sent"));
    assert!(
        real.counters["emulator_received"]
            >= real.counters["emulator_forwarded"],
        "emulator forwarded more than it received"
    );
    // Hard per-run equality on the forward data path: after the quiesce
    // drain, every packet the emulator forwarded must be accounted for
    // at the receiver — forwarded = delivered + in-flight, with the
    // in-flight population drained to exactly zero. A packet lost on
    // the loopback hop (receiver socket-buffer overflow) would leave a
    // permanent in-flight residue and fail here.
    assert_eq!(
        real.counters["emulator_forwarded"],
        real.counters["receiver_delivered"] + real.counters["data_in_flight"],
        "forward data path not conserved"
    );
    assert_eq!(
        real.counters["data_in_flight"], 0,
        "loopback hop failed to drain: {} forwarded, {} delivered",
        real.counters["emulator_forwarded"], real.counters["receiver_delivered"]
    );
}

#[test]
fn traced_and_untraced_sim_runs_are_identical() {
    // Attaching a recorder must not perturb the protocol: same seed,
    // same channel, same outcome to the last packet.
    let exp = {
        let mut e =
            CellExperiment::new(shared_trace(), 1, SimDuration::from_secs(RUN_SECS), 5001);
        e.queue = QueueConfig::DropTail {
            capacity_bytes: 1 << 20,
        };
        e
    };
    let plain = exp.run(ProtocolSpec::verus(2.0)).remove(0);
    let (mut traced_reports, _rec) = exp.run_traced(ProtocolSpec::verus(2.0), Recorder::new());
    let traced = traced_reports.remove(0);
    assert_eq!(plain.sent, traced.sent);
    assert_eq!(plain.delivered, traced.delivered);
    assert_eq!(plain.fast_losses, traced.fast_losses);
    assert_eq!(plain.timeouts, traced.timeouts);
    assert!((plain.mean_throughput_mbps() - traced.mean_throughput_mbps()).abs() < 1e-9);
}
