//! `verus-send` — the sender application (paper §5's sender).
//!
//! Runs a congestion controller (Verus by default, or any baseline) over
//! UDP towards a `verus-recv` instance as one flow of a one-shard
//! `ShardServer`, then prints transfer statistics once the session has
//! drained.
//!
//! ```bash
//! verus-send <dest-addr> [options]
//!   --proto <verus|cubic|newreno|vegas|sprout>   (default verus)
//!   --r <float>          Verus R parameter        (default 2)
//!   --secs <u64>         transfer duration        (default 30)
//!   --bytes <u32>        payload per packet       (default 1400)
//! ```

use std::net::SocketAddr;
use verus_baselines::{Cubic, NewReno, Sprout, Vegas};
use verus_core::{VerusCc, VerusConfig};
use verus_nettypes::{CongestionControl, SimDuration};
use verus_transport::{FlowSpec, ShardServer, ShardServerConfig, WallClock};

struct Args {
    dest: SocketAddr,
    proto: String,
    r: f64,
    secs: u64,
    bytes: u32,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let dest = argv
        .next()
        .ok_or("usage: verus-send <dest-addr> [--proto P] [--r R] [--secs N] [--bytes B]")?;
    let dest: SocketAddr = dest
        .parse()
        .map_err(|e| format!("invalid destination {dest:?}: {e}"))?;
    let mut args = Args {
        dest,
        proto: "verus".into(),
        r: 2.0,
        secs: 30,
        bytes: 1400,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let invalid = |e: &dyn std::fmt::Display| format!("{flag}: {e}");
        match flag.as_str() {
            "--proto" => args.proto = value,
            "--r" => args.r = value.parse().map_err(|e| invalid(&e))?,
            "--secs" => args.secs = value.parse().map_err(|e| invalid(&e))?,
            "--bytes" => args.bytes = value.parse().map_err(|e| invalid(&e))?,
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(args)
}

fn controller(proto: &str, r: f64) -> Result<Box<dyn CongestionControl>, String> {
    Ok(match proto {
        "verus" => Box::new(VerusCc::new(VerusConfig::with_r(r))),
        "cubic" => Box::new(Cubic::new()),
        "newreno" => Box::new(NewReno::new()),
        "vegas" => Box::new(Vegas::new()),
        "sprout" => Box::new(Sprout::default()),
        other => return Err(format!("unknown protocol {other:?}")),
    })
}

fn main() {
    let parsed = parse_args().and_then(|args| Ok((controller(&args.proto, args.r)?, args)));
    let (cc, args) = parsed.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    // The gap timer: Verus' §5.2 3×delay; RACK-ish 2× for the baselines.
    let gap_factor = if args.proto == "verus" { 3.0 } else { 2.0 };
    let server = ShardServer::new(ShardServerConfig {
        bind: SocketAddr::from(([0, 0, 0, 0], 0)),
        packet_bytes: args.bytes,
        gap_factor,
        deadline: SimDuration::from_secs(args.secs),
        stagger: SimDuration::ZERO,
        ..ShardServerConfig::default()
    });
    eprintln!(
        "verus-send: {} → {} for {} s ({} B packets)",
        args.proto, args.dest, args.secs, args.bytes
    );
    let flow = FlowSpec {
        flow: 1,
        dest: args.dest,
        packets: u64::MAX,
        cc,
    };
    let report = server
        .run(vec![flow], WallClock::new())
        .unwrap_or_else(|e| {
            eprintln!("transfer failed: {e}");
            std::process::exit(1);
        });
    // One spec in, one report out.
    let stats = &report.flows[0].stats;
    println!(
        "throughput : {:.3} Mbit/s ({} acked / {} sent)",
        stats.mean_throughput_mbps(),
        stats.acked,
        stats.sent
    );
    println!(
        "delay      : mean {:.1} ms, p95 {:.1} ms",
        stats.mean_delay_ms(),
        stats.delay_summary.map_or(0.0, |s| s.p95)
    );
    println!(
        "losses     : {} fast, {} timeouts",
        stats.fast_losses, stats.timeouts
    );
}
