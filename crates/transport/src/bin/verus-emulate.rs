//! `verus-emulate` — the trace-driven UDP channel emulator as a
//! standalone process (the mahimahi `mm-link` substitute).
//!
//! Reads a trace (mahimahi text, or a named
//! built-in scenario), then forwards UDP between a sender and a receiver
//! while releasing data packets at the trace's delivery opportunities.
//!
//! ```bash
//! verus-emulate --to <receiver-addr> [options]
//!   --trace <file>        mahimahi trace file (.mahi/.txt)
//!   --scenario <name>     campus|pedestrian|city|driving|highway|mall|waterfront
//!   --operator <name>     etisalat3g|du3g|etisalatlte|dulte   (default etisalat3g)
//!   --rtt <ms>            base RTT split across both directions (default 40)
//!   --loss <prob>         stochastic data-path loss             (default 0)
//!   --buffer <bytes>      DropTail buffer                       (default 1 MiB)
//!   --seed <u64>          RNG seed                              (default 0)
//! ```
//!
//! Prints the ingress address to stdout; point `verus-send` at it.

use std::net::SocketAddr;
use verus_cellular::{OperatorModel, Scenario, Trace};
use verus_nettypes::SimDuration;
use verus_transport::{Emulator, EmulatorConfig, WallClock};

fn usage() -> ! {
    eprintln!(
        "usage: verus-emulate --to <receiver-addr> (--trace <file> | --scenario <name>) \
         [--operator O] [--rtt MS] [--loss P] [--buffer BYTES] [--seed N]"
    );
    std::process::exit(2);
}

fn scenario_by_name(name: &str) -> Option<Scenario> {
    Some(match name {
        "campus" => Scenario::CampusStationary,
        "pedestrian" => Scenario::CampusPedestrian,
        "city" => Scenario::CityStationary,
        "driving" => Scenario::CityDriving,
        "highway" => Scenario::HighwayDriving,
        "mall" => Scenario::ShoppingMall,
        "waterfront" => Scenario::CityWaterfront,
        _ => return None,
    })
}

fn operator_by_name(name: &str) -> Option<OperatorModel> {
    Some(match name {
        "etisalat3g" => OperatorModel::Etisalat3G,
        "du3g" => OperatorModel::Du3G,
        "etisalatlte" => OperatorModel::EtisalatLte,
        "dulte" => OperatorModel::DuLte,
        _ => return None,
    })
}

fn load_trace_file(path: &str) -> Result<Trace, String> {
    let f = std::fs::File::open(path).map_err(|e| e.to_string())?;
    Trace::load_mahimahi(path.to_string(), f).map_err(|e| e.to_string())
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let mut to: Option<SocketAddr> = None;
    let mut trace: Option<Trace> = None;
    let mut scenario: Option<Scenario> = None;
    let mut operator = OperatorModel::Etisalat3G;
    let mut rtt_ms = 40u64;
    let mut loss = 0.0f64;
    let mut buffer = 1u64 << 20;
    let mut seed = 0u64;

    while let Some(flag) = argv.next() {
        let mut value = || argv.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--to" => {
                to = Some(value().parse().unwrap_or_else(|e| {
                    eprintln!("invalid --to address: {e}");
                    std::process::exit(2);
                }));
            }
            "--trace" => match load_trace_file(&value()) {
                Ok(t) => trace = Some(t),
                Err(e) => {
                    eprintln!("could not load trace: {e}");
                    std::process::exit(1);
                }
            },
            "--scenario" => {
                scenario = Some(scenario_by_name(&value()).unwrap_or_else(|| usage()))
            }
            "--operator" => {
                operator = operator_by_name(&value()).unwrap_or_else(|| usage())
            }
            "--rtt" => rtt_ms = value().parse().unwrap_or_else(|_| usage()),
            "--loss" => loss = value().parse().unwrap_or_else(|_| usage()),
            "--buffer" => buffer = value().parse().unwrap_or_else(|_| usage()),
            "--seed" => seed = value().parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    let Some(to) = to else { usage() };
    let trace = match (trace, scenario) {
        (Some(t), _) => t,
        (None, Some(s)) => s
            .generate_trace(operator, SimDuration::from_secs(300), seed)
            .unwrap_or_else(|e| {
                eprintln!("trace generation failed: {e}");
                std::process::exit(1);
            }),
        (None, None) => usage(),
    };
    eprintln!(
        "emulating {} ({:.2} Mbit/s mean, looped) → {to}",
        trace.name,
        trace.mean_rate_bps() / 1e6
    );

    let rtt = SimDuration::from_millis(rtt_ms);
    let config = EmulatorConfig {
        fwd_delay: rtt / 2,
        ack_delay: rtt - rtt / 2,
        loss,
        queue_capacity: buffer,
        seed,
        ..EmulatorConfig::new(trace, to)
    };
    let emulator = Emulator::spawn(config, WallClock::new()).unwrap_or_else(|e| {
        eprintln!("emulator failed to start: {e}");
        std::process::exit(1);
    });
    // The one line a script needs to wire up a sender.
    println!("{}", emulator.ingress_addr());
    eprintln!("ingress: {} (ctrl-c to stop)", emulator.ingress_addr());
    loop {
        std::thread::sleep(std::time::Duration::from_secs(5));
        eprintln!(
            "forwarded {} packets, dropped {}",
            emulator.forwarded(),
            emulator.dropped()
        );
    }
}
