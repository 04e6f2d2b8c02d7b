//! Base-station style multi-terminal run: N terminal sessions
//! (alternating W-CDMA rake and 802.11a OFDM) arriving as a Poisson
//! process and driven through the engine's session front-end —
//! every waiting terminal is parked as a ~40-byte record and only a
//! bounded window is ever materialised over the worker shards.
//!
//! Every OFDM terminal runs the paper's Fig. 10 configurations (detector
//! 2a, then demodulator 2b) and every W-CDMA terminal its rake finger (the
//! Fig. 5 descrambler streaming into the Fig. 6 despreader in one
//! configuration). Configurations stay resident until placement pressure
//! evicts one — the Fig. 10 recycling; the three fit one array side by
//! side — so the final metrics show a few loads and cache hits for
//! everything else, and one `kernels` line each; the `frontend` metrics
//! line shows the parking lot working.
//!
//! Usage:
//! `cargo run --release --example basestation [--sessions N] [--shards M]
//!  [--arrays-per-shard K] [--arrival-rate R] [--lockstep]`
//! where `R` is mean terminal arrivals per second at the 50 MHz modeled
//! array clock (defaults: 64 sessions, 4 shards, 1 array per shard,
//! 4000/s). Bare positional arguments `[sessions] [shards]
//! [arrays-per-shard]` are still accepted.
//!
//! What repeats from run to run: session outcomes and the admission
//! model's slack and shed figures always (the last three lines of output);
//! the live dispatch counters — loads, evictions, the router line —
//! follow which shard's thread got to run when, and differ. `--lockstep`
//! runs the same placement with the shards stepped on this
//! thread in virtual-clock order instead (`Frontend::lockstep`), and then
//! the whole output is byte-identical across runs.

use std::sync::Arc;

use xpp_sdr::dsp::rng::Rng64;
use xpp_sdr::engine::frontend::Frontend;
use xpp_sdr::engine::{EngineConfig, Metrics, ParkedSession, Session};

/// Modeled array clock used to convert `--arrival-rate` (terminals/s)
/// into array-cycle interarrivals (BENCH_ARRAY.json's convention).
const ARRAY_CLOCK_HZ: f64 = 50.0e6;

/// Most terminals one run admits. The parking lot preallocates one parked
/// record (at most 48 bytes) per terminal, so this bounds that allocation
/// to about 800 MB.
const MAX_SESSIONS: u64 = 1 << 24;

/// Most shards one run spawns: each is an OS thread, and a host refuses
/// threads long before `usize::MAX` (16,384 failed to spawn where 4,096
/// ran).
const MAX_SHARDS: u64 = 1 << 10;

/// Most arrays in one shard's gang; each shard allocates its gang up
/// front.
const MAX_ARRAYS_PER_SHARD: u64 = 64;

struct Args {
    sessions: u64,
    shards: usize,
    arrays_per_shard: usize,
    /// Mean arrivals per second at the modeled array clock.
    arrival_rate: f64,
    /// Step the shards on the main thread in virtual-clock order rather
    /// than on their own threads: every counter of the metrics block (not
    /// just the session outcomes and slack/shed figures, which repeat
    /// either way) is then identical across runs.
    lockstep: bool,
}

const USAGE: &str = "usage: basestation [--sessions N] [--shards M] [--arrays-per-shard K] \
                     [--arrival-rate R] [--lockstep]";

/// Why the command line was rejected.
#[derive(Debug)]
enum ArgError {
    MissingValue(String),
    NotANumber {
        what: String,
        value: String,
    },
    /// A count that must be at least 1 (the pool cannot be built without
    /// a shard, or a shard without an array).
    Zero(&'static str),
    /// `--arrival-rate` must be a positive, finite rate.
    BadRate(f64),
    /// A count past its bound (`MAX_SESSIONS`, `MAX_SHARDS`,
    /// `MAX_ARRAYS_PER_SHARD`).
    TooLarge {
        what: &'static str,
        max: u64,
        value: u64,
    },
    Unexpected(String),
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            ArgError::NotANumber { what, value } => {
                write!(f, "{what} must be a number, got {value:?}")
            }
            ArgError::Zero(what) => write!(f, "{what} must be at least 1"),
            ArgError::TooLarge { what, max, value } => {
                write!(f, "{what} must be at most {max}, got {value}")
            }
            ArgError::BadRate(rate) => {
                write!(f, "--arrival-rate must be positive and finite, got {rate}")
            }
            ArgError::Unexpected(arg) => write!(f, "unexpected argument: {arg}"),
        }
    }
}

fn number<T: std::str::FromStr>(what: &str, value: &str) -> Result<T, ArgError> {
    value.parse().map_err(|_| ArgError::NotANumber {
        what: what.to_string(),
        value: value.to_string(),
    })
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, ArgError> {
    let mut args = Args {
        sessions: 64,
        shards: 4,
        arrays_per_shard: 1,
        arrival_rate: 4000.0,
        lockstep: false,
    };
    let mut positional = 0usize;
    let mut it = argv;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--lockstep" => args.lockstep = true,
            flag @ ("--sessions" | "--shards" | "--arrays-per-shard" | "--arrival-rate") => {
                let v = it
                    .next()
                    .ok_or_else(|| ArgError::MissingValue(flag.to_string()))?;
                match flag {
                    "--sessions" => args.sessions = number(flag, &v)?,
                    "--shards" => args.shards = number(flag, &v)?,
                    "--arrays-per-shard" => args.arrays_per_shard = number(flag, &v)?,
                    _ => args.arrival_rate = number(flag, &v)?,
                }
            }
            flag if flag.starts_with("--") => return Err(ArgError::Unexpected(arg)),
            // Legacy positional form: sessions shards arrays-per-shard.
            value => {
                match positional {
                    0 => args.sessions = number("sessions", value)?,
                    1 => args.shards = number("shards", value)?,
                    2 => args.arrays_per_shard = number("arrays-per-shard", value)?,
                    _ => return Err(ArgError::Unexpected(arg)),
                }
                positional += 1;
            }
        }
    }
    if args.shards == 0 {
        return Err(ArgError::Zero("shards"));
    }
    if args.arrays_per_shard == 0 {
        return Err(ArgError::Zero("arrays-per-shard"));
    }
    for (what, max, value) in [
        ("sessions", MAX_SESSIONS, args.sessions),
        ("shards", MAX_SHARDS, args.shards as u64),
        (
            "arrays-per-shard",
            MAX_ARRAYS_PER_SHARD,
            args.arrays_per_shard as u64,
        ),
    ] {
        if value > max {
            return Err(ArgError::TooLarge { what, max, value });
        }
    }
    if !(args.arrival_rate.is_finite() && args.arrival_rate > 0.0) {
        return Err(ArgError::BadRate(args.arrival_rate));
    }
    Ok(args)
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("basestation: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let mean_interarrival = ARRAY_CLOCK_HZ / args.arrival_rate;
    println!(
        "basestation: {} terminal sessions over {} shards x {} arrays, \
         Poisson arrivals at {}/s ({:.0} cycles mean interarrival)",
        args.sessions, args.shards, args.arrays_per_shard, args.arrival_rate, mean_interarrival
    );

    let config = EngineConfig {
        shards: args.shards,
        arrays_per_shard: args.arrays_per_shard,
        parking_capacity: args.sessions as usize,
        ..EngineConfig::default()
    };
    let mut fe = if args.lockstep {
        Frontend::lockstep(config, Arc::new(Metrics::new()))
    } else {
        Frontend::new(config)
    };

    // Admit every terminal up front as a compact parked record; the
    // front-end materialises them in deadline order as capacity frees.
    let mut rng = Rng64::seed_from_u64(0xBA5E);
    let mut arrival = 0u64;
    for id in 0..args.sessions {
        let u = rng.next_f64().max(1e-12);
        // A rate so low that arrivals pass the end of the modeled clock
        // saturates there instead of wrapping.
        arrival = arrival.saturating_add((-mean_interarrival * u.ln()).ceil() as u64);
        let record = if id % 2 == 0 {
            ParkedSession::new_wcdma(id, 0xB5E + id, arrival)
        } else {
            ParkedSession::new_ofdm(id, 0x0FD + id, arrival)
        };
        fe.admit(record);
    }

    let summary = fe.run(&mut |_: &Session, _| None);

    println!("{}", summary.snapshot);
    println!(
        "router: affinity hit rate {:.1}% ({} hits / {} fallbacks)",
        100.0 * summary.snapshot.affinity_hit_rate(),
        summary.snapshot.router_affinity_hits,
        summary.snapshot.router_fallbacks
    );
    println!(
        "peak resident {} sessions ({} peak parked, materialisation window {})",
        summary.peak_resident,
        summary.peak_parked,
        fe.window()
    );
    match summary.p99_slack() {
        Some(slack) => println!(
            "p99 deadline slack {slack} cycles (min {}), shed rate {:.1}%",
            summary.min_slack().unwrap_or(slack),
            100.0 * summary.shed_rate()
        ),
        None => println!("p99 deadline slack n/a (no frames admitted)"),
    }
    println!(
        "done {}  failed {}  shed {}  dead-lettered {}",
        summary.done,
        summary.failed,
        summary.shed.len(),
        summary.dead_lettered
    );
    if summary.failed > 0 || summary.dead_lettered > 0 {
        std::process::exit(1);
    }
}
