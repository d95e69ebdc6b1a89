//! One command for every end-to-end and per-layer number of the PPF
//! reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sim-1c-ppf|serve-ckpt> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. `--trace 0` reports the end-to-end
//! metrics from untraced rounds; `--trace 1` alternates traced and
//! untraced rounds and reports the per-layer metrics plus the tracing
//! overhead. Lines starting with `#` describe the run; the last line of
//! standard output is the JSON result. See `perfbench/README.md`.

mod report;
mod serve;
mod sim;
mod stats;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use report::Outcome;

/// The seed whose round digests are recorded in [`expected_digest`].
pub const DEFAULT_SEED: u64 = 1;

/// Round digests on [`DEFAULT_SEED`]. A change that deliberately alters
/// simulated or served behaviour records the new values here.
fn expected_digest(workload: Workload) -> u64 {
    match workload {
        Workload::Sim => 0x30ce_d574_b132_3d35,
        Workload::Serve => 0x98db_9da8_e1ae_7016,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Sim,
    Serve,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "sim-1c-ppf" => Some(Self::Sim),
            "serve-ckpt" => Some(Self::Serve),
            _ => None,
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <sim-1c-ppf|serve-ckpt> \
                     [--seed <n>] [--seconds <1..=120>] [--trace <0|1>]";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| bad("expected an unsigned integer"))?
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=120).contains(s))
                    .ok_or_else(|| bad("expected 1..=120"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Removes every `PPF_*` variable, so a stray shell setting (cycle-skip
/// off, profiling, telemetry, invariant checks, batch window, SIMD
/// dispatch, hybrid wrapping, fault injection, thread count) cannot change
/// what is timed. Returns the names removed.
fn scrub_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("PPF_"))
        .collect();
    for k in &names {
        std::env::remove_var(k);
    }
    names
}

/// Which rounds a run makes: round 0 is an untimed warm-up in the other
/// configuration (a cross-check that tracing does not change results);
/// measured rounds are all untraced, or alternate traced and untraced.
#[derive(Debug, Clone, Copy)]
struct Schedule {
    trace: bool,
    seconds: Duration,
}

impl Schedule {
    /// Whether round `i` is traced.
    fn traced(&self, i: usize) -> bool {
        match (i, self.trace) {
            (0, t) => !t,
            (_, false) => false,
            (i, true) => i % 2 == 1,
        }
    }

    /// Whether another round should start, given the measured time so far
    /// and the rounds made. Traced runs end on a whole traced/untraced pair.
    fn more(&self, measured: Duration, rounds: usize) -> bool {
        if rounds < 2 || (self.trace && rounds < 3) {
            return true;
        }
        measured < self.seconds || (self.trace && rounds.is_multiple_of(2))
    }
}

fn run_sim(args: &Args, sched: Schedule) -> Outcome {
    let cells = sim::plan(args.seed);
    let mut rounds: Vec<(bool, Vec<sim::CellRun>)> = Vec::new();
    let mut measured = Duration::ZERO;
    while sched.more(measured, rounds.len()) {
        let traced = sched.traced(rounds.len());
        let t = Instant::now();
        let runs = cells
            .iter()
            .map(|c| sim::run_cell(c, traced, sim::BUDGET))
            .collect();
        if !rounds.is_empty() {
            measured += t.elapsed();
        }
        rounds.push((traced, runs));
    }
    for (cell, run) in cells.iter().zip(&rounds[0].1) {
        println!("# cell {} digest {:016x}", cell.workload.name(), run.digest);
    }
    report::sim_outcome(&rounds, args.trace, check(Workload::Sim, args.seed))
}

fn run_serve(args: &Args, sched: Schedule) -> Result<Outcome, String> {
    let stream = serve::stream(args.seed, serve::PREFIX, serve::MEASURED);
    let root = PathBuf::from(".perfbench-tmp");
    let mut rounds: Vec<(bool, serve::Round)> = Vec::new();
    let mut measured = Duration::ZERO;
    while sched.more(measured, rounds.len()) {
        let traced = sched.traced(rounds.len());
        let dir = root.join(format!("serve-{}-{}", std::process::id(), rounds.len()));
        let t = Instant::now();
        let round = serve::round(&stream, &dir, traced).map_err(|e| format!("serve round: {e}"))?;
        if !rounds.is_empty() {
            measured += t.elapsed();
        }
        rounds.push((traced, round));
    }
    // Only removes the root when no other run is using it.
    let _ = std::fs::remove_dir(&root);
    Ok(report::serve_outcome(
        &rounds,
        args.trace,
        check(Workload::Serve, args.seed),
    ))
}

/// The digest round 0 must reproduce, when the seed has one recorded.
fn check(workload: Workload, seed: u64) -> Option<u64> {
    (seed == DEFAULT_SEED).then(|| expected_digest(workload))
}

fn main() {
    let scrubbed = scrub_env();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let sched = Schedule {
        trace: args.trace,
        seconds: Duration::from_secs(args.seconds),
    };
    let outcome = match args.workload {
        Workload::Sim => Ok(run_sim(&args, sched)),
        Workload::Serve => run_serve(&args, sched),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    println!("# host {}", report::host_json(&scrubbed));
    for note in &outcome.notes {
        println!("# {note}");
    }
    println!("{}", outcome.to_json());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload serve-ckpt --seed 9 --seconds 30 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::Serve);
        assert_eq!((a.seed, a.seconds, a.trace), (9, 30, true));
        let a = args("--workload sim-1c-ppf").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (DEFAULT_SEED, 10, false));
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "",
            "--workload nope",
            "--workload sim-1c-ppf --trace 2",
            "--workload sim-1c-ppf --seconds 0",
            "--workload sim-1c-ppf --seed -1",
            "--workload sim-1c-ppf --seed",
            "--workload sim-1c-ppf --bogus 1",
        ] {
            assert!(args(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn schedule_warms_up_in_the_other_configuration() {
        let s = Schedule {
            trace: false,
            seconds: Duration::from_secs(1),
        };
        assert!(s.traced(0));
        assert!(!s.traced(1) && !s.traced(2));
        let s = Schedule { trace: true, ..s };
        assert!(!s.traced(0));
        assert!(s.traced(1) && !s.traced(2) && s.traced(3));
        // Traced runs stop only after a whole pair.
        let long = Duration::from_secs(5);
        assert!(s.more(long, 2));
        assert!(!s.more(long, 3));
        assert!(s.more(long, 4));
        let s = Schedule { trace: false, ..s };
        assert!(!s.more(long, 2));
        assert!(s.more(Duration::ZERO, 5));
    }
}
