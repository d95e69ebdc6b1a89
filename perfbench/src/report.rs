//! Turns rounds into metrics, checks, and the JSON result line.

use std::collections::HashMap;

use crate::serve::{self, Round};
use crate::sim::CellRun;
use crate::stats::{median, ratio, round_latency, MIN_BEYOND};

/// End-to-end metrics, printed by untraced runs: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("mops_per_s", "Mop/s"),
    ("setup_s", "s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
];

/// Per-layer metrics, printed by traced runs: `(name, unit)`. A workload
/// that bypasses a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 27] = [
    ("core.share", "frac"),
    ("core.inferences", "count"),
    ("core.accept_ratio", "frac"),
    ("core.trains", "count"),
    ("core.useful_ratio", "frac"),
    ("core.score_us_per_req", "us"),
    ("prefetch.share", "frac"),
    ("prefetch.calls", "count"),
    ("prefetch.cands_per_call", "count"),
    ("sim.share", "frac"),
    ("sim.ticks", "count"),
    ("sim.skip_ratio", "frac"),
    ("trace.share", "frac"),
    ("trace.records", "count"),
    ("serve.ckpt.records", "count"),
    ("serve.ckpt.share", "frac"),
    ("serve.ckpt.req_p50_us", "us"),
    ("serve.ckpt.append_us", "us"),
    ("serve.ckpt.barrier_us", "us"),
    ("serve.ckpt.load_s", "s"),
    ("serve.plain.req_p50_us", "us"),
    ("serve.handoff_us", "us"),
    ("serve.degraded", "count"),
    ("serve.shed", "count"),
    ("serve.deadline_misses", "count"),
    ("traced.mops_per_s", "Mop/s"),
    ("trace.overhead_frac", "frac"),
];

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted: simulation cells, or score requests.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metrics, in table order.
    pub metrics: Vec<Metric>,
    /// `#` lines describing the run.
    pub notes: Vec<String>,
}

impl Outcome {
    fn new(
        table: &[(&'static str, &'static str)],
        values: &HashMap<&str, f64>,
        correct: bool,
        attempted: u64,
        failed: u64,
        notes: Vec<String>,
    ) -> Self {
        let metrics = table
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: values.get(name).copied().unwrap_or(0.0),
            })
            .collect();
        Self {
            correct,
            attempted,
            failed,
            metrics,
            notes,
        }
    }

    /// The result line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// Peak resident set size of this process, in MB (0 where unavailable).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reports p50/p99 as medians over rounds of each round's percentiles, so
/// the numbers neither depend on how many rounds fit in the run nor make
/// memory grow with it, and notes the sample counts behind them.
fn latency(
    values: &mut HashMap<&str, f64>,
    notes: &mut Vec<String>,
    what: &str,
    rounds: &[(f64, f64, usize)],
    per_round: usize,
) {
    let p50: Vec<f64> = rounds.iter().map(|r| r.0).collect();
    let p99: Vec<f64> = rounds.iter().map(|r| r.1).collect();
    values.insert("p50_us", median(&p50));
    values.insert("p99_us", median(&p99));
    let beyond = rounds.first().map_or(0, |r| r.2);
    let tail = if beyond >= MIN_BEYOND {
        ""
    } else {
        ", fewer than 10: an estimate"
    };
    notes.push(format!(
        "latency of one {what}: medians over {} rounds of each round's p50 and p99 of \
         {per_round} samples ({beyond} beyond p99{tail})",
        rounds.len()
    ));
    notes.push(spread("per-round p99_us", &p99));
}

/// Median of `untraced / traced - 1` over per-round rates: how much the
/// decorators slow the measured path.
fn overhead(
    values: &mut HashMap<&str, f64>,
    notes: &mut Vec<String>,
    plain: &[f64],
    traced: &[f64],
) {
    let (p, t) = (median(plain), median(traced));
    values.insert("traced.mops_per_s", t);
    values.insert("trace.overhead_frac", ratio(p, t) - 1.0);
    notes.push(format!(
        "tracing overhead: untraced {p:.4} Mop/s vs traced {t:.4} Mop/s over {} + {} rounds ({:+.1}%)",
        plain.len(),
        traced.len(),
        (ratio(p, t) - 1.0) * 100.0
    ));
}

/// `what: min .. median .. max over n`, then every per-round value in
/// run order, so drift within a run shows.
fn spread(what: &str, xs: &[f64]) -> String {
    let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let all: Vec<String> = xs.iter().map(|x| format!("{x:.4}")).collect();
    format!(
        "{what}: {lo:.6} .. {:.6} .. {hi:.6} over {}: {}",
        median(xs),
        xs.len(),
        all.join(" ")
    )
}

fn digest_note(notes: &mut Vec<String>, got: u64, expected: Option<u64>) -> bool {
    match expected {
        Some(e) if e != got => {
            notes.push(format!(
                "DIGEST MISMATCH: round digest {got:016x}, recorded {e:016x}"
            ));
            false
        }
        Some(_) => {
            notes.push(format!(
                "round digest {got:016x} matches the recorded default-seed value"
            ));
            true
        }
        None => {
            notes.push(format!(
                "round digest {got:016x} (no recorded value for this seed)"
            ));
            true
        }
    }
}

/// Metrics of a simulator run. `rounds[0]` is the warm-up.
pub fn sim_outcome(rounds: &[(bool, Vec<CellRun>)], trace: bool, expected: Option<u64>) -> Outcome {
    let mut notes = Vec::new();
    let reference: Vec<u64> = rounds[0].1.iter().map(|c| c.digest).collect();
    let first_ok = digest_note(&mut notes, crate::sim::round_digest(&rounds[0].1), expected);
    let mut attempted = 0;
    let mut failed = 0;
    for (_, cells) in rounds {
        for (cell, want) in cells.iter().zip(&reference) {
            attempted += 1;
            failed += u64::from(!first_ok || cell.digest != *want);
        }
    }
    if failed > 0 {
        notes.push(format!(
            "{failed} of {attempted} cells differ from the reference digests"
        ));
    }

    let rate = |cells: &[CellRun]| {
        let instr: u64 = cells.iter().map(|c| c.instructions).sum();
        let ns: u64 = cells.iter().map(|c| c.run_ns).sum();
        ratio(instr as f64 * 1e3, ns as f64)
    };
    let measured = &rounds[1..];
    let plain: Vec<&Vec<CellRun>> = measured.iter().filter(|r| !r.0).map(|r| &r.1).collect();
    let traced: Vec<&Vec<CellRun>> = measured.iter().filter(|r| r.0).map(|r| &r.1).collect();
    let plain_rates: Vec<f64> = plain.iter().map(|c| rate(c)).collect();
    let mut v: HashMap<&str, f64> = HashMap::new();

    if !trace {
        v.insert("mops_per_s", median(&plain_rates));
        let setups: Vec<f64> = plain
            .iter()
            .map(|cells| cells.iter().map(|c| c.setup_ns as f64 / 1e9).sum())
            .collect();
        v.insert("setup_s", median(&setups));
        let cells: Vec<(f64, f64, usize)> = plain
            .iter()
            .map(|cells| {
                let us: Vec<f64> = cells.iter().map(|c| c.run_ns as f64 / 1e3).collect();
                round_latency(&us)
            })
            .collect();
        latency(
            &mut v,
            &mut notes,
            "simulation cell (Simulation::run)",
            &cells,
            reference.len(),
        );
        v.insert("peak_rss_mb", peak_rss_mb());
        v.insert("ok_frac", 1.0 - ratio(failed as f64, attempted as f64));
        notes.push(format!(
            "{} measured rounds of {} cells; mops_per_s and setup_s are per-round medians",
            plain.len(),
            reference.len()
        ));
        notes.push(spread("per-round Mop/s", &plain_rates));
        return Outcome::new(&END_TO_END, &v, failed == 0, attempted, failed, notes);
    }

    // Shares are pooled over every traced round; counts are exact per round.
    let sum = |f: &dyn Fn(&CellRun) -> u64| -> f64 {
        traced
            .iter()
            .flat_map(|cells| cells.iter().map(f))
            .sum::<u64>() as f64
    };
    let run = sum(&|c| c.run_ns);
    let trace_ns = sum(&|c| c.layers.trace_ns.get());
    let hook = sum(&|c| c.layers.hook_ns.get());
    let source = sum(&|c| c.layers.source_ns.get());
    v.insert("trace.share", ratio(trace_ns, run));
    v.insert("prefetch.share", ratio(source, run));
    v.insert("core.share", ratio(hook - source, run));
    v.insert("sim.share", ratio(run - trace_ns - hook, run));

    let one = traced[0];
    let count = |f: &dyn Fn(&CellRun) -> u64| -> f64 { one.iter().map(f).sum::<u64>() as f64 };
    let filter = |f: &dyn Fn(&ppf_sim::FilterCounters) -> u64| -> f64 {
        one.iter().map(|c| f(&c.layers.filter.get())).sum::<u64>() as f64
    };
    v.insert("trace.records", count(&|c| c.layers.trace_records.get()));
    let calls = count(&|c| c.layers.source_calls.get());
    v.insert("prefetch.calls", calls);
    v.insert(
        "prefetch.cands_per_call",
        ratio(count(&|c| c.layers.source_cands.get()), calls),
    );
    v.insert("sim.ticks", count(&|c| c.cycles.ticks));
    v.insert(
        "sim.skip_ratio",
        ratio(
            count(&|c| c.cycles.skipped_cycles),
            count(&|c| c.cycles.total_cycles),
        ),
    );
    let inferences = filter(&|f| f.inferences);
    v.insert("core.inferences", inferences);
    v.insert(
        "core.accept_ratio",
        ratio(filter(&|f| f.accepted_l2 + f.accepted_llc), inferences),
    );
    v.insert(
        "core.trains",
        filter(&|f| f.positive_trains + f.negative_trains),
    );
    let pf = |f: &dyn Fn(&ppf_sim::PrefetchStats) -> u64| -> f64 {
        one.iter()
            .flat_map(|c| c.report.cores.iter().map(|k| f(&k.prefetch)))
            .sum::<u64>() as f64
    };
    v.insert(
        "core.useful_ratio",
        ratio(pf(&|p| p.useful_total()), pf(&|p| p.issued)),
    );

    let traced_rates: Vec<f64> = traced.iter().map(|c| rate(c)).collect();
    overhead(&mut v, &mut notes, &plain_rates, &traced_rates);
    notes.push("serve.* and core.score_us_per_req: layer bypassed by this workload (0)".into());
    Outcome::new(&PER_LAYER, &v, failed == 0, attempted, failed, notes)
}

/// Metrics of a serving run. `rounds[0]` is the warm-up.
pub fn serve_outcome(rounds: &[(bool, Round)], trace: bool, expected: Option<u64>) -> Outcome {
    let mut notes = Vec::new();
    let reference = rounds[0].1.digest;
    let first_ok = digest_note(&mut notes, reference, expected);
    let (mut attempted, mut failed, mut wrong_rounds) = (0u64, 0u64, 0u64);
    for (_, r) in rounds {
        let n = r.requests;
        attempted += n;
        let replay_ok = r.replay.as_ref().is_none_or(|p| p.digest == r.digest);
        let right = first_ok
            && r.warm_ok
            && replay_ok
            && r.digest == reference
            && r.warm_started == serve::TENANTS as u64;
        if right {
            // Slow replies come back degraded, so this covers deadline
            // misses and shed requests too.
            failed += r.degraded;
        } else {
            wrong_rounds += 1;
            failed += n;
        }
    }
    if wrong_rounds > 0 {
        notes.push(format!(
            "{wrong_rounds} rounds failed a digest check (warm start, replay, or reference)"
        ));
    }

    let rate = |r: &Round| ratio((r.requests * serve::BATCH as u64) as f64, r.latency_sum_us);
    let measured = &rounds[1..];
    let plain: Vec<&Round> = measured.iter().filter(|r| !r.0).map(|r| &r.1).collect();
    let traced: Vec<&Round> = measured.iter().filter(|r| r.0).map(|r| &r.1).collect();
    let plain_rates: Vec<f64> = plain.iter().map(|r| rate(r)).collect();
    let mut v: HashMap<&str, f64> = HashMap::new();

    if !trace {
        v.insert("mops_per_s", median(&plain_rates));
        let setups: Vec<f64> = plain.iter().map(|r| r.setup_s).collect();
        v.insert("setup_s", median(&setups));
        let lat: Vec<(f64, f64, usize)> = plain
            .iter()
            .map(|r| (r.p50_us, r.p99_us, r.p99_beyond))
            .collect();
        latency(
            &mut v,
            &mut notes,
            "score request (Daemon::score, closed loop)",
            &lat,
            serve::MEASURED,
        );
        v.insert("peak_rss_mb", peak_rss_mb());
        v.insert("ok_frac", 1.0 - ratio(failed as f64, attempted as f64));
        notes.push(format!(
            "{} measured rounds of {} requests x {} candidates, {} tenants, 1 shard, 1 caller",
            plain.len(),
            serve::MEASURED,
            serve::BATCH,
            serve::TENANTS
        ));
        notes.push(spread("per-round Mop/s", &plain_rates));
        notes.push(spread("per-round setup_s", &setups));
        return Outcome::new(&END_TO_END, &v, failed == 0, attempted, failed, notes);
    }

    let replays: Vec<&serve::Replay> = traced.iter().filter_map(|r| r.replay.as_ref()).collect();
    let pool = |f: &dyn Fn(&serve::Replay) -> &Vec<f64>| -> Vec<f64> {
        replays.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let (mut ckpt, mut plain_lat) = (Vec::new(), Vec::new());
    for r in &traced {
        for (&us, &is_ckpt) in r.latency_us.iter().zip(&r.ckpt_call) {
            if is_ckpt { &mut ckpt } else { &mut plain_lat }.push(us);
        }
    }
    let wall_us: f64 = traced.iter().map(|r| r.wall_s * 1e6).sum();
    let lat_us: f64 = traced.iter().map(|r| r.latency_sum_us).sum();
    let score_us = median(&pool(&|r| &r.process_us));
    let plain_p50 = median(&plain_lat);
    v.insert("serve.ckpt.records", traced[0].ckpt_records as f64);
    v.insert("serve.ckpt.share", ratio(ckpt.iter().sum(), wall_us));
    v.insert("serve.ckpt.req_p50_us", median(&ckpt));
    v.insert("serve.ckpt.append_us", median(&pool(&|r| &r.append_us)));
    v.insert("serve.ckpt.barrier_us", median(&pool(&|r| &r.barrier_us)));
    v.insert(
        "serve.ckpt.load_s",
        median(&replays.iter().map(|r| r.load_s).collect::<Vec<_>>()),
    );
    v.insert("serve.plain.req_p50_us", plain_p50);
    v.insert("core.score_us_per_req", score_us);
    v.insert("serve.handoff_us", plain_p50 - score_us);
    v.insert(
        "core.share",
        ratio(pool(&|r| &r.process_us).iter().sum(), lat_us),
    );
    let f = &replays[0].filter;
    v.insert("core.inferences", f.inferences as f64);
    v.insert(
        "core.accept_ratio",
        ratio((f.accepted_l2 + f.accepted_llc) as f64, f.inferences as f64),
    );
    v.insert(
        "core.trains",
        (f.positive_trains + f.negative_trains) as f64,
    );
    let all = || rounds.iter().map(|r| &r.1);
    v.insert(
        "serve.degraded",
        all().map(|r| r.degraded).sum::<u64>() as f64,
    );
    v.insert("serve.shed", all().map(|r| r.shed).sum::<u64>() as f64);
    v.insert(
        "serve.deadline_misses",
        all().map(|r| r.deadline_misses).sum::<u64>() as f64,
    );
    notes.push(format!(
        "{} of {} traced requests waited on a checkpoint append",
        ckpt.len(),
        ckpt.len() + plain_lat.len()
    ));
    let traced_rates: Vec<f64> = traced.iter().map(|r| rate(r)).collect();
    overhead(&mut v, &mut notes, &plain_rates, &traced_rates);
    notes.push(
        "sim.*, trace.*, prefetch.*, core.useful_ratio: layer bypassed by this workload (0)".into(),
    );
    Outcome::new(&PER_LAYER, &v, failed == 0, attempted, failed, notes)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The host a run was made on: git revision (when run from a git
/// checkout), CPU model, available parallelism, rustc version, the SIMD
/// level the filter dispatch resolved to, and the `PPF_*` variables removed.
pub fn host_json(scrubbed: &[String]) -> String {
    let rev = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "--short=12", "HEAD"])
    } else {
        None
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo").ok().and_then(|s| {
        s.lines()
            .find_map(|l| l.strip_prefix("model name"))
            .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
    });
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = command_line("rustc", &["--version"]);
    let unknown = || "unknown".to_string();
    let scrubbed: Vec<String> = scrubbed.iter().map(|s| json_str(s)).collect();
    format!(
        "{{\"git_rev\": {}, \"cpu\": {}, \"nproc\": {nproc}, \"rustc\": {}, \"simd\": \"{:?}\", \
         \"unset_env\": [{}]}}",
        json_str(&rev.unwrap_or_else(unknown)),
        json_str(&cpu.unwrap_or_else(unknown)),
        json_str(&rustc.unwrap_or_else(unknown)),
        ppf_sim::simd::active_level(),
        scrubbed.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim;

    fn sim_rounds() -> Vec<(bool, Vec<CellRun>)> {
        let cells = &sim::plan(5)[..2];
        (0..3)
            .map(|i| {
                let traced = i == 1;
                let runs = cells
                    .iter()
                    .map(|c| sim::run_cell(c, traced, (2_000, 10_000)))
                    .collect();
                (traced, runs)
            })
            .collect()
    }

    #[test]
    fn perturbed_statistic_fails_the_sim_check() {
        let mut rounds = sim_rounds();
        let expected = sim::round_digest(&rounds[0].1);
        for trace in [false, true] {
            let o = sim_outcome(&rounds, trace, Some(expected));
            assert!(
                o.correct && o.failed == 0 && o.attempted == 6,
                "{:?}",
                o.notes
            );
        }
        // A recorded value that the run does not reproduce fails every cell.
        let o = sim_outcome(&rounds, false, Some(expected ^ 1));
        assert!(!o.correct);
        assert_eq!(o.failed, 6);
        // One statistic off by one in one cell of a later round fails that cell.
        let cell = &mut rounds[2].1[1];
        cell.report.cores[0].prefetch.issued += 1;
        cell.digest = sim::digest(&cell.report, &cell.layers.filter.get());
        let o = sim_outcome(&rounds, false, Some(expected));
        assert!(!o.correct);
        assert_eq!(o.failed, 1);
        assert_eq!(
            o.metrics
                .iter()
                .find(|m| m.name == "ok_frac")
                .unwrap()
                .value,
            5.0 / 6.0
        );
    }

    fn serve_round(digest: u64, degraded: u64) -> Round {
        Round {
            requests: 4,
            latency_sum_us: 4060.0,
            p50_us: 20.0,
            p99_us: 4000.0,
            wall_s: 1e-3,
            degraded,
            warm_started: serve::TENANTS as u64,
            warm_ok: true,
            digest,
            ..Round::default()
        }
    }

    #[test]
    fn serve_check_counts_degraded_replies_and_wrong_rounds() {
        let rounds: Vec<(bool, Round)> = (0..3)
            .map(|i| (false, serve_round(7, u64::from(i == 2))))
            .collect();
        let o = serve_outcome(&rounds, false, Some(7));
        assert_eq!((o.attempted, o.failed, o.correct), (12, 1, false));
        let mut rounds: Vec<(bool, Round)> = (0..3).map(|_| (false, serve_round(7, 0))).collect();
        assert!(serve_outcome(&rounds, false, Some(7)).correct);
        assert_eq!(serve_outcome(&rounds, false, Some(8)).failed, 12);
        rounds[1].1.warm_ok = false;
        assert_eq!(serve_outcome(&rounds, false, None).failed, 4);
        rounds[1].1.warm_ok = true;
        rounds[2].1.digest = 9;
        assert_eq!(serve_outcome(&rounds, false, None).failed, 4);
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("\"unit\":").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists other metrics"
        );
    }

    #[test]
    fn result_line_has_every_metric_with_its_unit() {
        let mut v = HashMap::new();
        v.insert("mops_per_s", 12.5);
        let o = Outcome::new(&END_TO_END, &v, true, 3, 0, Vec::new());
        let json = o.to_json();
        assert!(
            json.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(json.contains("\"mops_per_s\": {\"value\": 12.5, \"unit\": \"Mop/s\"}"));
        assert!(json.contains("\"ok_frac\": {\"value\": 0.0, \"unit\": \"frac\"}"));
        assert_eq!(o.metrics.len(), END_TO_END.len());
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
