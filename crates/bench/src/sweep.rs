//! Checkpointed, resumable experiment sweeps.
//!
//! [`Sweep`] is the driver every `fig*`/`ablation*` binary runs its job grid
//! through. It layers three things on top of the fault-isolating
//! [`runner`](crate::runner):
//!
//! 1. **Incremental checkpoints.** Each completed job appends one JSONL
//!    record to `results/checkpoints/<experiment>.jsonl` (override the
//!    directory with `PPF_CHECKPOINT_DIR`). Records are schema-versioned
//!    (`"v":1`) like the throughput log and keyed by the job label, e.g.
//!    `619.lbm_s/PPF` or `isolated/470.lbm`.
//! 2. **`--resume`.** A rerun with `--resume` loads the checkpoint file,
//!    skips every job whose key decodes cleanly, and re-runs the rest. All
//!    numeric payloads round-trip through `f64::to_bits` hex, so a resumed
//!    sweep's final output is byte-identical to an uninterrupted run.
//! 3. **Fault injection.** `PPF_FAULT_INJECT=panic:<substr>` (or
//!    `hang:<substr>`) sabotages the first pending job whose label contains
//!    the substring — the test hook behind `scripts/verify.sh --faults`.
//!
//! Failed jobs are *not* checkpointed, so `--resume` retries them. The
//! sweep summary ([`SweepOutcome::report`]) goes to stderr; experiment
//! stdout stays byte-identical to the pre-checkpoint harness on clean runs.

use crate::ckpt;
use crate::fault::FaultSpec;
use crate::runner::{self, lock_unpoisoned, BoxedJob, JobError, Outcome};
use ppf_sim::{CacheStats, CoreReport, DramStats, PrefetchStats, SimReport};
use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Checkpoint record schema version (bump on incompatible format changes;
/// old-version records are ignored on resume, so the jobs simply re-run).
/// v2 added the CRC seal ([`ckpt::seal`]) on every record.
pub const CHECKPOINT_SCHEMA_VERSION: u32 = 2;

/// A value that can round-trip through a checkpoint record.
///
/// Encodings must be *bit-exact* (floats go through [`f64::to_bits`]) and
/// must not contain `"` or `\` — the record line is spliced as a JSON
/// string without an escaper.
pub trait Checkpoint: Sized {
    /// Serializes the value into a checkpoint payload.
    fn encode(&self) -> String;
    /// Parses a payload back; `None` means "corrupt, re-run the job".
    fn decode(s: &str) -> Option<Self>;
}

fn enc_f64(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn dec_f64(s: &str) -> Option<f64> {
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

impl Checkpoint for f64 {
    fn encode(&self) -> String {
        enc_f64(*self)
    }

    fn decode(s: &str) -> Option<Self> {
        dec_f64(s)
    }
}

impl Checkpoint for Vec<f64> {
    fn encode(&self) -> String {
        self.iter().map(|v| enc_f64(*v)).collect::<Vec<_>>().join(",")
    }

    fn decode(s: &str) -> Option<Self> {
        if s.is_empty() {
            return Some(Vec::new());
        }
        s.split(',').map(dec_f64).collect()
    }
}

fn dec_u64s<const N: usize>(s: &str) -> Option<[u64; N]> {
    let mut out = [0u64; N];
    let mut parts = s.split(',');
    for slot in &mut out {
        *slot = parts.next()?.parse().ok()?;
    }
    if parts.next().is_some() {
        return None;
    }
    Some(out)
}

impl Checkpoint for CacheStats {
    fn encode(&self) -> String {
        format!(
            "{},{},{},{},{},{}",
            self.demand_accesses,
            self.demand_hits,
            self.demand_fills,
            self.prefetch_fills,
            self.useful_prefetches,
            self.useless_prefetches
        )
    }

    fn decode(s: &str) -> Option<Self> {
        let [a, h, df, pf, us, ul] = dec_u64s::<6>(s)?;
        Some(CacheStats {
            demand_accesses: a,
            demand_hits: h,
            demand_fills: df,
            prefetch_fills: pf,
            useful_prefetches: us,
            useless_prefetches: ul,
        })
    }
}

impl Checkpoint for PrefetchStats {
    fn encode(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{}",
            self.emitted,
            self.issued,
            self.dropped_redundant,
            self.dropped_mshr,
            self.dropped_queue,
            self.useful,
            self.late,
            self.late_wait_cycles
        )
    }

    fn decode(s: &str) -> Option<Self> {
        let [e, i, dr, dm, dq, u, l, lw] = dec_u64s::<8>(s)?;
        Some(PrefetchStats {
            emitted: e,
            issued: i,
            dropped_redundant: dr,
            dropped_mshr: dm,
            dropped_queue: dq,
            useful: u,
            late: l,
            late_wait_cycles: lw,
        })
    }
}

impl Checkpoint for DramStats {
    fn encode(&self) -> String {
        format!(
            "{},{},{},{},{}",
            self.reads, self.writes, self.row_hits, self.row_misses, self.bus_busy_cycles
        )
    }

    fn decode(s: &str) -> Option<Self> {
        let [r, w, rh, rm, bb] = dec_u64s::<5>(s)?;
        Some(DramStats {
            reads: r,
            writes: w,
            row_hits: rh,
            row_misses: rm,
            bus_busy_cycles: bb,
        })
    }
}

impl Checkpoint for CoreReport {
    fn encode(&self) -> String {
        format!(
            "{}|{}|{}|{}|{}|{}|{}|{}|{}",
            self.workload,
            self.instructions,
            self.cycles,
            self.l1d.encode(),
            self.l2.encode(),
            self.prefetch.encode(),
            self.load_miss_waits,
            self.load_miss_wait_cycles,
            self.ipc_samples.encode()
        )
    }

    fn decode(s: &str) -> Option<Self> {
        let mut p = s.split('|');
        let report = CoreReport {
            workload: p.next()?.to_string(),
            instructions: p.next()?.parse().ok()?,
            cycles: p.next()?.parse().ok()?,
            l1d: CacheStats::decode(p.next()?)?,
            l2: CacheStats::decode(p.next()?)?,
            prefetch: PrefetchStats::decode(p.next()?)?,
            load_miss_waits: p.next()?.parse().ok()?,
            load_miss_wait_cycles: p.next()?.parse().ok()?,
            ipc_samples: Vec::<f64>::decode(p.next()?)?,
        };
        if p.next().is_some() {
            return None;
        }
        Some(report)
    }
}

impl Checkpoint for SimReport {
    fn encode(&self) -> String {
        format!(
            "{}~{}~{}~{}",
            self.total_cycles,
            self.llc.encode(),
            self.dram.encode(),
            self.cores.iter().map(Checkpoint::encode).collect::<Vec<_>>().join("^")
        )
    }

    fn decode(s: &str) -> Option<Self> {
        let mut p = s.splitn(4, '~');
        let total_cycles = p.next()?.parse().ok()?;
        let llc = CacheStats::decode(p.next()?)?;
        let dram = DramStats::decode(p.next()?)?;
        let cores_field = p.next()?;
        let cores = if cores_field.is_empty() {
            Vec::new()
        } else {
            cores_field.split('^').map(CoreReport::decode).collect::<Option<Vec<_>>>()?
        };
        Some(SimReport { cores, llc, dram, total_cycles })
    }
}

/// Extracts a `"name":"value"` string field from a checkpoint line.
/// Payloads never contain `"`, so scanning to the next quote is exact.
fn json_str_field<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let tag = format!("\"{name}\":\"");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    Some(&rest[..rest.find('"')?])
}

fn format_record(experiment: &str, key: &str, wall: Duration, data: &str) -> String {
    debug_assert!(!experiment.contains(['"', '\\']) && !key.contains(['"', '\\']));
    let body = format!(
        "{{\"v\":{CHECKPOINT_SCHEMA_VERSION},\"experiment\":\"{experiment}\",\"key\":\"{key}\",\"wall_ms\":{},\"data\":\"{data}\"}}",
        wall.as_millis()
    );
    let mut line = ckpt::seal(&body);
    line.push('\n');
    line
}

/// A checkpointed, fault-isolated experiment sweep.
///
/// Construct one per experiment with [`Sweep::from_args`] (flags:
/// `--threads`, `--job-timeout`, `--resume`; env: `PPF_THREADS`,
/// `PPF_JOB_TIMEOUT`, `PPF_CHECKPOINT_DIR`, `PPF_FAULT_INJECT`) and push
/// each labelled job grid through [`Sweep::run`]. Experiments with several
/// grids (e.g. isolated IPCs then the mix grid) call `run` repeatedly on
/// the same `Sweep`; the checkpoint file is truncated once per process and
/// appended to afterwards.
#[derive(Debug)]
pub struct Sweep {
    experiment: String,
    threads: usize,
    timeout: Option<Duration>,
    resume: bool,
    dir: PathBuf,
    opened: AtomicBool,
    faults: Vec<FaultSpec>,
}

/// One job's bookkeeping inside [`Sweep::run`].
enum Slot<T> {
    /// Restored from a checkpoint record.
    Done(String, T),
    /// Must run this time.
    Pending(String),
}

impl Sweep {
    /// Builds a sweep from CLI flags and the environment (the normal
    /// entry point for experiment binaries).
    ///
    /// A malformed `PPF_FAULT_INJECT` spec exits with code 2 here, like a
    /// malformed `--threads` — a drill that would silently inject nothing
    /// is a configuration error, not a degraded run.
    pub fn from_args(experiment: &str) -> Self {
        let dir = std::env::var("PPF_CHECKPOINT_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("results/checkpoints"));
        let mut sweep = Self::new(
            experiment,
            runner::thread_count(),
            runner::job_timeout(),
            std::env::args().any(|a| a == "--resume"),
            dir,
        );
        sweep.faults = crate::fault::specs_from_env_or_exit();
        sweep
    }

    /// A sweep writing checkpoints under a unique temp directory, never
    /// resuming — for tests and throwaway runs that must not touch
    /// `results/checkpoints`.
    pub fn ephemeral(experiment: &str, threads: usize) -> Self {
        let dir = std::env::temp_dir()
            .join(format!("ppf_sweep_{experiment}_{}", std::process::id()));
        Self::new(experiment, threads, None, false, dir)
    }

    /// Fully explicit constructor (tests, embedding). Fault specs still
    /// come from `PPF_FAULT_INJECT`; in this library path a malformed spec
    /// is reported and ignored rather than fatal.
    pub fn new(
        experiment: &str,
        threads: usize,
        timeout: Option<Duration>,
        resume: bool,
        dir: impl Into<PathBuf>,
    ) -> Self {
        let faults = crate::fault::specs_from_env().unwrap_or_else(|msg| {
            eprintln!("warning: {msg}; ignoring fault injection");
            Vec::new()
        });
        Self {
            experiment: experiment.to_string(),
            threads,
            timeout,
            resume,
            dir: dir.into(),
            opened: AtomicBool::new(false),
            faults,
        }
    }

    /// The experiment label used in checkpoint records.
    pub fn experiment(&self) -> &str {
        &self.experiment
    }

    /// Whether `--resume` was requested.
    pub fn resuming(&self) -> bool {
        self.resume
    }

    /// Worker-thread count for this sweep.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Where this experiment's checkpoint records live.
    pub fn checkpoint_path(&self) -> PathBuf {
        self.dir.join(format!("{}.jsonl", self.experiment))
    }

    /// Loads `key -> payload` for this experiment from the checkpoint file
    /// (last record per key wins; foreign or unparsable lines are skipped).
    ///
    /// Crash artifacts are tolerated, never fatal: a torn final line (the
    /// process died mid-append) and records failing their CRC seal are
    /// logged and dropped, so only the affected jobs re-run.
    fn load_completed(&self) -> std::collections::HashMap<String, String> {
        let mut done = std::collections::HashMap::new();
        let path = self.checkpoint_path();
        let load = match ckpt::load_tolerant(&path) {
            Ok(load) => load,
            Err(e) => {
                eprintln!(
                    "warning: cannot read checkpoint file {}: {e}; all jobs will re-run",
                    path.display()
                );
                return done;
            }
        };
        if load.torn_tail {
            eprintln!(
                "[sweep] {}: dropping torn trailing checkpoint record (crash mid-append); \
                 the affected job will re-run",
                self.experiment
            );
        }
        if load.dropped_crc > 0 {
            eprintln!(
                "[sweep] {}: dropping {} checkpoint record(s) failing their CRC seal; \
                 the affected jobs will re-run",
                self.experiment, load.dropped_crc
            );
        }
        let version_tag = format!("\"v\":{CHECKPOINT_SCHEMA_VERSION},");
        for line in &load.lines {
            if !line.contains(&version_tag) {
                continue;
            }
            if json_str_field(line, "experiment") != Some(&self.experiment) {
                continue;
            }
            let (Some(key), Some(data)) =
                (json_str_field(line, "key"), json_str_field(line, "data"))
            else {
                continue;
            };
            done.insert(key.to_string(), data.to_string());
        }
        done
    }

    /// Opens the checkpoint file for this run: truncate on the first
    /// non-resume `run` of the process, append afterwards. Returns `None`
    /// (with a warning) if the file can't be opened — the sweep still runs,
    /// it just isn't resumable.
    fn open_sink(&self) -> Option<File> {
        if let Err(e) = fs::create_dir_all(&self.dir) {
            eprintln!(
                "warning: cannot create checkpoint dir {}: {e}; sweep will not be resumable",
                self.dir.display()
            );
            return None;
        }
        let path = self.checkpoint_path();
        let fresh = !self.resume && !self.opened.swap(true, Ordering::SeqCst);
        let opened = if fresh {
            File::create(&path)
        } else {
            OpenOptions::new().create(true).append(true).open(&path)
        };
        match opened {
            Ok(f) => Some(f),
            Err(e) => {
                eprintln!(
                    "warning: cannot open checkpoint file {}: {e}; sweep will not be resumable",
                    path.display()
                );
                None
            }
        }
    }

    /// Applies the sweep-relevant `PPF_FAULT_INJECT` specs: each `panic:` /
    /// `hang:` directive sabotages the first pending job whose label
    /// contains its pattern. Serving-side fault kinds are ignored here.
    fn inject_fault<T: Send + 'static>(&self, pending: &mut [(String, BoxedJob<T>)]) {
        for spec in &self.faults {
            let (pat, hang) = match spec {
                FaultSpec::JobPanic(pat) => (pat, false),
                FaultSpec::JobHang(pat) => (pat, true),
                _ => continue,
            };
            let Some((label, job)) = pending.iter_mut().find(|(l, _)| l.contains(pat.as_str()))
            else {
                continue;
            };
            let l = label.clone();
            *job = if hang {
                Box::new(move || loop {
                    std::thread::sleep(Duration::from_secs(3600));
                })
            } else {
                Box::new(move || panic!("injected fault (PPF_FAULT_INJECT) in {l}"))
            };
        }
    }

    /// Runs a labelled job grid: resumes completed jobs from checkpoints,
    /// executes the rest with panic isolation (and the watchdog when a
    /// `--job-timeout` is set), and checkpoints each success as it lands.
    /// Results come back in input order.
    pub fn run<T: Checkpoint + Send + 'static>(
        &self,
        jobs: Vec<(String, BoxedJob<T>)>,
    ) -> SweepOutcome<T> {
        let completed = if self.resume { self.load_completed() } else { Default::default() };
        let mut slots: Vec<Slot<T>> = Vec::with_capacity(jobs.len());
        let mut pending: Vec<(String, BoxedJob<T>)> = Vec::new();
        for (label, job) in jobs {
            match completed.get(&label).and_then(|d| T::decode(d)) {
                Some(value) => slots.push(Slot::Done(label, value)),
                None => {
                    slots.push(Slot::Pending(label.clone()));
                    pending.push((label, job));
                }
            }
        }
        let resumed = slots.len() - pending.len();
        self.inject_fault(&mut pending);

        let sink = self.open_sink().map(Mutex::new);
        let warned = AtomicBool::new(false);
        let hook = |_i: usize, label: &str, wall: Duration, outcome: &Outcome<T>| {
            let (Ok(value), Some(sink)) = (outcome, &sink) else { return };
            let line = format_record(&self.experiment, label, wall, &value.encode());
            let mut f = lock_unpoisoned(sink);
            let wrote = f.write_all(line.as_bytes()).and_then(|()| f.flush());
            if wrote.is_err() && !warned.swap(true, Ordering::SeqCst) {
                eprintln!(
                    "warning: failed to append checkpoint record for {label}; resume may re-run jobs"
                );
            }
        };
        let mut ran = runner::run_watched(pending, self.threads, self.timeout, &hook).into_iter();

        let results = slots
            .into_iter()
            .map(|slot| match slot {
                Slot::Done(label, value) => (label, Ok(value)),
                Slot::Pending(label) => {
                    (label, ran.next().expect("one outcome per pending job"))
                }
            })
            .collect();
        SweepOutcome { experiment: self.experiment.clone(), results, resumed }
    }
}

/// The outcome of one [`Sweep::run`] grid, in input job order.
#[derive(Debug)]
pub struct SweepOutcome<T> {
    /// Experiment label (for the summary line).
    pub experiment: String,
    /// `(job label, outcome)` per job, in input order.
    pub results: Vec<(String, Outcome<T>)>,
    /// Jobs skipped because a checkpoint record already covered them.
    pub resumed: usize,
}

impl<T> SweepOutcome<T> {
    /// Failed jobs, in job order.
    pub fn failures(&self) -> impl Iterator<Item = &JobError> {
        self.results.iter().filter_map(|(_, r)| r.as_ref().err())
    }

    /// Number of successful jobs.
    pub fn ok_count(&self) -> usize {
        self.results.iter().filter(|(_, r)| r.is_ok()).count()
    }

    /// Prints the sweep summary (and each failure, labelled) to stderr.
    pub fn report(&self) {
        let failed = self.results.len() - self.ok_count();
        eprintln!(
            "[sweep] {}: {} ok, {} failed, {} resumed",
            self.experiment,
            self.ok_count(),
            failed,
            self.resumed
        );
        for e in self.failures() {
            eprintln!("[sweep] FAILED {e}");
        }
    }

    /// Drops labels, keeping outcomes in job order.
    pub fn into_outcomes(self) -> Vec<Outcome<T>> {
        self.results.into_iter().map(|(_, r)| r).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ppf_sweep_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn boxed<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> BoxedJob<T> {
        Box::new(f)
    }

    #[test]
    fn f64_roundtrip_is_bit_exact() {
        for v in [0.0, -0.0, 1.5, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE, 1.0 / 3.0] {
            let back = f64::decode(&v.encode()).unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v}");
        }
        assert!(f64::decode("not hex").is_none());
    }

    #[test]
    fn vec_f64_roundtrip() {
        let v = vec![1.0, -2.5, 1.0 / 3.0];
        assert_eq!(Vec::<f64>::decode(&v.encode()).unwrap(), v);
        assert_eq!(Vec::<f64>::decode("").unwrap(), Vec::<f64>::new());
        assert!(Vec::<f64>::decode("zz").is_none());
    }

    fn sample_report() -> SimReport {
        SimReport {
            cores: vec![CoreReport {
                workload: "619.lbm_s".into(),
                instructions: 1_000_000,
                cycles: 612_345,
                l1d: CacheStats { demand_accesses: 9, demand_hits: 5, ..Default::default() },
                l2: CacheStats { demand_fills: 3, prefetch_fills: 2, ..Default::default() },
                prefetch: PrefetchStats { emitted: 7, issued: 6, useful: 4, ..Default::default() },
                load_miss_waits: 11,
                load_miss_wait_cycles: 220,
                ipc_samples: vec![1.25, 0.75],
            }],
            llc: CacheStats { demand_accesses: 100, demand_hits: 40, ..Default::default() },
            dram: DramStats { reads: 50, writes: 10, row_hits: 30, row_misses: 20, bus_busy_cycles: 400 },
            total_cycles: 612_345,
        }
    }

    #[test]
    fn sim_report_roundtrip() {
        let r = sample_report();
        let back = SimReport::decode(&r.encode()).unwrap();
        assert_eq!(back.encode(), r.encode());
        assert_eq!(back.total_cycles, r.total_cycles);
        assert_eq!(back.cores[0].workload, "619.lbm_s");
        assert_eq!(back.cores[0].ipc_samples, r.cores[0].ipc_samples);
        assert_eq!(back.llc, r.llc);
        assert_eq!(back.dram, r.dram);
        // Zero-core reports (defensive) round-trip too.
        let empty = SimReport {
            cores: vec![],
            llc: CacheStats::default(),
            dram: DramStats::default(),
            total_cycles: 0,
        };
        assert!(SimReport::decode(&empty.encode()).unwrap().cores.is_empty());
    }

    #[test]
    fn corrupt_payloads_decode_to_none() {
        assert!(SimReport::decode("garbage").is_none());
        assert!(CacheStats::decode("1,2,3").is_none(), "too few fields");
        assert!(CacheStats::decode("1,2,3,4,5,6,7").is_none(), "too many fields");
        assert!(CoreReport::decode("w|1|2").is_none());
    }

    /// The sealed line the bytewise-CRC sealer wrote for this record.
    /// Existing `results/checkpoints/*.jsonl` files hold lines of exactly
    /// this shape; if this literal stops matching, they stop resuming.
    const GOLDEN_RECORD: &str = concat!(
        r#"{"crc":"7f2191a3","v":2,"experiment":"fig09_single_core","key":"605.mcf_s|PPF","#,
        r#""wall_ms":1234,"data":"3ff0000000000000,c004000000000000,3fd5555555555555"}"#,
        "\n"
    );

    #[test]
    fn sealed_record_bytes_are_unchanged() {
        let data = vec![1.0f64, -2.5, 1.0 / 3.0].encode();
        let line =
            format_record("fig09_single_core", "605.mcf_s|PPF", Duration::from_millis(1234), &data);
        assert_eq!(line, GOLDEN_RECORD);
        ckpt::check(line.trim_end()).expect("golden record still validates");
        assert_eq!(json_str_field(&line, "data"), Some(data.as_str()));
    }

    #[test]
    fn checkpoint_then_resume_skips_done_jobs() {
        let dir = temp_dir("resume");
        let mk_jobs = || {
            vec![
                ("a".to_string(), boxed(|| 1.0f64)),
                ("b".to_string(), boxed(|| 2.0f64)),
                ("c".to_string(), boxed(|| 3.0f64)),
            ]
        };
        let first = Sweep::new("exp", 1, None, false, &dir);
        let out = first.run(mk_jobs());
        assert_eq!(out.resumed, 0);
        assert_eq!(out.ok_count(), 3);

        // Resume: all three restore from checkpoints; jobs that would
        // panic if executed prove they are skipped.
        let resumed = Sweep::new("exp", 1, None, true, &dir);
        let jobs: Vec<(String, BoxedJob<f64>)> = ["a", "b", "c"]
            .iter()
            .map(|l| (l.to_string(), boxed(|| -> f64 { panic!("must not re-run") })))
            .collect();
        let out = resumed.run(jobs);
        assert_eq!(out.resumed, 3);
        let values: Vec<f64> = out.into_outcomes().into_iter().map(Result::unwrap).collect();
        assert_eq!(values, vec![1.0, 2.0, 3.0]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_jobs_are_not_checkpointed() {
        let dir = temp_dir("failures");
        let sweep = Sweep::new("exp", 2, None, false, &dir);
        let jobs: Vec<(String, BoxedJob<f64>)> = vec![
            ("good".into(), boxed(|| 4.0)),
            ("bad".into(), boxed(|| panic!("down"))),
        ];
        let out = sweep.run(jobs);
        assert_eq!(out.ok_count(), 1);
        assert_eq!(out.failures().count(), 1);
        let text = fs::read_to_string(sweep.checkpoint_path()).unwrap();
        assert!(text.contains("\"key\":\"good\""));
        assert!(!text.contains("\"key\":\"bad\""));
        // Resume re-runs only the failed job.
        let again = Sweep::new("exp", 1, None, true, &dir);
        let jobs: Vec<(String, BoxedJob<f64>)> = vec![
            ("good".into(), boxed(|| -> f64 { panic!("must not re-run") })),
            ("bad".into(), boxed(|| 5.0)),
        ];
        let out = again.run(jobs);
        assert_eq!(out.resumed, 1);
        let values: Vec<f64> = out.into_outcomes().into_iter().map(Result::unwrap).collect();
        assert_eq!(values, vec![4.0, 5.0]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_tolerates_torn_final_line() {
        // A crash mid-append leaves the last record truncated with no
        // newline. Resume must drop exactly that record and re-run only its
        // job — never fail the whole resume.
        let dir = temp_dir("torn");
        let first = Sweep::new("exp", 1, None, false, &dir);
        let out = first.run(vec![
            ("a".to_string(), boxed(|| 1.0f64)),
            ("b".to_string(), boxed(|| 2.0f64)),
        ]);
        assert_eq!(out.ok_count(), 2);
        // Truncate the file mid-way through the final record.
        let path = first.checkpoint_path();
        let text = fs::read_to_string(&path).unwrap();
        let cut = text.trim_end().len() - 7;
        fs::write(&path, &text[..cut]).unwrap();

        let resumed = Sweep::new("exp", 1, None, true, &dir);
        let out = resumed.run(vec![
            ("a".to_string(), boxed(|| -> f64 { panic!("a must resume") })),
            ("b".to_string(), boxed(|| 20.0f64)),
        ]);
        assert_eq!(out.resumed, 1, "intact record resumes, torn one re-runs");
        let values: Vec<f64> = out.into_outcomes().into_iter().map(Result::unwrap).collect();
        assert_eq!(values, vec![1.0, 20.0]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_drops_record_failing_its_crc_seal() {
        let dir = temp_dir("bitflip");
        let first = Sweep::new("exp", 1, None, false, &dir);
        let out = first.run(vec![
            ("a".to_string(), boxed(|| 1.0f64)),
            ("b".to_string(), boxed(|| 2.0f64)),
        ]);
        assert_eq!(out.ok_count(), 2);
        // Flip one payload bit in record "a" (2.0 and 1.0 encode to hex
        // payloads differing in the exponent byte; corrupt a data nibble).
        let path = first.checkpoint_path();
        let text = fs::read_to_string(&path).unwrap();
        let corrupt = text.replacen(&1.0f64.encode(), &3.0f64.encode(), 1);
        assert_ne!(corrupt, text, "the first record must contain its payload");
        fs::write(&path, corrupt).unwrap();

        let resumed = Sweep::new("exp", 1, None, true, &dir);
        let out = resumed.run(vec![
            ("a".to_string(), boxed(|| 10.0f64)),
            ("b".to_string(), boxed(|| -> f64 { panic!("b must resume") })),
        ]);
        assert_eq!(out.resumed, 1, "sealed record resumes, corrupted one re-runs");
        let values: Vec<f64> = out.into_outcomes().into_iter().map(Result::unwrap).collect();
        assert_eq!(values, vec![10.0, 2.0]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_experiment_records_are_ignored() {
        let dir = temp_dir("foreign");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("exp.jsonl");
        // A record from another experiment and one corrupt line.
        fs::write(
            &path,
            format!(
                "{}not json at all\n",
                format_record("other", "a", Duration::from_millis(1), &7.0f64.encode())
            ),
        )
        .unwrap();
        let sweep = Sweep::new("exp", 1, None, true, &dir);
        let out = sweep.run(vec![("a".to_string(), boxed(|| 1.0f64))]);
        assert_eq!(out.resumed, 0, "foreign record must not satisfy this experiment");
        assert_eq!(*out.results[0].1.as_ref().unwrap(), 1.0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn last_record_per_key_wins() {
        let dir = temp_dir("lastwins");
        fs::create_dir_all(&dir).unwrap();
        let mut text = format_record("exp", "a", Duration::from_millis(1), &1.0f64.encode());
        text.push_str(&format_record("exp", "a", Duration::from_millis(1), &9.0f64.encode()));
        fs::write(dir.join("exp.jsonl"), text).unwrap();
        let sweep = Sweep::new("exp", 1, None, true, &dir);
        let out = sweep.run(vec![("a".to_string(), boxed(|| -> f64 { panic!("skip") }))]);
        assert_eq!(*out.results[0].1.as_ref().unwrap(), 9.0);
        let _ = fs::remove_dir_all(&dir);
    }
}
