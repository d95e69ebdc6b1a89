//! The serving workload: `serve-ckpt`.
//!
//! One in-process `Daemon` with one shard and one closed-loop caller: the
//! caller sends its next request only after the previous verdict arrives,
//! as a prefetcher waiting on its filter would. Requests come from a
//! `MultiTenantReplay` of several tenants, built once per process from the
//! seed.
//!
//! One *round* is:
//! 1. an untimed prefix of the stream against a daemon on a fresh
//!    checkpoint directory, which writes the checkpoints;
//! 2. a timed `Daemon::start` on that directory (warm start: load and
//!    compaction) — the set-up time;
//! 3. the measured part of the stream, each `Daemon::score` call timed by
//!    the caller, at the default checkpoint cadence;
//! 4. flush, digests, shutdown, and removal of the directory.
//!
//! A traced round then replays the same requests through
//! `TenantState::process`/`barrier` and `ShardCheckpoint::append` on the
//! caller thread, which splits a request's latency into scoring, handoff
//! and checkpoint I/O, and must end on the daemon's exact weights.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::Instant;

use ppf::FilterStats;
use ppf_serve::loadgen::FeatureTracker;
use ppf_serve::{Daemon, ScoreRequest, ServeConfig, ShardCheckpoint, TenantState};
use ppf_trace::{MultiTenantReplay, Suite};

use crate::stats::{advanced_during, round_latency, Fnv};

/// Tenants in the replay.
pub const TENANTS: usize = 8;
/// Candidates per score request (one tenant's burst of trace records).
pub const BATCH: usize = 8;
/// Requests in the untimed prefix that writes the warm-start checkpoints.
pub const PREFIX: usize = 1024;
/// Requests measured per round.
pub const MEASURED: usize = 4096;

/// The request stream of one seed: the prefix, then the measured part.
#[derive(Debug, Clone)]
pub struct Stream {
    /// Tenant names in index order.
    pub tenants: Vec<String>,
    /// Requests sent by the untimed prefix.
    pub prefix: Vec<ScoreRequest>,
    /// Requests measured each round.
    pub measured: Vec<ScoreRequest>,
}

/// Builds the request stream for `seed` (`prefix` + `measured` requests).
pub fn stream(seed: u64, prefix: usize, measured: usize) -> Stream {
    let mut replay = MultiTenantReplay::new(Suite::Spec2017, TENANTS, BATCH, seed);
    let tenants = replay.tenant_names();
    let mut trackers = vec![FeatureTracker::default(); TENANTS];
    let mut requests: Vec<ScoreRequest> = (0..prefix + measured)
        .map(|_| {
            let mut tenant = 0;
            let mut candidates = Vec::with_capacity(BATCH);
            let mut demands = Vec::with_capacity(BATCH);
            // The burst equals the batch, so one request is one tenant's burst.
            for _ in 0..BATCH {
                let (idx, rec) = replay.next_event();
                tenant = idx;
                candidates.push(trackers[idx].observe(&rec));
                demands.push(rec.addr);
            }
            ScoreRequest {
                tenant: tenants[tenant].clone(),
                candidates,
                demands,
                evictions: Vec::new(),
            }
        })
        .collect();
    let measured = requests.split_off(prefix);
    Stream {
        tenants,
        prefix: requests,
        measured,
    }
}

fn config(dir: &Path) -> ServeConfig {
    ServeConfig {
        shards: 1,
        checkpoint_dir: dir.to_path_buf(),
        ..ServeConfig::default()
    }
}

fn empty(tenant: &str) -> ScoreRequest {
    ScoreRequest {
        tenant: tenant.to_string(),
        candidates: Vec::new(),
        demands: Vec::new(),
        evictions: Vec::new(),
    }
}

/// Hash of `(tenant, checkpoint gen, weights digest)` triples.
pub fn digest_of(digests: &[(String, u64, u64)]) -> u64 {
    let mut h = Fnv::default();
    for (name, gen, w) in digests {
        h.add_str(name).add(*gen).add(*w);
    }
    h.finish()
}

/// A checkpoint directory that is removed when dropped.
#[derive(Debug)]
struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `path` empty, replacing anything left there.
    fn fresh(path: PathBuf) -> std::io::Result<Self> {
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What the caller-thread replay of a traced round measured.
#[derive(Debug, Default)]
pub struct Replay {
    /// `ShardCheckpoint::load` of the prefix's checkpoints (s).
    pub load_s: f64,
    /// `TenantState::process` per measured request (µs).
    pub process_us: Vec<f64>,
    /// `TenantState::barrier` per checkpoint (µs).
    pub barrier_us: Vec<f64>,
    /// `ShardCheckpoint::append` per checkpoint (µs).
    pub append_us: Vec<f64>,
    /// Filter counters summed over the replayed tenants.
    pub filter: FilterStats,
    /// Digest of the replayed tenants' final `(name, gen, weights)`.
    pub digest: u64,
}

/// What one round measured.
#[derive(Debug, Default)]
pub struct Round {
    /// `Daemon::start` on the prefix's checkpoints (s).
    pub setup_s: f64,
    /// Measured requests.
    pub requests: u64,
    /// Summed caller-observed latency of the measured requests (µs).
    pub latency_sum_us: f64,
    /// Median caller-observed latency (µs).
    pub p50_us: f64,
    /// 99th-percentile caller-observed latency (µs).
    pub p99_us: f64,
    /// Requests beyond `p99_us`.
    pub p99_beyond: usize,
    /// Caller-observed latency of each measured request (µs), kept for
    /// traced rounds only, so memory does not grow with the round count.
    pub latency_us: Vec<f64>,
    /// Whether a checkpoint append completed while each request was out
    /// (traced rounds only).
    pub ckpt_call: Vec<bool>,
    /// Wall time of the measured requests, first send to last reply (s).
    pub wall_s: f64,
    /// Replies flagged degraded (shed, deadline miss or tenant panic).
    pub degraded: u64,
    /// Requests shed by the daemon.
    pub shed: u64,
    /// Deadline misses counted by the daemon.
    pub deadline_misses: u64,
    /// Checkpoint records written during the measured requests.
    pub ckpt_records: u64,
    /// Tenants the daemon restored at warm start.
    pub warm_started: u64,
    /// The warm-started digests equal the pre-shutdown ones.
    pub warm_ok: bool,
    /// Digest of the daemon's final `(name, gen, weights)` after a flush.
    pub digest: u64,
    /// The caller-thread replay (traced rounds only).
    pub replay: Option<Replay>,
}

/// Runs one round in a fresh checkpoint directory at `dir`.
pub fn round(s: &Stream, dir: &Path, traced: bool) -> std::io::Result<Round> {
    let dir = ScratchDir::fresh(dir.to_path_buf())?;
    let cfg = config(&dir.0);

    // 1. Untimed prefix: writes the checkpoints the daemon warm-starts from.
    let daemon = Daemon::start(cfg.clone());
    for req in s.prefix.iter().cloned() {
        daemon.score(req);
    }
    daemon.flush();
    let before_shutdown = daemon.tenant_digests();
    daemon.shutdown();
    let restored = if traced {
        let t = Instant::now();
        let r = ShardCheckpoint::new(&dir.0, 0).load();
        Some((t.elapsed().as_secs_f64(), r.tenants))
    } else {
        None
    };

    // 2. Timed warm start.
    let t = Instant::now();
    let daemon = Daemon::start(cfg);
    let setup_s = t.elapsed().as_secs_f64();
    // Materialise every tenant with an empty request, which trains nothing,
    // so the warm-started weights can be compared with the pre-shutdown ones.
    for name in &s.tenants {
        daemon.score(empty(name));
    }
    let warm_ok = daemon.tenant_digests() == before_shutdown;

    // 3. Measured closed loop.
    let records = |d: &Daemon| d.counters().checkpoint_records.load(Ordering::Relaxed);
    let requests = s.measured.clone();
    let mut latency_us = Vec::with_capacity(requests.len());
    let mut readings = Vec::with_capacity(requests.len() + 1);
    let mut degraded = 0;
    readings.push(records(&daemon));
    let start = Instant::now();
    for req in requests {
        let t = Instant::now();
        let reply = daemon.score(req);
        latency_us.push(t.elapsed().as_secs_f64() * 1e6);
        readings.push(records(&daemon));
        degraded += u64::from(reply.degraded);
    }
    let wall_s = start.elapsed().as_secs_f64();
    let latency_us_sum = latency_us.iter().sum();
    let ckpt_records = readings[readings.len() - 1] - readings[0];

    // 4. Flush, digests, shutdown.
    daemon.flush();
    let digest = digest_of(&daemon.tenant_digests());
    let c = daemon.counters();
    let shed = c.shed_overflow.load(Ordering::Relaxed) + c.shed_quota.load(Ordering::Relaxed);
    let deadline_misses = c.deadline_misses.load(Ordering::Relaxed);
    let warm_started = daemon.warm_started();
    daemon.shutdown();

    let replay = match restored {
        Some((load_s, tenants)) => Some(replay(s, &dir.0.join("replay"), load_s, &tenants)?),
        None => None,
    };
    let (p50_us, p99_us, p99_beyond) = round_latency(&latency_us);
    let (latency_us, ckpt_call) = if traced {
        (latency_us, advanced_during(&readings))
    } else {
        (Vec::new(), Vec::new())
    };
    Ok(Round {
        setup_s,
        requests: s.measured.len() as u64,
        latency_sum_us: latency_us_sum,
        p50_us,
        p99_us,
        p99_beyond,
        ckpt_call,
        latency_us,
        wall_s,
        degraded,
        shed,
        deadline_misses,
        ckpt_records,
        warm_started,
        warm_ok,
        digest,
        replay,
    })
}

fn micros(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Replays the warm start and the measured requests through the tenant
/// and checkpoint layers on this thread, mirroring the shard worker: lazy
/// warm tenants, a barrier plus append whenever a tenant reaches the
/// cadence, and a final flush of dirty tenants in name order.
fn replay(
    s: &Stream,
    dir: &Path,
    load_s: f64,
    restored: &HashMap<String, ppf_serve::RestoredTenant>,
) -> std::io::Result<Replay> {
    let every = ServeConfig::default().checkpoint_every.max(1);
    let store = ShardCheckpoint::new(dir, 0);
    let mut out = Replay {
        load_s,
        ..Replay::default()
    };
    let mut tenants: HashMap<String, TenantState> = HashMap::new();
    for name in &s.tenants {
        let mut t = match restored.get(name) {
            Some(r) => TenantState::warm(name, r.gen, &r.weights)
                .map_err(|e| std::io::Error::other(format!("{name}: {e}")))?,
            None => TenantState::fresh(name),
        };
        t.process(&empty(name));
        tenants.insert(name.clone(), t);
    }
    let checkpoint = |t: &mut TenantState, out: &mut Replay| -> std::io::Result<()> {
        let at = Instant::now();
        let (gen, weights) = t.barrier();
        out.barrier_us.push(micros(at));
        let at = Instant::now();
        store.append(&t.name, gen, &weights, false)?;
        out.append_us.push(micros(at));
        Ok(())
    };
    for req in &s.measured {
        let t = tenants
            .get_mut(&req.tenant)
            .expect("every tenant was materialised");
        let at = Instant::now();
        std::hint::black_box(t.process(req));
        out.process_us.push(micros(at));
        if t.since_checkpoint >= every {
            checkpoint(t, &mut out)?;
        }
    }
    let mut names: Vec<String> = tenants.keys().cloned().collect();
    names.sort();
    let mut digests = Vec::new();
    for name in names {
        let t = tenants.get_mut(&name).expect("listed above");
        if t.since_checkpoint > 0 {
            checkpoint(t, &mut out)?;
        }
        let f = &t.filter.stats;
        out.filter.inferences += f.inferences;
        out.filter.accepted_l2 += f.accepted_l2;
        out.filter.accepted_llc += f.accepted_llc;
        out.filter.rejected += f.rejected;
        out.filter.positive_trains += f.positive_trains;
        out.filter.negative_trains += f.negative_trains;
        digests.push((name, t.gen, t.filter.weights_digest()));
    }
    out.digest = digest_of(&digests);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join(format!(
            "../.perfbench-tmp/test-{tag}-{}",
            std::process::id()
        ))
    }

    #[test]
    fn seed_changes_the_stream_and_the_round_still_passes() {
        let a = stream(1, 64, 128);
        let b = stream(2, 64, 128);
        assert_eq!(a.tenants, b.tenants, "tenant names are seed independent");
        assert_ne!(a.measured, b.measured, "the seed must change the requests");
        for (s, tag) in [(&a, "a"), (&b, "b")] {
            let r = round(s, &scratch(tag), true).expect("round runs");
            assert!(
                r.warm_ok,
                "warm start must restore the pre-shutdown weights"
            );
            assert_eq!(r.warm_started, TENANTS as u64);
            assert_eq!(r.degraded, 0);
            let replay = r.replay.expect("traced rounds replay");
            assert_eq!(
                replay.digest, r.digest,
                "replay must end on the daemon's weights"
            );
            assert_eq!(replay.process_us.len(), 128);
            assert!(!scratch(tag).exists(), "the round removes its directory");
        }
        // Only removes the shared root once no other run is using it.
        let _ = std::fs::remove_dir(scratch("a").parent().expect("has a parent"));
    }
}
