//! The simulator workload, `sim-1c-ppf`: one core running fig09's PPF
//! scheme (`Ppf<Spp>`) over every memory-intensive SPEC-2017-like model.
//!
//! One *cell* is one `Simulation` built and run to completion; one *round*
//! runs every model once, in a fixed order, so every round does the same
//! simulated work and per-round rates are comparable.
//!
//! The untraced configuration hands the simulator the program's own trace
//! generator and prefetcher; the only addition is [`Hooked`] with tracing
//! off, a by-value forwarder that reads the filter counters once, when the
//! simulation drops it. The traced configuration adds timing decorators at
//! the three layer boundaries the simulator calls through: the trace
//! ([`AccessPattern`]), the prefetcher ([`Prefetcher`]) and, inside PPF, the
//! lookahead source ([`LookaheadSource`]).

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use ppf::Ppf;
use ppf_prefetchers::{Candidate, Feedback, LookaheadSource, Spp};
use ppf_sim::{
    AccessContext, CycleStats, EvictionInfo, FillLevel, FilterCounters, PrefetchRequest,
    Prefetcher, SimReport, Simulation, SystemConfig,
};
use ppf_trace::{AccessPattern, Suite, TraceBuilder, TraceRecord, Workload};

use crate::stats::Fnv;

/// Warm-up and measured instructions per cell: fig09's default scale.
pub const BUDGET: (u64, u64) = (200_000, 1_000_000);

/// One simulation to build and run.
#[derive(Debug, Clone)]
pub struct SimCell {
    /// The workload model.
    pub workload: Workload,
    /// Its trace seed.
    pub seed: u64,
}

/// The cells of one round: every memory-intensive model, each with a trace
/// seed derived from `seed`. The seed does not choose the models: one that
/// did would change how memory-bound a round is, and so its speed, from
/// seed to seed.
pub fn plan(seed: u64) -> Vec<SimCell> {
    Workload::memory_intensive(Suite::Spec2017)
        .into_iter()
        .enumerate()
        .map(|(i, workload)| SimCell {
            workload,
            seed: Fnv::default().add(seed).add(i as u64).finish(),
        })
        .collect()
}

/// Counters and times the decorators accumulate during one cell.
#[derive(Debug, Default)]
pub struct Layers {
    /// Nanoseconds inside `AccessPattern::next_record` (traced only).
    pub trace_ns: Cell<u64>,
    /// Records the trace produced (traced only).
    pub trace_records: Cell<u64>,
    /// Nanoseconds inside every `Prefetcher` hook, sources included
    /// (traced only).
    pub hook_ns: Cell<u64>,
    /// Nanoseconds inside `LookaheadSource::candidates` (traced only).
    pub source_ns: Cell<u64>,
    /// `LookaheadSource::candidates` calls (traced only).
    pub source_calls: Cell<u64>,
    /// Candidates those calls produced (traced only).
    pub source_cands: Cell<u64>,
    /// Final filter counters, stored when the simulation drops the
    /// prefetcher (both configurations).
    pub filter: Cell<FilterCounters>,
}

fn bump(c: &Cell<u64>, by: u64) {
    c.set(c.get() + by);
}

fn since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Times `AccessPattern::next_record`.
struct TimedPattern {
    inner: Box<dyn AccessPattern>,
    layers: Rc<Layers>,
}

impl AccessPattern for TimedPattern {
    fn next_record(&mut self) -> TraceRecord {
        let t = Instant::now();
        let rec = self.inner.next_record();
        bump(&self.layers.trace_ns, since(t));
        bump(&self.layers.trace_records, 1);
        rec
    }
}

/// Times `LookaheadSource::candidates`; forwards feedback untimed.
struct TimedSource<S> {
    inner: S,
    layers: Rc<Layers>,
}

impl<S: LookaheadSource> LookaheadSource for TimedSource<S> {
    fn candidates(&mut self, ctx: &AccessContext, out: &mut Vec<Candidate>) {
        let before = out.len();
        let t = Instant::now();
        self.inner.candidates(ctx, out);
        bump(&self.layers.source_ns, since(t));
        bump(&self.layers.source_calls, 1);
        bump(&self.layers.source_cands, (out.len() - before) as u64);
    }

    fn on_useful_prefetch(&mut self, fb: Feedback) {
        self.inner.on_useful_prefetch(fb)
    }

    fn on_prefetch_fill(&mut self, fb: Feedback) {
        self.inner.on_prefetch_fill(fb)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Forwards every `Prefetcher` hook to `inner`, timing each one when
/// `TRACED`, and publishes the filter counters when dropped.
struct Hooked<P: Prefetcher, const TRACED: bool> {
    inner: P,
    layers: Rc<Layers>,
}

impl<P: Prefetcher, const TRACED: bool> Hooked<P, TRACED> {
    #[inline(always)]
    fn timed<R>(&mut self, f: impl FnOnce(&mut P) -> R) -> R {
        if TRACED {
            let t = Instant::now();
            let r = f(&mut self.inner);
            bump(&self.layers.hook_ns, since(t));
            r
        } else {
            f(&mut self.inner)
        }
    }
}

impl<P: Prefetcher, const TRACED: bool> Prefetcher for Hooked<P, TRACED> {
    fn on_demand_access(&mut self, ctx: &AccessContext, out: &mut Vec<PrefetchRequest>) {
        self.timed(|p| p.on_demand_access(ctx, out))
    }

    fn on_useful_prefetch(&mut self, addr: u64) {
        self.timed(|p| p.on_useful_prefetch(addr))
    }

    fn on_eviction(&mut self, info: &EvictionInfo) {
        self.timed(|p| p.on_eviction(info))
    }

    fn on_llc_eviction(&mut self, info: &EvictionInfo) {
        self.timed(|p| p.on_llc_eviction(info))
    }

    fn on_prefetch_fill(&mut self, addr: u64, level: FillLevel) {
        self.timed(|p| p.on_prefetch_fill(addr, level))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn filter_counters(&self) -> FilterCounters {
        self.inner.filter_counters()
    }

    fn telemetry_dump(&self) -> String {
        self.inner.telemetry_dump()
    }
}

impl<P: Prefetcher, const TRACED: bool> Drop for Hooked<P, TRACED> {
    fn drop(&mut self) {
        self.layers.filter.set(self.inner.filter_counters());
    }
}

fn prefetcher(layers: &Rc<Layers>, traced: bool) -> Box<dyn Prefetcher> {
    let layers = Rc::clone(layers);
    if traced {
        let source = TimedSource {
            inner: Spp::default(),
            layers: Rc::clone(&layers),
        };
        Box::new(Hooked::<_, true> {
            inner: Ppf::new(source),
            layers,
        })
    } else {
        Box::new(Hooked::<_, false> {
            inner: Ppf::new(Spp::default()),
            layers,
        })
    }
}

/// What one cell measured.
#[derive(Debug)]
pub struct CellRun {
    /// Building traces, `Simulation::new`, `add_core` and prefetchers.
    pub setup_ns: u64,
    /// `Simulation::run`.
    pub run_ns: u64,
    /// Nominal simulated instructions: cores × (warmup + measure).
    pub instructions: u64,
    /// Digest of the report plus filter counters.
    pub digest: u64,
    /// The measurement-region report.
    pub report: SimReport,
    /// Executed ticks and skipped cycles over the simulation's lifetime.
    pub cycles: CycleStats,
    /// Decorator totals (timings are zero when untraced).
    pub layers: Layers,
}

/// Builds and runs one cell with `budget` = (warm-up, measured)
/// instructions.
pub fn run_cell(cell: &SimCell, traced: bool, budget: (u64, u64)) -> CellRun {
    let layers = Rc::new(Layers::default());
    let t = Instant::now();
    let mut sim = Simulation::new(SystemConfig::single_core());
    let gen: Box<dyn AccessPattern> = Box::new(
        TraceBuilder::new(cell.workload.clone())
            .seed(cell.seed)
            .build(),
    );
    let trace: Box<dyn AccessPattern> = if traced {
        Box::new(TimedPattern {
            inner: gen,
            layers: Rc::clone(&layers),
        })
    } else {
        gen
    };
    sim.add_core(cell.workload.name(), trace, prefetcher(&layers, traced));
    let setup_ns = since(t);
    let t = Instant::now();
    let report = std::hint::black_box(sim.run(budget.0, budget.1));
    let run_ns = since(t);
    let cycles = sim.cycle_stats();
    drop(sim);
    let layers = Rc::try_unwrap(layers).expect("the simulation dropped every decorator");
    let digest = digest(&report, &layers.filter.get());
    CellRun {
        setup_ns,
        run_ns,
        instructions: budget.0 + budget.1,
        digest,
        report,
        cycles,
        layers,
    }
}

/// Digest of a cell's simulated behaviour: cycles, instructions, cache,
/// DRAM and prefetch counters of the measurement region, plus the final
/// filter counters. Host-side quantities (ticks executed, times)
/// are left out, so only a change in simulated behaviour moves it.
pub fn digest(report: &SimReport, f: &FilterCounters) -> u64 {
    let mut h = Fnv::default();
    let cache = |h: &mut Fnv, c: &ppf_sim::CacheStats| {
        h.add(c.demand_accesses)
            .add(c.demand_hits)
            .add(c.demand_fills)
            .add(c.prefetch_fills)
            .add(c.useful_prefetches)
            .add(c.useless_prefetches);
    };
    h.add(report.total_cycles);
    for core in &report.cores {
        h.add_str(&core.workload)
            .add(core.instructions)
            .add(core.cycles);
        cache(&mut h, &core.l1d);
        cache(&mut h, &core.l2);
        let p = &core.prefetch;
        h.add(p.emitted)
            .add(p.issued)
            .add(p.dropped_redundant)
            .add(p.dropped_mshr)
            .add(p.dropped_queue)
            .add(p.useful)
            .add(p.late)
            .add(p.late_wait_cycles)
            .add(core.load_miss_waits)
            .add(core.load_miss_wait_cycles);
    }
    cache(&mut h, &report.llc);
    let d = &report.dram;
    h.add(d.reads)
        .add(d.writes)
        .add(d.row_hits)
        .add(d.row_misses)
        .add(d.bus_busy_cycles);
    h.add(f.inferences)
        .add(f.accepted_l2)
        .add(f.accepted_llc)
        .add(f.rejected)
        .add(f.positive_trains)
        .add(f.negative_trains)
        .add(f.false_negative_recoveries)
        .add(f.replacement_trains);
    h.finish()
}

/// Combines a round's cell digests, in cell order.
pub fn round_digest(cells: &[CellRun]) -> u64 {
    let mut h = Fnv::default();
    for c in cells {
        h.add(c.digest);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: (u64, u64) = (2_000, 10_000);

    /// mcf's pointer chase depends on the trace seed; streaming models
    /// such as bwaves do not.
    fn mcf(seed: u64) -> SimCell {
        plan(seed)
            .into_iter()
            .find(|c| c.workload.name() == "605.mcf_s")
            .expect("every plan runs mcf")
    }

    #[test]
    fn seed_changes_inputs_and_the_run_still_passes() {
        let seeds = |p: Vec<SimCell>| -> Vec<u64> { p.iter().map(|c| c.seed).collect() };
        assert_ne!(
            seeds(plan(1)),
            seeds(plan(2)),
            "the seed must reach the trace seeds"
        );
        let (a, b) = (mcf(1), mcf(2));
        for cell in [&a, &b] {
            let plain = run_cell(cell, false, TINY);
            let traced = run_cell(cell, true, TINY);
            assert_eq!(plain.digest, traced.digest, "tracing changed behaviour");
            assert_eq!(plain.report, traced.report);
            assert!(traced.layers.trace_records.get() > 0);
            assert!(traced.layers.hook_ns.get() > 0);
            assert_eq!(
                plain.layers.hook_ns.get(),
                0,
                "untraced run must not time hooks"
            );
        }
        let (da, db) = (
            run_cell(&a, false, TINY).report,
            run_cell(&b, false, TINY).report,
        );
        assert_ne!(da, db, "the seed must change what is simulated");
    }

    #[test]
    fn perturbed_statistic_trips_the_digest() {
        let run = run_cell(&mcf(7), false, TINY);
        let filter = run.layers.filter.get();
        assert_eq!(digest(&run.report, &filter), run.digest);
        assert!(filter.inferences > 0, "PPF must have judged candidates");

        let mut report = run.report.clone();
        report.cores[0].prefetch.useful += 1;
        assert_ne!(digest(&report, &filter), run.digest);

        let mut report = run.report.clone();
        report.dram.row_hits += 1;
        assert_ne!(digest(&report, &filter), run.digest);

        let mut bent = filter;
        bent.rejected += 1;
        assert_ne!(digest(&run.report, &bent), run.digest);
    }

    #[test]
    fn source_timing_sits_inside_hook_timing() {
        let run = run_cell(&mcf(3), true, TINY);
        let l = &run.layers;
        assert!(l.source_calls.get() > 0);
        assert!(l.source_ns.get() <= l.hook_ns.get());
        assert!(l.hook_ns.get() + l.trace_ns.get() <= run.run_ns);
    }
}
