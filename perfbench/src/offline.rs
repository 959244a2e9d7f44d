//! The three offline workloads: the sequential minis through the in-line
//! serial profiler or the SPSC pipeline, and the pthread-style minis
//! through the MT-target profiler.
//!
//! One operation is one program profiled: from profiler construction to a
//! finished `ProfileResult` plus its post-hoc report, including the
//! pipeline's drain, joins and merge inside `finish()`. The untraced run
//! repeats whole passes over the suite for the run's duration. The traced
//! run spends half its time on the same untraced passes and half on
//! traced passes, which wrap each layer call in a span and add the
//! isolated layer measurements (native interpretation, event emission,
//! signature probing, replay) that the ledger sums.

use crate::catalog::{insert_query_latency, median_over_passes, Measured, Values};
use crate::host::{self, Probe};
use crate::spans::{run_id, Rec, SpanLog};
use crate::stats::median;
use crate::suite::{self, CountAccesses, Mini, NPROC, SLOTS};
use dp_core::{
    AnyParallelProfiler, MtProfiler, ProfileResult, ProfilerConfig, SequentialProfiler,
    TransportKind,
};
use dp_sig::{AccessStore, ExtendedSlot, SigEntry, Signature};
use dp_trace::{CollectFactory, CollectTracer, Interp, NullFactory, NullTracer};
use dp_types::TraceEvent;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Which engine an offline workload profiles with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `SequentialProfiler`, in-line on the interpreting thread.
    Serial,
    /// `AnyParallelProfiler` on the SPSC transport, `NPROC - 1` workers.
    Pipeline,
    /// `MtProfiler` under `NPROC` target threads, `NPROC - 1` workers.
    Mt,
}

/// What a program's profile is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    /// Sequential engines: [`suite::dep_digest`] of the serial
    /// signature engine at the same total slots. Unused for MT.
    pub digest: u64,
    /// Accesses one run of the program performs.
    pub accesses: u64,
}

/// Set-up output: the seeded programs and their references.
pub struct Setup {
    /// Which engine the workload runs.
    pub engine: Engine,
    /// The suite.
    pub minis: Vec<Mini>,
    /// One reference per mini.
    pub refs: Vec<Reference>,
}

/// Builds the programs and their references for `seed`.
pub fn setup(engine: Engine, seed: u64) -> Setup {
    let minis = match engine {
        Engine::Serial | Engine::Pipeline => suite::sequential_minis(seed),
        Engine::Mt => suite::parallel_minis(seed),
    };
    let refs = minis
        .iter()
        .map(|m| match engine {
            Engine::Serial | Engine::Pipeline => {
                let mut p = SequentialProfiler::with_signature(SLOTS);
                Interp::new(&m.program).run_seq(&mut p);
                let r = p.finish();
                Reference { digest: suite::dep_digest(&r), accesses: r.stats.accesses }
            }
            Engine::Mt => Reference { digest: 0, accesses: CountAccesses::of(&m.program) },
        })
        .collect();
    Setup { engine, minis, refs }
}

fn pipeline_config() -> ProfilerConfig {
    ProfilerConfig::default()
        .with_workers(NPROC - 1)
        .with_slots(SLOTS)
        .with_transport(TransportKind::Spsc)
}

fn mt_config() -> ProfilerConfig {
    ProfilerConfig::default().with_workers(NPROC - 1).with_slots(SLOTS)
}

/// Why a profile failed its check, if it did.
pub fn check(engine: Engine, r: &ProfileResult, reference: &Reference) -> Option<String> {
    let m = &r.metrics;
    if r.stats.accesses != reference.accesses {
        return Some(format!("{} accesses, reference {}", r.stats.accesses, reference.accesses));
    }
    if m.enabled && !m.conservation.holds() {
        return Some(format!("conservation violated: {:?}", m.conservation));
    }
    if !r.stats.worker_failures.is_empty() || r.stats.dropped_events > 0 {
        return Some(format!(
            "degraded: {} worker failures, {} dropped events",
            r.stats.worker_failures.len(),
            r.stats.dropped_events
        ));
    }
    if engine != Engine::Mt && suite::dep_digest(r) != reference.digest {
        return Some("dependence set differs from the serial engine's".into());
    }
    None
}

/// The timed operation: construction to result plus post-hoc report.
/// Returns the result and the operation's wall time.
fn profile(engine: Engine, mini: &Mini, rec: &mut Rec<'_>) -> (ProfileResult, Duration) {
    let vm = Interp::new(&mini.program);
    let t0 = Instant::now();
    rec.root = rec.open("e2e", None);
    let result = match engine {
        Engine::Serial => {
            let mut p = rec.span("core.seq.new", || SequentialProfiler::with_signature(SLOTS));
            rec.span("core.seq.run", || vm.run_seq(&mut p));
            rec.span("core.seq.finish", || p.finish())
        }
        Engine::Pipeline => {
            let cfg = pipeline_config();
            let slots = cfg.slots_per_worker();
            let mut p = rec.span("core.parallel.new", || {
                AnyParallelProfiler::new(cfg, move || Signature::<ExtendedSlot>::new(slots))
            });
            rec.span("core.parallel.run", || vm.run_seq(&mut p));
            rec.span("core.parallel.finish", || p.finish())
        }
        Engine::Mt => {
            let p = rec.span("core.mt.new", || MtProfiler::new(mt_config()));
            rec.span("core.mt.run", || vm.run_mt(&p));
            rec.span("core.mt.finish", || p.finish())
        }
    };
    rec.span("analysis.posthoc", || match engine {
        Engine::Serial | Engine::Pipeline => {
            let verdicts = dp_analysis::classify_loops(&result, &mini.loops);
            let text = dp_core::report::render(&result, &mini.program.interner, false);
            black_box((verdicts, text));
        }
        Engine::Mt => {
            black_box(dp_analysis::find_races(&result));
        }
    });
    let root = rec.root.take();
    rec.close(root);
    (result, t0.elapsed())
}

/// Per-pass aggregates of the untraced passes.
#[derive(Default)]
struct Pass {
    accesses: u64,
    e2e: Duration,
    mem_peak: usize,
    /// The host probe's reading over the pass, ns.
    probe_ns: f64,
}

struct Tally<'s> {
    setup: &'s Setup,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally<'_> {
    fn record(&mut self, i: usize, r: &ProfileResult) {
        self.attempted += 1;
        if let Some(why) = check(self.setup.engine, r, &self.setup.refs[i]) {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(format!("{}: {why}", self.setup.minis[i].program.name));
            }
        }
    }
}

/// Untraced passes for `budget`: whole passes only, at least one. The
/// host probe samples before every operation.
fn untraced_passes(
    setup: &Setup,
    budget: Duration,
    tally: &mut Tally<'_>,
) -> (Vec<Pass>, Vec<f64>) {
    let mut probe = Probe::default();
    let start = Instant::now();
    let mut passes = Vec::new();
    let mut latencies_ms = Vec::new();
    while passes.is_empty() || start.elapsed() < budget {
        let mut pass = Pass::default();
        for (i, mini) in setup.minis.iter().enumerate() {
            probe.sample();
            let (r, took) = profile(setup.engine, mini, &mut Rec { log: None, run: 0, root: None });
            tally.record(i, &r);
            pass.accesses += r.stats.accesses;
            pass.e2e += took;
            pass.mem_peak = pass.mem_peak.max(r.memory.total());
            latencies_ms.push(took.as_secs_f64() * 1e3);
        }
        pass.probe_ns = probe.take();
        passes.push(pass);
    }
    (passes, latencies_ms)
}

/// The untraced run: the end-to-end metrics.
pub fn run(setup: &Setup, seconds: u64) -> Measured {
    let mut tally = Tally { setup, attempted: 0, failed: 0, failures: Vec::new() };
    let (passes, lat) = untraced_passes(setup, Duration::from_secs(seconds), &mut tally);
    let accesses = passes.iter().map(|p| p.accesses).sum::<u64>() as f64;
    let raw_s: f64 = passes.iter().map(|p| p.e2e.as_secs_f64()).sum();
    let scaled_s: f64 =
        passes.iter().map(|p| host::at_reference(p.e2e.as_secs_f64(), p.probe_ns)).sum();
    let rates: Vec<f64> = passes.iter().map(|p| p.accesses as f64 / p.e2e.as_secs_f64()).collect();
    let probes: Vec<f64> = passes.iter().map(|p| p.probe_ns).collect();
    let mems: Vec<f64> = passes.iter().map(|p| p.mem_peak as f64 / 1e6).collect();
    let mut values = Values::new();
    values.insert("events_per_s", accesses / scaled_s);
    values.insert("mem_peak_mb", median(&mems));
    insert_query_latency(&mut values, &lat);
    let notes = vec![
        format!(
            "{} passes over {} programs; request latency samples n={} (one request = one \
             program profiled to its post-hoc report)",
            passes.len(),
            setup.minis.len(),
            lat.len()
        ),
        format!(
            "raw {:.0} events/s; host probe median {:.2} ns (reference {})",
            accesses / raw_s,
            median(&probes),
            host::REFERENCE_NS
        ),
        format!("per-pass raw events/s: {:.0?}", rates),
        format!("per-pass host probe ns: {:.2?}", probes),
    ];
    Measured {
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        values,
        notes,
        spans: None,
    }
}

/// Per-pass sums of a traced pass (nanoseconds and counts).
#[derive(Default, Clone)]
struct TracedPass {
    events: u64,
    accesses: u64,
    e2e: u64,
    programs: u64,
    occupied: u64,
    slots: u64,
    evictions: u64,
    deps_built: u64,
    deps_merged: u64,
    store_bytes: u64,
    chunks_pushed: u64,
    push_retries: u64,
    empty_pops: u64,
    chunks_consumed: u64,
    highwater: u64,
    stall_ns: u64,
    reversed: u64,
}

/// Isolated layer measurements of one program, recorded as root spans
/// sharing the program's run id.
fn isolated(engine: Engine, mini: &Mini, log: &mut SpanLog, run: u64) -> u64 {
    let vm = Interp::new(&mini.program);
    let s = log.open("trace.interp", run, None);
    match engine {
        Engine::Mt => vm.run_mt(&NullFactory),
        _ => vm.run_seq(&mut NullTracer),
    }
    log.close(s);
    let vm = Interp::new(&mini.program);
    let events = match engine {
        Engine::Mt => {
            let f = CollectFactory::default();
            let s = log.open("trace.collect", run, None);
            vm.run_mt(&f);
            log.close(s);
            f.events.into_inner()
        }
        _ => {
            let mut t = CollectTracer::new();
            let s = log.open("trace.collect", run, None);
            vm.run_seq(&mut t);
            log.close(s);
            t.events
        }
    };
    let mut read = Signature::<ExtendedSlot>::new(SLOTS);
    let mut write = Signature::<ExtendedSlot>::new(SLOTS);
    let s = log.open("sig.probe", run, None);
    for ev in &events {
        if let TraceEvent::Access(a) = ev {
            let store = if a.kind.is_write() { &mut write } else { &mut read };
            black_box(store.get(a.addr));
            store.put(a.addr, SigEntry::new(a.loc, a.thread, a.ts));
        }
    }
    log.close(s);
    black_box((read.occupied(), write.occupied()));
    if engine == Engine::Serial {
        let mut p = SequentialProfiler::with_signature(SLOTS);
        let s = log.open("core.seq.feed", run, None);
        for ev in &events {
            p.on_event(ev);
        }
        log.close(s);
        black_box(p.finish().stats.events);
    }
    events.len() as u64
}

/// The traced run: per-layer metrics plus the tracing overhead against
/// untraced passes measured in the same process.
pub fn run_traced(setup: &Setup, seconds: u64) -> Measured {
    let half = Duration::from_secs(seconds).div_f64(2.0);
    let mut tally = Tally { setup, attempted: 0, failed: 0, failures: Vec::new() };
    let (untraced, lat) = untraced_passes(setup, half, &mut tally);
    let mut log = SpanLog::default();
    let mut passes: Vec<TracedPass> = Vec::new();
    let start = Instant::now();
    while passes.is_empty() || start.elapsed() < half {
        let p = passes.len();
        let mut tp = TracedPass::default();
        for (i, mini) in setup.minis.iter().enumerate() {
            let run = run_id(p, i);
            let (r, took) =
                profile(setup.engine, mini, &mut Rec { log: Some(&mut log), run, root: None });
            tally.record(i, &r);
            let events = isolated(setup.engine, mini, &mut log, run);
            tp.events += match setup.engine {
                Engine::Mt => r.stats.accesses,
                _ => events,
            };
            tp.accesses += r.stats.accesses;
            tp.e2e += took.as_nanos() as u64;
            tp.programs += 1;
            let m = &r.metrics;
            tp.occupied += m.signatures.occupied_slots;
            tp.slots += m.signatures.total_slots;
            tp.evictions += m.signatures.evictions;
            tp.deps_built += r.stats.deps_built;
            tp.deps_merged += r.stats.deps_merged;
            tp.store_bytes += r.deps.memory_usage() as u64;
            tp.chunks_pushed += m.chunks.pushed;
            tp.push_retries += m.chunks.push_retries;
            tp.empty_pops += m.chunks.empty_pops;
            tp.chunks_consumed += m.chunks.consumed;
            tp.highwater = tp.highwater.max(m.chunks.queue_highwater);
            tp.stall_ns += m.stall_nanos;
            tp.reversed += r.stats.reversed;
        }
        passes.push(tp);
    }

    let by_pass = log.self_by_pass(passes.len());

    let engine = setup.engine;
    let per_pass: Vec<Values> = passes
        .iter()
        .zip(&by_pass)
        .map(|(tp, st)| {
            let g = |n: &str| st.get(n).map_or(0.0, |x| x.0 as f64);
            let ev = tp.events as f64;
            let mut v = Values::new();
            let interp = g("trace.interp");
            let emit = g("trace.collect") - interp;
            let new = g("core.seq.new") + g("core.parallel.new") + g("core.mt.new");
            let run = g("core.seq.run") + g("core.parallel.run") + g("core.mt.run");
            let finish = g("core.seq.finish") + g("core.parallel.finish") + g("core.mt.finish");
            let posthoc = g("analysis.posthoc");
            let programs = tp.programs as f64;
            v.insert("trace.interp_ns_per_event", interp / ev);
            v.insert("trace.emit_ns_per_event", emit / ev);
            v.insert("sig.probe_ns_per_access", g("sig.probe") / tp.accesses as f64);
            v.insert("sig.occupancy_pct", 100.0 * tp.occupied as f64 / tp.slots.max(1) as f64);
            v.insert("sig.evictions", tp.evictions as f64);
            v.insert("core.store.dedup_ratio", tp.deps_built as f64 / tp.deps_merged.max(1) as f64);
            v.insert("core.store.mem_mb", tp.store_bytes as f64 / 1e6);
            v.insert("core.new_ms", new / programs / 1e6);
            v.insert("analysis.posthoc_ms", posthoc / programs / 1e6);
            v.insert("slowdown", tp.e2e as f64 / interp);
            let ledger = match engine {
                Engine::Serial => {
                    v.insert("core.seq.feed_ns_per_event", g("core.seq.feed") / ev);
                    v.insert("core.seq.finish_ms", finish / programs / 1e6);
                    new + interp + emit + g("core.seq.feed") + finish + posthoc
                }
                Engine::Pipeline => {
                    v.insert("core.parallel.feed_ns_per_event", (run - interp) / ev);
                    v.insert("core.parallel.finish_ms", finish / programs / 1e6);
                    v.insert("core.parallel.stall_ms", tp.stall_ns as f64 / programs / 1e6);
                    new + run + finish + posthoc
                }
                Engine::Mt => {
                    v.insert("core.mt.feed_ns_per_access", (run - interp) / ev);
                    v.insert("core.mt.finish_ms", finish / programs / 1e6);
                    v.insert("core.mt.reversed", tp.reversed as f64);
                    new + run + finish + posthoc
                }
            };
            if engine != Engine::Serial {
                v.insert(
                    "queue.push_full_frac",
                    tp.push_retries as f64 / tp.chunks_pushed.max(1) as f64,
                );
                v.insert(
                    "queue.empty_pop_frac",
                    tp.empty_pops as f64 / (tp.empty_pops + tp.chunks_consumed).max(1) as f64,
                );
                v.insert("queue.highwater", tp.highwater as f64);
            }
            v.insert("ledger.residual_pct", 100.0 * (tp.e2e as f64 - ledger) / tp.e2e as f64);
            v.insert("e2e_ns", tp.e2e as f64);
            v
        })
        .collect();

    let mut values = median_over_passes(&per_pass);
    let traced_e2e = values.remove("e2e_ns").expect("every pass has an e2e total");
    let untraced_e2e =
        median(&untraced.iter().map(|p| p.e2e.as_nanos() as f64).collect::<Vec<_>>());
    values.insert("trace.overhead_pct", 100.0 * (traced_e2e - untraced_e2e) / untraced_e2e);
    let probes: Vec<f64> = untraced.iter().map(|p| p.probe_ns).collect();
    values.insert("host.probe_ns", median(&probes));
    values.insert("error_rate", tally.failed as f64 / tally.attempted.max(1) as f64);
    insert_query_latency(&mut values, &lat);
    let notes = vec![format!(
        "{} untraced and {} traced passes over {} programs",
        untraced.len(),
        passes.len(),
        setup.minis.len()
    )];
    Measured {
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        values,
        notes,
        spans: Some(log),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A forced mismatch — a corrupted reference digest — is counted as a
    /// failed operation, and the run still reports its metrics.
    #[test]
    fn corrupted_reference_raises_error_rate() {
        let mut s = setup(Engine::Serial, 11);
        s.minis.truncate(3);
        s.refs.truncate(3);
        let clean = run(&s, 0);
        assert_eq!((clean.attempted, clean.failed), (3, 0), "{:?}", clean.failures);
        s.refs[1].digest ^= 1;
        let bad = run(&s, 0);
        assert_eq!((bad.attempted, bad.failed), (3, 1));
        assert!(bad.failures[0].contains("dependence set differs"), "{:?}", bad.failures);
        assert!(bad.values["events_per_s"] > 0.0);
    }

    #[test]
    fn pipeline_and_mt_checks_pass_on_clean_runs() {
        for engine in [Engine::Pipeline, Engine::Mt] {
            let mut s = setup(engine, 5);
            s.minis.truncate(2);
            s.refs.truncate(2);
            let m = run(&s, 0);
            assert_eq!(m.failed, 0, "{engine:?}: {:?}", m.failures);
            s.refs[0].accesses += 1;
            assert_eq!(run(&s, 0).failed, 1, "{engine:?}: access-count mismatch must fail");
        }
    }
}
