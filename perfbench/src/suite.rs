//! Workload programs, their seeding, and the references each run is
//! checked against. Everything here is set-up: it runs before any timed
//! span.

use dp_analysis::LoopMeta;
use dp_core::ProfileResult;
use dp_trace::workloads::{nas_suite, starbench_parallel_suite, starbench_suite, Scale};
use dp_trace::{Interp, Program};
use dp_types::{ThreadId, TraceEvent, Tracer, TracerFactory};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// Logical CPUs the load is sized for. The pipeline runs `NPROC - 1`
/// workers next to the producing thread; MT targets run `NPROC` threads.
/// Fixed rather than probed, so a run does the same work on any host.
pub const NPROC: usize = 2;

/// Total signature slots: the paper's 10⁸-slot configuration scaled by
/// the minis' ~10⁻² address scaling, so the read and write signatures
/// together take 2 × 16 B × slots = 32 MB, larger than any L2.
pub const SLOTS: usize = 1_000_000;

/// Workload size multiplier (1.0 = the default minis).
pub const SCALE: Scale = Scale(1.0);

/// One program of a suite, seeded for this run.
pub struct Mini {
    /// The seeded program.
    pub program: Program,
    /// Static loop table for the post-hoc classification.
    pub loops: Vec<LoopMeta>,
}

/// The program's value seed for benchmark seed `seed`: a mix of the seed
/// and the program name, so each program draws its own random values and
/// the data-dependent address streams (IS keys, EP samples) move with
/// the seed.
pub fn program_seed(seed: u64, name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for b in name.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^ (h >> 29)
}

fn seeded(mut program: Program, seed: u64) -> Mini {
    program.seed = program_seed(seed, &program.name);
    let loops = program
        .loops
        .iter()
        .map(|l| LoopMeta { id: l.id, name: l.name.clone(), omp: l.omp })
        .collect();
    Mini { program, loops }
}

/// The 19 sequential NAS and Starbench minis.
pub fn sequential_minis(seed: u64) -> Vec<Mini> {
    nas_suite(SCALE)
        .into_iter()
        .chain(starbench_suite(SCALE))
        .map(|w| seeded(w.program, seed))
        .collect()
}

/// The 11 pthread-style Starbench minis with `NPROC` target threads.
pub fn parallel_minis(seed: u64) -> Vec<Mini> {
    starbench_parallel_suite(SCALE, NPROC as u32)
        .into_iter()
        .map(|w| seeded(w.program, seed))
        .collect()
}

/// The sequential minis pushed by the served workload: the seed-dependent
/// IS keys, tinyjpeg with its short alternating loops, and rgbyuv and
/// h264dec, the two with the most distinct dependences, so a live query
/// folds and renders real analysis state rather than timing the socket
/// alone. One pass over them repeats several times in a run.
pub const SERVED_PROGRAMS: [&str; 4] = ["IS", "tinyjpeg", "rgbyuv", "h264dec"];

/// The served workload's programs, in [`SERVED_PROGRAMS`] order.
pub fn served_minis(seed: u64) -> Vec<Mini> {
    let mut all = sequential_minis(seed);
    SERVED_PROGRAMS
        .iter()
        .map(|name| {
            let i = all.iter().position(|m| m.program.name == *name).expect("served mini exists");
            all.swap_remove(i)
        })
        .collect()
}

/// Order-independent fingerprint of a profile's dependence set: every
/// dependence with its occurrence count, sorted, hashed.
pub fn dep_digest(result: &ProfileResult) -> u64 {
    let mut deps: Vec<_> = result.deps.dependences().map(|(d, e)| (d, e.count)).collect();
    deps.sort_unstable();
    let mut h = std::collections::hash_map::DefaultHasher::new();
    deps.hash(&mut h);
    h.finish()
}

/// Every interned variable name in id order: the `Hello` name table
/// that makes a served report resolve names like an offline one.
pub fn names(program: &Program) -> Vec<String> {
    (0..program.interner.len()).map(|i| program.interner.resolve(i as u32).to_owned()).collect()
}

/// Counts the accesses of a multi-threaded run without keeping them.
#[derive(Default)]
pub struct CountAccesses(AtomicU64);

/// Per-thread counter of [`CountAccesses`].
pub struct ThreadCount(u64);

impl Tracer for ThreadCount {
    fn event(&mut self, ev: TraceEvent) {
        self.0 += u64::from(matches!(ev, TraceEvent::Access(_)));
    }
}

impl TracerFactory for CountAccesses {
    type Tracer = ThreadCount;

    fn tracer(&self, _tid: ThreadId) -> ThreadCount {
        ThreadCount(0)
    }

    fn join(&self, _tid: ThreadId, t: ThreadCount) {
        self.0.fetch_add(t.0, Ordering::Relaxed);
    }
}

impl CountAccesses {
    /// Accesses one `run_mt` of `program` performs.
    pub fn of(program: &Program) -> u64 {
        let f = CountAccesses::default();
        Interp::new(program).run_mt(&f);
        f.0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_differ_by_seed_and_name_and_repeat() {
        assert_eq!(program_seed(1, "IS"), program_seed(1, "IS"));
        assert_ne!(program_seed(1, "IS"), program_seed(2, "IS"));
        assert_ne!(program_seed(1, "IS"), program_seed(1, "CG"));
        let a = sequential_minis(3);
        assert_eq!(a.len(), 19);
        assert_eq!(parallel_minis(3).len(), 11);
        let served: Vec<_> = served_minis(3).iter().map(|m| m.program.name.clone()).collect();
        assert_eq!(served, SERVED_PROGRAMS);
    }
}
