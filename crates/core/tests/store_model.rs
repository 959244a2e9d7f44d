//! Model-based property test for the dependence store: random sequences
//! of adds, loop records, merges, delta application, delta tracking and
//! checkpoint round-trips must leave `DepStore` indistinguishable from a
//! plain ordered-map model — same dependences, loops, counters, drained
//! deltas and checkpoint bytes.

use dp_core::{AnalysisDelta, DeltaEdge, DeltaLoop, DepStore};
use dp_types::loc::loc;
use dp_types::{ByteWriter, DepEdge, DepFlags, DepType, Dependence, LoopId, SinkKey, SourceLoc};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

type EdgeKey = (DepType, SourceLoc, u16, u32);
type Key = (SinkKey, EdgeKey);

#[derive(Debug, Clone, Copy)]
struct Add {
    sink: (u32, u16),
    dtype: u8,
    source: (u32, u16),
    var: u32,
    flags: u8,
    carrier: u8,
}

#[derive(Debug, Clone)]
enum Op {
    Add(Add),
    Loop { id: u8, iters: u8 },
    Merge(Vec<Add>, Vec<(u8, u8)>),
    ApplyDelta(Vec<Add>, Vec<(u8, u8)>),
    EnableDelta,
    TakeDelta,
    SaveLoad,
}

fn add() -> impl Strategy<Value = Add> {
    ((1u32..6, 0u16..2), 0u8..4, (1u32..6, 0u16..2), 0u32..3, (0u8..8, 0u8..5)).prop_map(
        |(sink, dtype, source, var, (flags, carrier))| Add {
            sink,
            dtype,
            source,
            var,
            flags,
            carrier,
        },
    )
}

fn loops() -> impl Strategy<Value = Vec<(u8, u8)>> {
    prop::collection::vec((0u8..4, any::<u8>()), 0..4)
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            12 => add().prop_map(Op::Add),
            3 => (0u8..4, any::<u8>()).prop_map(|(id, iters)| Op::Loop { id, iters }),
            2 => (prop::collection::vec(add(), 0..12), loops())
                .prop_map(|(adds, loops)| Op::Merge(adds, loops)),
            2 => (prop::collection::vec(add(), 0..12), loops())
                .prop_map(|(adds, loops)| Op::ApplyDelta(adds, loops)),
            1 => Just(Op::EnableDelta),
            3 => Just(Op::TakeDelta),
            1 => Just(Op::SaveLoad),
        ],
        1..120,
    )
}

fn dtype(code: u8) -> DepType {
    [DepType::Raw, DepType::War, DepType::Waw, DepType::Init][code as usize]
}

fn dtype_code(d: DepType) -> u8 {
    match d {
        DepType::Raw => 0,
        DepType::War => 1,
        DepType::Waw => 2,
        DepType::Init => 3,
    }
}

fn key(a: &Add) -> Key {
    let sink = SinkKey { loc: loc(1, a.sink.0), thread: a.sink.1 };
    (sink, (dtype(a.dtype), loc(2, a.source.0), a.source.1, a.var))
}

fn carrier(a: &Add) -> Option<LoopId> {
    (a.carrier > 0).then_some(a.carrier as LoopId)
}

fn loop_locs(id: u8) -> (SourceLoc, SourceLoc) {
    (loc(3, id as u32 * 10 + 1), loc(3, id as u32 * 10 + 9))
}

fn feed(store: &mut DepStore, adds: &[Add], loops: &[(u8, u8)]) {
    for a in adds {
        let (sink, (dt, src, thread, var)) = key(a);
        store.add(sink, dt, src, thread, var, DepFlags::from_bits_truncate(a.flags), carrier(a));
    }
    for &(id, iters) in loops {
        let (begin, end) = loop_locs(id);
        store.record_loop(id as LoopId, begin, end, iters as u64);
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Edge {
    count: u64,
    flags: DepFlags,
    carriers: BTreeSet<LoopId>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Rec {
    begin: SourceLoc,
    end: SourceLoc,
    instances: u64,
    iters: u64,
}

type Dirty = (BTreeMap<Key, u64>, BTreeMap<LoopId, (u64, u64)>);

/// Reference model: ordered maps, no hashing, no shared helpers with the
/// store under test.
#[derive(Debug, Default)]
struct Model {
    edges: BTreeMap<Key, Edge>,
    loops: BTreeMap<LoopId, Rec>,
    built: u64,
    dirty: Option<Dirty>,
}

impl Model {
    fn merge_edge(&mut self, k: Key, count: u64, flags: DepFlags, carriers: &BTreeSet<LoopId>) {
        let e = self.edges.entry(k).or_insert(Edge {
            count: 0,
            flags: DepFlags::empty(),
            carriers: BTreeSet::new(),
        });
        if let Some((edges, _)) = self.dirty.as_mut() {
            edges.entry(k).or_insert(e.count);
        }
        e.count += count;
        e.flags |= flags;
        e.carriers.extend(carriers);
    }

    fn merge_loop(&mut self, id: LoopId, begin: SourceLoc, end: SourceLoc, inst: u64, iters: u64) {
        let r = self.loops.entry(id).or_insert(Rec { begin, end, instances: 0, iters: 0 });
        if let Some((_, loops)) = self.dirty.as_mut() {
            loops.entry(id).or_insert((r.instances, r.iters));
        }
        r.instances += inst;
        r.iters += iters;
    }

    fn feed(&mut self, adds: &[Add], loops: &[(u8, u8)]) {
        for a in adds {
            let carriers = carrier(a).into_iter().collect();
            self.merge_edge(key(a), 1, DepFlags::from_bits_truncate(a.flags), &carriers);
            self.built += 1;
        }
        for &(id, iters) in loops {
            let (begin, end) = loop_locs(id);
            self.merge_loop(id as LoopId, begin, end, 1, iters as u64);
        }
    }

    fn apply(&mut self, d: &AnalysisDelta) {
        for e in &d.edges {
            self.merge_edge((e.sink, e.key), e.count_delta, e.flags, &e.carriers);
            self.built += e.count_delta;
        }
        for l in &d.loops {
            self.merge_loop(l.id, l.begin, l.end, l.instances_delta, l.iters_delta);
        }
    }

    fn enable(&mut self) {
        if self.dirty.is_none() {
            let edges = self.edges.keys().map(|k| (*k, 0)).collect();
            let loops = self.loops.keys().map(|id| (*id, (0, 0))).collect();
            self.dirty = Some((edges, loops));
        }
    }

    fn take(&mut self) -> AnalysisDelta {
        let Some((edges, loops)) = self.dirty.as_mut() else {
            return AnalysisDelta::default();
        };
        let edges = std::mem::take(edges).into_iter().map(|(k, base)| {
            let e = &self.edges[&k];
            DeltaEdge {
                sink: k.0,
                key: k.1,
                count_delta: e.count - base,
                flags: e.flags,
                carriers: e.carriers.clone(),
            }
        });
        let loops = std::mem::take(loops).into_iter().map(|(id, (inst, iters))| {
            let r = self.loops[&id];
            DeltaLoop {
                id,
                begin: r.begin,
                end: r.end,
                instances_delta: r.instances - inst,
                iters_delta: r.iters - iters,
            }
        });
        AnalysisDelta { edges: edges.collect(), loops: loops.collect() }
    }

    fn dependences(&self) -> Vec<(Dependence, u64, BTreeSet<LoopId>)> {
        let dep = |(sink, (dtype, source_loc, source_thread, var)): Key, e: &Edge| Dependence {
            sink,
            edge: DepEdge {
                dtype,
                source_loc,
                source_thread,
                var,
                carrier: e.carriers.first().copied(),
                flags: e.flags,
            },
        };
        self.edges.iter().map(|(k, e)| (dep(*k, e), e.count, e.carriers.clone())).collect()
    }

    /// The checkpoint layout, written independently of `DepStore::save`.
    fn save(&self) -> Vec<u8> {
        let mut out = ByteWriter::new();
        out.u64(self.built);
        out.u64(self.edges.len() as u64);
        let sinks: BTreeSet<SinkKey> = self.edges.keys().map(|k| k.0).collect();
        out.u64(sinks.len() as u64);
        for sink in sinks {
            out.u32(sink.loc.pack());
            out.u16(sink.thread);
            let edges: Vec<_> = self.edges.iter().filter(|(k, _)| k.0 == sink).collect();
            out.u64(edges.len() as u64);
            for ((_, (dt, src, thread, var)), e) in edges {
                out.u8(dtype_code(*dt));
                out.u32(src.pack());
                out.u16(*thread);
                out.u32(*var);
                out.u64(e.count);
                out.u8(e.flags.bits());
                out.u32(e.carriers.len() as u32);
                for l in &e.carriers {
                    out.u32(*l);
                }
            }
        }
        out.u64(self.loops.len() as u64);
        for (id, r) in &self.loops {
            out.u32(*id);
            out.u32(r.begin.pack());
            out.u32(r.end.pack());
            out.u64(r.instances);
            out.u64(r.iters);
        }
        out.into_bytes()
    }
}

fn saved(store: &DepStore) -> Vec<u8> {
    let mut out = ByteWriter::new();
    store.save(&mut out);
    out.into_bytes()
}

fn check(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut store = DepStore::new();
    let mut model = Model::default();
    for op in ops {
        match op {
            Op::Add(a) => {
                feed(&mut store, std::slice::from_ref(a), &[]);
                model.feed(std::slice::from_ref(a), &[]);
            }
            Op::Loop { id, iters } => {
                feed(&mut store, &[], &[(*id, *iters)]);
                model.feed(&[], &[(*id, *iters)]);
            }
            Op::Merge(adds, loops) => {
                let mut other = DepStore::new();
                feed(&mut other, adds, loops);
                store.merge(other);
                model.feed(adds, loops);
            }
            Op::ApplyDelta(adds, loops) => {
                let mut other = DepStore::new();
                other.enable_delta();
                feed(&mut other, adds, loops);
                let d = other.take_delta();
                store.apply_delta(&d);
                model.apply(&d);
            }
            Op::EnableDelta => {
                store.enable_delta();
                model.enable();
            }
            Op::TakeDelta => {
                prop_assert_eq!(store.take_delta(), model.take());
            }
            Op::SaveLoad => {
                let bytes = saved(&store);
                prop_assert_eq!(&bytes, &model.save());
                store = DepStore::load(&bytes).map_err(|e| TestCaseError::fail(e.to_string()))?;
                model.dirty = None;
            }
        }
    }
    let deps: Vec<_> = store.dependences().map(|(d, v)| (d, v.count, v.carriers.clone())).collect();
    prop_assert_eq!(deps, model.dependences());
    let loops: Vec<_> = store
        .loops()
        .map(|(id, r)| {
            (*id, Rec { begin: r.begin, end: r.end, instances: r.instances, iters: r.total_iters })
        })
        .collect();
    prop_assert_eq!(loops, model.loops.iter().map(|(id, r)| (*id, *r)).collect::<Vec<_>>());
    prop_assert_eq!(store.deps_built(), model.built);
    prop_assert_eq!(store.merged_len(), model.edges.len() as u64);
    prop_assert_eq!(saved(&store), model.save());
    prop_assert_eq!(store.take_delta(), model.take());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn store_matches_ordered_model(ops in ops()) {
        check(&ops)?;
    }
}
