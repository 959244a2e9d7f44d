//! In-memory spans for the traced run.
//!
//! A span is a named interval around one call into a layer, with the
//! span that caused it as parent and a run id shared by everything done
//! for one program or one session. Spans live in the benchmark only —
//! the program itself is not instrumented — and are written out as JSON
//! lines when the run ends.
//!
//! A span's self time is its duration minus the part of its interval
//! that its children cover. Children may nest or overlap (the served
//! workload has client and server work in flight at once), so the
//! covered part is the length of the union of the child intervals,
//! clipped to the parent.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a span in its [`SpanLog`].
pub type SpanId = usize;

/// One recorded span (times in nanoseconds since the log's origin).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call name, e.g. `core.seq.finish`.
    pub name: &'static str,
    /// Program or session this span belongs to.
    pub run: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start, ns since the origin.
    pub start: u64,
    /// End, ns since the origin (`start` until closed).
    pub end: u64,
}

/// The span store of one benchmark run.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog { origin: Instant::now(), spans: Vec::new() }
    }
}

impl SpanLog {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now.
    pub fn open(&mut self, name: &'static str, run: u64, parent: Option<SpanId>) -> SpanId {
        let t = self.now();
        self.spans.push(Span { name, run, parent, start: t, end: t });
        self.spans.len() - 1
    }

    /// Closes a span now.
    pub fn close(&mut self, id: SpanId) {
        let t = self.now();
        self.spans[id].end = t;
    }

    /// Records an already measured span.
    #[cfg(test)]
    pub fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// All spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time (ns) of every span, indexed like [`SpanLog::spans`].
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| self_time((s.start, s.end), &kids))
            .collect()
    }

    /// Self times grouped by span name.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            out.entry(s.name).or_default().push(t);
        }
        out
    }

    /// Per traced pass (see [`run_id`]), each span name's summed self
    /// time (ns) and span count.
    pub fn self_by_pass(&self, passes: usize) -> Vec<BTreeMap<&'static str, (u64, u64)>> {
        let mut out = vec![BTreeMap::new(); passes];
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            let e: &mut (u64, u64) = out[pass_of(s.run)].entry(s.name).or_default();
            e.0 += t;
            e.1 += 1;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for ((i, s), own) in self.spans.iter().enumerate().zip(self.self_times()) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"run\":{},\"parent\":{parent},\"start_ns\":{},\
                 \"end_ns\":{},\"self_ns\":{own}}}",
                s.name, s.run, s.start, s.end
            )?;
        }
        Ok(())
    }
}

/// Run id of program or session `i` in traced pass `pass`.
pub fn run_id(pass: usize, i: usize) -> u64 {
    ((pass as u64) << 16) | i as u64
}

/// The traced pass a run id belongs to.
pub fn pass_of(run: u64) -> usize {
    (run >> 16) as usize
}

/// Span recording that may be switched off: untraced runs pass
/// `log: None` and record nothing.
pub struct Rec<'a> {
    /// Where spans go, if anywhere.
    pub log: Option<&'a mut SpanLog>,
    /// Run id of every span recorded through this handle.
    pub run: u64,
    /// Parent of the spans [`Rec::span`] records.
    pub root: Option<SpanId>,
}

impl Rec<'_> {
    /// Opens a span under `parent` when recording.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        let run = self.run;
        self.log.as_mut().map(|l| l.open(name, run, parent))
    }

    /// Closes a span opened by [`Rec::open`].
    pub fn close(&mut self, id: Option<SpanId>) {
        if let (Some(l), Some(id)) = (self.log.as_mut(), id) {
            l.close(id);
        }
    }

    /// Runs `f` inside a span named `name`, a child of `root`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, self.root);
        let out = f();
        self.close(id);
        out
    }
}

/// Duration of `parent` minus the length of the union of `children`,
/// each clipped to the parent's interval.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (ps, pe) = parent;
    let mut kids: Vec<(u64, u64)> =
        children.iter().map(|&(s, e)| (s.max(ps), e.min(pe))).filter(|&(s, e)| e > s).collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in kids {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    (pe - ps) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_disjoint_overlapping_and_clipped_children() {
        assert_eq!(self_time((0, 100), &[]), 100);
        // Disjoint children.
        assert_eq!(self_time((0, 100), &[(10, 20), (50, 70)]), 70);
        // Overlapping children count their union once.
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 60)]), 50);
        // A child contained in another adds nothing.
        assert_eq!(self_time((0, 100), &[(10, 60), (20, 30)]), 50);
        // Touching intervals merge without a gap.
        assert_eq!(self_time((0, 100), &[(10, 20), (20, 30)]), 80);
        // Children reaching outside the parent are clipped to it.
        assert_eq!(self_time((50, 100), &[(0, 60), (90, 200)]), 30);
        // Fully covered parent.
        assert_eq!(self_time((0, 10), &[(0, 10)]), 0);
    }

    #[test]
    fn nested_spans_charge_each_level_its_own_time() {
        let mut log = SpanLog::default();
        let root = log.push(Span { name: "e2e", run: 1, parent: None, start: 0, end: 100 });
        let a = log.push(Span { name: "a", run: 1, parent: Some(root), start: 10, end: 60 });
        log.push(Span { name: "a.inner", run: 1, parent: Some(a), start: 20, end: 30 });
        log.push(Span { name: "a.inner", run: 1, parent: Some(a), start: 25, end: 40 });
        log.push(Span { name: "b", run: 1, parent: Some(root), start: 50, end: 80 });
        // root: 100 - |[10,60) ∪ [50,80)| = 100 - 70; a: 50 - |[20,40)|.
        assert_eq!(log.self_times(), vec![30, 30, 10, 15, 30]);
        let by = log.self_by_name();
        assert_eq!(by["a.inner"], vec![10, 15]);
        let per_pass = log.self_by_pass(1);
        assert_eq!(per_pass[0]["a.inner"], (25, 2));
        assert_eq!(pass_of(run_id(3, 7)), 3);
        // Self times of a tree sum to the root's duration when children
        // stay inside their parents and do not overlap one another.
        let mut tree = SpanLog::default();
        let r = tree.push(Span { name: "r", run: 2, parent: None, start: 0, end: 90 });
        let c = tree.push(Span { name: "c", run: 2, parent: Some(r), start: 5, end: 50 });
        tree.push(Span { name: "g", run: 2, parent: Some(c), start: 10, end: 20 });
        tree.push(Span { name: "d", run: 2, parent: Some(r), start: 60, end: 70 });
        assert_eq!(tree.self_times().iter().sum::<u64>(), 90);
    }

    #[test]
    fn open_close_and_jsonl() {
        let mut log = SpanLog::default();
        let p = log.open("outer", 7, None);
        let c = log.open("inner", 7, Some(p));
        log.close(c);
        log.close(p);
        let s = log.spans();
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
        let mut buf = Vec::new();
        log.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"name\":\"inner\",\"run\":7,\"parent\":0"));
    }
}
