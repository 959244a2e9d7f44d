//! The served workload: one closed-loop client pushing pre-recorded
//! traces over loopback TCP to an in-process `Server` with the serial
//! session spec, one session per program, while watching the live
//! analysis.
//!
//! The client sends a `Sync` every [`SYNC_EVERY`] stream events and a
//! `Query{ALL}` every [`QUERY_EVERY`] stream events, each right after a
//! `Sync`, so a query's round trip holds the fold and not the server's
//! backlog. Both cadences count stream events, not frames, so the number
//! of queries does not depend on how events are chunked. Every session
//! ends with a final `Sync` and `Query`, then `Finish`.

use crate::catalog::{insert_query_latency, median_over_passes, Measured, Values};
use crate::host::{self, Probe};
use crate::spans::{run_id, Rec, SpanLog};
use crate::stats::median;
use crate::suite::{self, Mini, SLOTS};
use dp_core::{ProfileResult, SessionSpec};
use dp_server::{Server, ServerConfig};
use dp_trace::{CollectTracer, FrameChunker, Interp, NullTracer};
use dp_types::protocol::{self, query_kind, Frame, Hello, MAX_FRAME_BYTES};
use dp_types::TraceEvent;
use std::hint::black_box;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Accesses per `Chunk` frame (the `depprof push` default).
pub const CHUNK_EVENTS: usize = 512;
/// Stream events between two `Sync` round trips.
pub const SYNC_EVERY: u64 = 4096;
/// Stream events between two `Query{ALL}` round trips; a multiple of
/// [`SYNC_EVERY`].
pub const QUERY_EVERY: u64 = 8192;

/// Restricts the calling thread, and every thread it spawns from now on,
/// to the lowest CPU it may run on; returns that CPU.
///
/// The served workload runs pinned. Its client and the server's
/// connection thread hand off to each other at every `Sync` and `Query`;
/// across CPUs of a virtual machine each hand-off waits for the
/// hypervisor to wake an idle CPU, and that wait varied the query round
/// trip by a fifth between otherwise identical runs. On one CPU a
/// hand-off is a context switch, and the measurement is the service
/// path's own cost.
pub fn pin_to_one_cpu() -> std::io::Result<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable 1024-bit CPU set of exactly `size`
    // bytes, the size glibc's `cpu_set_t` has; pid 0 is this thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let cpu = (0..1024).find(|&c| mask[c / 64] & (1 << (c % 64)) != 0).ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::NotFound, "empty CPU affinity mask")
    })?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable CPU set of `size` bytes naming a CPU
    // the thread was already allowed to run on; pid 0 is this thread.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(cpu)
}

/// The session spec every served session opens with.
pub fn spec() -> SessionSpec {
    SessionSpec { parallel: false, slots: SLOTS, ..SessionSpec::default() }
}

/// One step of the client's stream.
#[derive(Debug)]
pub enum Step {
    /// Write this frame; no reply.
    Frame(Frame),
    /// A `Sync` round trip; the acked position must equal the number of
    /// events pushed so far.
    Sync(u64),
    /// A `Query{ALL}` round trip.
    Query,
}

/// Turns a trace into the client's steps, placing `Sync` and `Query`
/// by event position.
pub struct Feeder {
    chunker: FrameChunker,
    pos: u64,
    sync_every: u64,
    query_every: u64,
}

impl Feeder {
    /// A feeder chunking `chunk_events` accesses per frame.
    pub fn new(chunk_events: usize, sync_every: u64, query_every: u64) -> Self {
        Feeder { chunker: FrameChunker::new(chunk_events), pos: 0, sync_every, query_every }
    }

    fn control(&mut self, out: &mut Vec<Step>, query: bool) {
        if let Some(f) = self.chunker.flush() {
            out.push(Step::Frame(f));
        }
        out.push(Step::Sync(self.pos));
        if query {
            out.push(Step::Query);
        }
    }

    /// Appends the steps that event `ev` makes ready.
    pub fn push(&mut self, ev: TraceEvent, out: &mut Vec<Step>) {
        out.extend(self.chunker.push(ev).into_iter().map(Step::Frame));
        self.pos += 1;
        let query = self.pos.is_multiple_of(self.query_every);
        if query || self.pos.is_multiple_of(self.sync_every) {
            self.control(out, query);
        }
    }

    /// Appends the end-of-stream steps: flush, final `Sync` and `Query`.
    pub fn finish(&mut self, out: &mut Vec<Step>) {
        self.control(out, true);
    }
}

/// A served program with its offline reference.
pub struct Served {
    /// The program.
    pub mini: Mini,
    /// Its recorded trace.
    pub events: Vec<TraceEvent>,
    /// The `Hello` name table.
    pub names: Vec<String>,
    /// Accesses in the trace.
    pub accesses: u64,
    /// Offline `report::render` of the same spec over the same trace.
    pub report: String,
    /// Offline `posthoc_report(..).to_json(ALL)`.
    pub posthoc_json: String,
    /// Offline profile memory, bytes.
    pub memory: usize,
}

/// A running in-process server.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: &'static AtomicBool,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl ServerHandle {
    fn start() -> std::io::Result<ServerHandle> {
        let server = Server::bind_tcp("127.0.0.1:0", ServerConfig::default())?;
        let addr = server.local_addr().expect("TCP-bound server has an address");
        // `Server::run` wants a flag that lives for the whole program.
        let stop: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
        let thread = std::thread::spawn(move || server.run(stop));
        Ok(ServerHandle { addr, stop, thread: Some(thread) })
    }

    /// Stops the accept loop and waits for it and every connection
    /// thread to end.
    pub fn shutdown(mut self) -> std::io::Result<()> {
        self.stop_and_join()
    }

    fn stop_and_join(&mut self) -> std::io::Result<()> {
        self.stop.store(true, Ordering::SeqCst);
        match self.thread.take() {
            Some(t) => {
                t.join().map_err(|_| std::io::Error::other("server accept loop panicked"))?
            }
            None => Ok(()),
        }
    }
}

impl Drop for ServerHandle {
    /// Stops a server that was not shut down explicitly (an earlier
    /// set-up repetition); errors are ignored here.
    fn drop(&mut self) {
        let _ = self.stop_and_join();
    }
}

/// Set-up output of the served workload.
pub struct Setup {
    /// The programs, traces and references.
    pub programs: Vec<Served>,
    /// The server.
    pub server: ServerHandle,
}

fn offline_reference(events: &[TraceEvent]) -> ProfileResult {
    let mut s = spec().build();
    for ev in events {
        s.on_event(*ev);
    }
    s.finish()
}

/// Builds the programs, records their traces and references, and binds
/// the server.
pub fn setup(seed: u64) -> std::io::Result<Setup> {
    let programs = suite::served_minis(seed)
        .into_iter()
        .map(|mini| {
            let mut t = CollectTracer::new();
            Interp::new(&mini.program).run_seq(&mut t);
            let r = offline_reference(&t.events);
            Served {
                names: suite::names(&mini.program),
                accesses: r.stats.accesses,
                report: dp_core::report::render(&r, &mini.program.interner, false),
                posthoc_json: dp_analysis::posthoc_report(&r).to_json(
                    &mini.program.interner,
                    true,
                    true,
                    true,
                ),
                memory: r.memory.total(),
                events: t.events,
                mini,
            }
        })
        .collect();
    Ok(Setup { programs, server: ServerHandle::start()? })
}

/// Client-side timings, accumulated over a run.
#[derive(Default)]
struct SessionTimes {
    queries: Vec<Duration>,
    /// Traced passes only: client time inside `write_frame` for stream
    /// frames (payload encoding plus the socket send), nanoseconds.
    send_ns: u64,
}

fn send(conn: &mut TcpStream, frame: &Frame) -> Result<(), String> {
    protocol::write_frame(conn, frame).map_err(|e| format!("write: {e}"))
}

fn round_trip(conn: &mut TcpStream, frame: &Frame) -> Result<Frame, String> {
    send(conn, frame)?;
    conn.flush().map_err(|e| format!("flush: {e}"))?;
    match protocol::read_frame(conn, MAX_FRAME_BYTES) {
        Ok(Some(f @ (Frame::Busy { .. } | Frame::Error { .. }))) => {
            Err(format!("server answered {f:?}"))
        }
        Ok(Some(f)) => Ok(f),
        Ok(None) => Err("server closed the connection".into()),
        Err(e) => Err(format!("read: {e}")),
    }
}

/// Attempted and failed operations of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }
}

/// One session, `Hello` to `Report`, checked against the offline
/// reference. Every query is an operation; so is the session itself.
fn session(
    addr: SocketAddr,
    name: String,
    p: &Served,
    rec: &mut Rec<'_>,
    times: &mut SessionTimes,
    tally: &mut Tally,
) {
    tally.attempted += 1;
    if let Err(why) = session_inner(addr, name, p, rec, times, tally) {
        tally.fail(format!("{}: {why}", p.mini.program.name));
    }
}

fn session_inner(
    addr: SocketAddr,
    name: String,
    p: &Served,
    rec: &mut Rec<'_>,
    times: &mut SessionTimes,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut conn = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    conn.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
    protocol::write_preamble(&mut conn).map_err(|e| format!("preamble: {e}"))?;
    protocol::read_preamble(&mut conn).map_err(|e| format!("preamble: {e}"))?;
    let hello = Frame::Hello(Hello {
        session: name,
        spec: spec().encode(),
        checkpoint_every: 0,
        names: p.names.clone(),
    });
    match rec.span("server.hello", || round_trip(&mut conn, &hello))? {
        Frame::HelloAck { resume_from: 0, .. } => {}
        other => return Err(format!("wanted a fresh HelloAck, got {other:?}")),
    }
    let mut feeder = Feeder::new(CHUNK_EVENTS, SYNC_EVERY, QUERY_EVERY);
    let mut steps = Vec::new();
    let mut last_json = String::new();
    let mut nonce = 0u64;
    let mut query_id = 0u64;
    for i in 0..=p.events.len() {
        match p.events.get(i) {
            Some(ev) => feeder.push(*ev, &mut steps),
            None => feeder.finish(&mut steps),
        }
        for step in steps.drain(..) {
            match step {
                Step::Frame(f) if rec.log.is_some() => {
                    let t = Instant::now();
                    send(&mut conn, &f)?;
                    times.send_ns += t.elapsed().as_nanos() as u64;
                }
                Step::Frame(f) => send(&mut conn, &f)?,
                Step::Sync(pos) => {
                    nonce += 1;
                    let reply =
                        rec.span("server.sync", || round_trip(&mut conn, &Frame::Sync { nonce }))?;
                    match reply {
                        Frame::SyncAck { nonce: n, position } if n == nonce && position == pos => {}
                        other => return Err(format!("Sync at {pos}: got {other:?}")),
                    }
                }
                Step::Query => {
                    query_id += 1;
                    tally.attempted += 1;
                    let t = Instant::now();
                    let reply = rec.span("server.query", || {
                        round_trip(&mut conn, &Frame::Query { id: query_id, kind: query_kind::ALL })
                    });
                    let took = t.elapsed();
                    match reply {
                        Ok(Frame::QueryResult { id, json, .. }) if id == query_id => {
                            times.queries.push(took);
                            last_json = json;
                        }
                        other => {
                            tally.fail(format!("query {query_id}: {other:?}"));
                            return Err("query failed".into());
                        }
                    }
                }
            }
        }
    }
    let report = match rec.span("server.finish", || round_trip(&mut conn, &Frame::Finish))? {
        Frame::Report { text } => text,
        other => return Err(format!("wanted Report, got {other:?}")),
    };
    if report != p.report {
        return Err("served report differs from the offline render".into());
    }
    if !last_json.ends_with(&p.posthoc_json[1..]) {
        return Err("final live query differs from the post-hoc report".into());
    }
    Ok(())
}

/// One pass: every program once, in order.
struct Pass {
    accesses: u64,
    /// Per-session wall time, `Hello` to `Report`.
    sessions: Vec<Duration>,
    /// Client send time of the pass (traced passes only), nanoseconds.
    send_ns: u64,
    /// The host probe's reading over the pass, ns.
    probe_ns: f64,
}

impl Pass {
    /// Session time of the pass, seconds.
    fn e2e(&self) -> f64 {
        self.sessions.iter().map(Duration::as_secs_f64).sum()
    }
}

struct Runner<'s> {
    setup: &'s Setup,
    seed: u64,
    next_session: u64,
    tally: Tally,
    times: SessionTimes,
    probe: Probe,
}

impl<'s> Runner<'s> {
    fn new(setup: &'s Setup, seed: u64) -> Self {
        Runner {
            setup,
            seed,
            next_session: 0,
            tally: Tally::default(),
            times: SessionTimes::default(),
            probe: Probe::default(),
        }
    }

    /// Every session once; the host probe samples before each.
    fn pass(&mut self, mut log: Option<&mut SpanLog>, pass: usize) -> Pass {
        let send_before = self.times.send_ns;
        let mut sessions = Vec::new();
        for (i, p) in self.setup.programs.iter().enumerate() {
            self.probe.sample();
            self.next_session += 1;
            let name = format!("perfbench-{}-{}", self.seed, self.next_session);
            let run = run_id(pass, i);
            let root = log.as_mut().map(|l| l.open("e2e", run, None));
            let mut rec = Rec { log: log.as_deref_mut(), run, root };
            let t = Instant::now();
            session(self.setup.server.addr, name, p, &mut rec, &mut self.times, &mut self.tally);
            sessions.push(t.elapsed());
            if let (Some(l), Some(root)) = (log.as_mut(), root) {
                l.close(root);
            }
        }
        let accesses = self.setup.programs.iter().map(|p| p.accesses).sum();
        let probe_ns = self.probe.take();
        Pass { accesses, sessions, send_ns: self.times.send_ns - send_before, probe_ns }
    }

    fn passes(&mut self, budget: Duration) -> Vec<Pass> {
        let start = Instant::now();
        let mut out = Vec::new();
        while out.is_empty() || start.elapsed() < budget {
            out.push(self.pass(None, 0));
        }
        out
    }
}

fn ms(d: &Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The untraced run: the end-to-end metrics.
pub fn run(setup: &Setup, seed: u64, seconds: u64) -> Measured {
    let mut r = Runner::new(setup, seed);
    let passes = r.passes(Duration::from_secs(seconds));
    let accesses = passes.iter().map(|p| p.accesses).sum::<u64>() as f64;
    let raw_s: f64 = passes.iter().map(Pass::e2e).sum();
    let scaled_s: f64 = passes.iter().map(|p| host::at_reference(p.e2e(), p.probe_ns)).sum();
    let probes: Vec<f64> = passes.iter().map(|p| p.probe_ns).collect();
    let q: Vec<f64> = r.times.queries.iter().map(ms).collect();
    let mut values = Values::new();
    values.insert("events_per_s", accesses / scaled_s);
    values.insert(
        "mem_peak_mb",
        setup.programs.iter().map(|p| p.memory).max().unwrap_or(0) as f64 / 1e6,
    );
    insert_query_latency(&mut values, &q);
    let notes = vec![
        format!(
            "raw {:.0} events/s; host probe median {:.2} ns (reference {})",
            accesses / raw_s,
            median(&probes),
            host::REFERENCE_NS
        ),
        format!("per-pass host probe ns: {:.2?}", probes),
        format!(
            "{} passes over {} sessions each; query round trips n={} (≥10 beyond p95: {}); \
         mem_peak_mb is the offline profile memory of the same spec over the same traces",
            passes.len(),
            setup.programs.len(),
            q.len(),
            crate::stats::beyond(q.len(), 95.0) >= crate::stats::MIN_TAIL
        ),
    ];
    Measured {
        attempted: r.tally.attempted,
        failed: r.tally.failed,
        failures: r.tally.failures,
        values,
        notes,
        spans: None,
    }
}

/// Isolated layer measurements of one served program, recorded as root
/// spans sharing the session's run id: native interpretation, encoding
/// and decoding of the client's frames, and a socket-free replay through
/// a `ProfileSession` whose live queries are child spans. Returns
/// `(frames, bytes, final profile)`.
fn isolated(p: &Served, log: &mut SpanLog, run: u64) -> (u64, u64, ProfileResult) {
    let vm = Interp::new(&p.mini.program);
    let s = log.open("trace.interp", run, None);
    vm.run_seq(&mut NullTracer);
    log.close(s);

    let mut bytes = Vec::new();
    let mut frames = 0u64;
    let s = log.open("protocol.encode", run, None);
    let mut chunker = FrameChunker::new(CHUNK_EVENTS);
    for ev in &p.events {
        for f in chunker.push(*ev) {
            protocol::write_frame(&mut bytes, &f).expect("encoding into memory");
            frames += 1;
        }
    }
    if let Some(f) = chunker.flush() {
        protocol::write_frame(&mut bytes, &f).expect("encoding into memory");
        frames += 1;
    }
    log.close(s);
    let s = log.open("protocol.decode", run, None);
    let mut cursor = std::io::Cursor::new(&bytes);
    let mut decoded = 0u64;
    while let Some(f) =
        protocol::read_frame(&mut cursor, MAX_FRAME_BYTES).expect("own bytes decode")
    {
        decoded += 1;
        black_box(f);
    }
    log.close(s);
    assert_eq!(decoded, frames, "every encoded frame decodes");

    let mut session = spec().build();
    session.enable_online();
    let mut online = dp_analysis::OnlineAnalysis::new();
    let root = log.open("core.session.replay", run, None);
    let mut fold = |session: &mut dp_core::ProfileSession, log: &mut SpanLog| {
        let s = log.open("analysis.fold", run, Some(root));
        for delta in session.collect_deltas() {
            online.fold(&delta);
        }
        black_box(online.report().to_json(&p.mini.program.interner, true, true, true));
        log.close(s);
    };
    for (i, ev) in p.events.iter().enumerate() {
        session.on_event(*ev);
        if (i as u64 + 1).is_multiple_of(QUERY_EVERY) {
            fold(&mut session, log);
        }
    }
    fold(&mut session, log);
    log.close(root);
    (frames, bytes.len() as u64, session.finish())
}

/// The traced run: per-layer metrics plus the tracing overhead against
/// untraced passes measured in the same process.
pub fn run_traced(setup: &Setup, seed: u64, seconds: u64) -> Measured {
    let half = Duration::from_secs(seconds).div_f64(2.0);
    let mut r = Runner::new(setup, seed);
    let untraced = r.passes(half);
    let untraced_queries: Vec<f64> = r.times.queries.iter().map(ms).collect();
    let mut log = SpanLog::default();
    let mut traced: Vec<(Pass, u64, u64, Vec<ProfileResult>)> = Vec::new();
    let start = Instant::now();
    while traced.is_empty() || start.elapsed() < half {
        let idx = traced.len();
        let pass = r.pass(Some(&mut log), idx);
        let (mut frames, mut bytes, mut results) = (0, 0, Vec::new());
        for (i, p) in setup.programs.iter().enumerate() {
            let (f, b, res) = isolated(p, &mut log, run_id(idx, i));
            frames += f;
            bytes += b;
            results.push(res);
        }
        traced.push((pass, frames, bytes, results));
    }

    let by_pass = log.self_by_pass(traced.len());
    let syncs: Vec<f64> = log
        .spans()
        .iter()
        .filter(|s| s.name == "server.sync")
        .map(|s| (s.end - s.start) as f64 / 1e6)
        .collect();
    let events: u64 = setup.programs.iter().map(|p| p.events.len() as u64).sum();
    let ev = events as f64;
    let per_pass: Vec<Values> = traced
        .iter()
        .zip(&by_pass)
        .map(|((pass, frames, bytes, results), st)| {
            let g = |n: &str| st.get(n).map_or(0.0, |x| x.0 as f64);
            let cnt = |n: &str| st.get(n).map_or(0.0, |x| x.1 as f64).max(1.0);
            let e2e: f64 = pass.sessions.iter().map(|d| d.as_nanos() as f64).sum();
            let mut v = Values::new();
            v.insert("trace.interp_ns_per_event", g("trace.interp") / ev);
            v.insert("protocol.encode_ns_per_event", g("protocol.encode") / ev);
            v.insert("protocol.decode_ns_per_event", g("protocol.decode") / ev);
            v.insert("protocol.bytes_per_event", *bytes as f64 / ev);
            v.insert("protocol.frames_per_event", *frames as f64 / ev);
            v.insert("core.session.feed_ns_per_event", g("core.session.replay") / ev);
            v.insert("socket.send_ns_per_event", pass.send_ns as f64 / ev);
            v.insert("analysis.fold_us_per_query", g("analysis.fold") / cnt("analysis.fold") / 1e3);
            v.insert("server.hello_ms", g("server.hello") / cnt("server.hello") / 1e6);
            v.insert("server.finish_ms", g("server.finish") / cnt("server.finish") / 1e6);
            let sig = results.iter().fold((0u64, 0u64, 0u64), |a, r| {
                let s = &r.metrics.signatures;
                (a.0 + s.occupied_slots, a.1 + s.total_slots, a.2 + s.evictions)
            });
            v.insert("sig.occupancy_pct", 100.0 * sig.0 as f64 / sig.1.max(1) as f64);
            v.insert("sig.evictions", sig.2 as f64);
            let built: u64 = results.iter().map(|r| r.stats.deps_built).sum();
            let merged: u64 = results.iter().map(|r| r.stats.deps_merged).sum();
            v.insert("core.store.dedup_ratio", built as f64 / merged.max(1) as f64);
            v.insert(
                "core.store.mem_mb",
                results.iter().map(|r| r.deps.memory_usage()).sum::<usize>() as f64 / 1e6,
            );
            v.insert("slowdown", e2e / g("trace.interp"));
            // The client's critical path: its sends plus every round trip,
            // which holds whatever server work (decode, feed, fold) the
            // client waits for. What remains is connect, chunking and the
            // client loop.
            let ledger = pass.send_ns as f64
                + g("server.hello")
                + g("server.sync")
                + g("server.query")
                + g("server.finish");
            v.insert("ledger.residual_pct", 100.0 * (e2e - ledger) / e2e);
            v.insert("e2e_ns", e2e);
            v
        })
        .collect();

    let mut values = median_over_passes(&per_pass);
    let traced_e2e = values.remove("e2e_ns").expect("every pass has an e2e total");
    let untraced_e2e = median(
        &untraced
            .iter()
            .map(|p| p.sessions.iter().map(|d| d.as_nanos() as f64).sum())
            .collect::<Vec<_>>(),
    );
    values.insert("trace.overhead_pct", 100.0 * (traced_e2e - untraced_e2e) / untraced_e2e);
    if !syncs.is_empty() {
        values.insert("server.sync_p50_ms", median(&syncs));
    }
    let probes: Vec<f64> = untraced.iter().map(|p| p.probe_ns).collect();
    values.insert("host.probe_ns", median(&probes));
    values.insert("error_rate", r.tally.failed as f64 / r.tally.attempted.max(1) as f64);
    insert_query_latency(&mut values, &untraced_queries);
    let notes = vec![format!(
        "{} untraced and {} traced passes over {} sessions each",
        untraced.len(),
        traced.len(),
        setup.programs.len()
    )];
    Measured {
        attempted: r.tally.attempted,
        failed: r.tally.failed,
        failures: r.tally.failures,
        values,
        notes,
        spans: Some(log),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steps_for(events: &[TraceEvent], chunk: usize) -> Vec<Step> {
        let mut f = Feeder::new(chunk, 64, 256);
        let mut out = Vec::new();
        for ev in events {
            f.push(*ev, &mut out);
        }
        f.finish(&mut out);
        out
    }

    /// The query cadence counts stream events, so two chunk sizes give
    /// the same queries at the same positions.
    #[test]
    fn query_cadence_is_independent_of_chunk_size() {
        let mini = suite::sequential_minis(1).into_iter().find(|m| m.program.name == "BT").unwrap();
        let mut t = CollectTracer::new();
        Interp::new(&mini.program).run_seq(&mut t);
        let mid = t.events.len() / 2;
        let events = &t.events[mid..mid + 5000];
        let controls = |steps: &[Step]| -> Vec<(u64, bool)> {
            let mut out = Vec::new();
            for (i, s) in steps.iter().enumerate() {
                if let Step::Sync(pos) = s {
                    out.push((*pos, matches!(steps.get(i + 1), Some(Step::Query))));
                }
            }
            out
        };
        let small = steps_for(events, 1);
        let large = steps_for(events, 4096);
        let queries = |s: &[Step]| s.iter().filter(|s| matches!(s, Step::Query)).count();
        // 5000 events: queries at 256, 512, ..., 4864, plus the final one.
        assert_eq!(queries(&small), 5000 / 256 + 1);
        assert_eq!(queries(&small), queries(&large));
        assert_eq!(controls(&small), controls(&large));
        // The frames differ, but carry the same events in the same order.
        let frames = |s: &[Step]| s.iter().filter(|s| matches!(s, Step::Frame(_))).count();
        assert!(frames(&small) > frames(&large), "{} vs {}", frames(&small), frames(&large));
        let unpacked = |s: Vec<Step>| -> Vec<TraceEvent> {
            s.into_iter()
                .filter_map(|s| match s {
                    Step::Frame(f) => Some(dp_trace::frame_events(f)),
                    _ => None,
                })
                .flatten()
                .collect()
        };
        assert_eq!(unpacked(small), events);
        assert_eq!(unpacked(large), events);
    }
}
