//! The socket front-end: accept loop, per-connection threads, the
//! global session cap, and shutdown/disconnect handling.

use crate::chaos::{ChaosStream, NetFaultPlan};
use crate::engine::SessionEngine;
use crate::shutdown;
use dp_types::protocol::{
    self, error_code, Frame, ProtocolError, MAX_FRAME_BYTES, PROTOCOL_MAGIC, PROTOCOL_VERSION,
};
use std::collections::{HashMap, HashSet};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Server-wide policy knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Concurrent-session cap; a client past it receives a typed
    /// `Busy{retry_after_ms}` instead of queueing invisibly.
    pub max_sessions: usize,
    /// Base directory for per-session checkpoints (`<dir>/<session>`);
    /// `None` disables durability.
    pub checkpoint_dir: Option<PathBuf>,
    /// Default checkpoint interval (events) for sessions whose `Hello`
    /// leaves it at 0. 0 = only emergency checkpoints.
    pub checkpoint_every: u64,
    /// Per-frame payload bound — the connection's bounded read buffer.
    pub max_frame_bytes: usize,
    /// How often blocked reads wake up to observe the shutdown flag.
    pub poll_interval_ms: u64,
    /// The reconnect-delay hint handed to refused clients in `Busy`.
    pub busy_retry_ms: u64,
    /// Hibernate a durable session whose connection has been idle this
    /// long: checkpoint it, evict the engine, free the slot (0 = never).
    /// The client is told with `Error{HIBERNATED}` and a re-`Hello`
    /// rehydrates the session exactly where it stopped.
    pub hibernate_after_ms: u64,
    /// Seeded network-fault injection applied to every accepted
    /// connection (inactive by default; `depprof serve --chaos`).
    pub fault_plan: NetFaultPlan,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_sessions: 16,
            checkpoint_dir: None,
            checkpoint_every: 0,
            max_frame_bytes: MAX_FRAME_BYTES,
            poll_interval_ms: 50,
            busy_retry_ms: 200,
            hibernate_after_ms: 0,
            fault_plan: NetFaultPlan::default(),
        }
    }
}

/// A socket stream the connection handler can drive: both `TcpStream`
/// and `UnixStream`, behind read timeouts so the handler can poll the
/// shutdown flag between frames.
pub(crate) trait Conn: Read + Write + Send {
    fn set_read_timeout_ms(&self, ms: Option<u64>) -> io::Result<()>;
}

impl Conn for TcpStream {
    fn set_read_timeout_ms(&self, ms: Option<u64>) -> io::Result<()> {
        self.set_read_timeout(ms.map(Duration::from_millis))
    }
}

#[cfg(unix)]
impl Conn for UnixStream {
    fn set_read_timeout_ms(&self, ms: Option<u64>) -> io::Result<()> {
        self.set_read_timeout(ms.map(Duration::from_millis))
    }
}

impl<S: Conn> Conn for ChaosStream<S> {
    fn set_read_timeout_ms(&self, ms: Option<u64>) -> io::Result<()> {
        self.get_ref().set_read_timeout_ms(ms)
    }
}

/// Retries transient read outcomes (timeout, EINTR) so `read_exact`
/// mid-frame never tears a frame apart on a read-timeout tick.
struct Retry<'a, S: Conn>(&'a mut S);

impl<S: Conn> Read for Retry<'_, S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.0.read(buf) {
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) => {}
                other => return other,
            }
        }
    }
}

/// Outcome of polling for the next frame's first byte.
enum Poll {
    Byte(u8),
    Eof,
    Shutdown,
    /// The idle deadline passed with no traffic (hibernation trigger).
    Idle,
}

fn poll_byte<S: Conn>(
    s: &mut S,
    stop: &AtomicBool,
    idle_deadline: Option<Instant>,
) -> Result<Poll, ProtocolError> {
    let mut b = [0u8; 1];
    loop {
        if stop.load(Ordering::SeqCst) {
            return Ok(Poll::Shutdown);
        }
        if idle_deadline.is_some_and(|d| Instant::now() >= d) {
            return Ok(Poll::Idle);
        }
        match s.read(&mut b) {
            Ok(0) => return Ok(Poll::Eof),
            Ok(_) => return Ok(Poll::Byte(b[0])),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(e.into()),
        }
    }
}

/// Decrements the active-session gauge when a session ends, however it
/// ends.
struct SessionSlot(Arc<AtomicUsize>);

impl Drop for SessionSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Exclusive claim on a session name for the lifetime of its
/// connection, released however the connection ends.
struct NameLease<'a> {
    shared: &'a Shared,
    name: String,
}

impl Drop for NameLease<'_> {
    fn drop(&mut self) {
        self.shared.live_names.lock().expect("name registry poisoned").remove(&self.name);
        self.shared.name_released.notify_all();
    }
}

struct Shared {
    cfg: ServerConfig,
    active: Arc<AtomicUsize>,
    next_id: AtomicU64,
    /// `Hello` count per session name across the server's lifetime —
    /// the second `Hello` under a name is the first reconnect.
    hellos: Mutex<HashMap<String, u64>>,
    /// Session names with a live engine. A reconnect can land before
    /// the dead connection's thread has noticed the EOF and written its
    /// emergency checkpoint; admitting it would put two engines on one
    /// checkpoint store and lose the resume watermark. The second
    /// `Hello` waits for the release, and is refused with `Busy` if it
    /// does not come in time.
    live_names: Mutex<HashSet<String>>,
    /// Signalled whenever a name in `live_names` is released.
    name_released: Condvar,
}

impl Shared {
    fn new(cfg: ServerConfig) -> Arc<Shared> {
        Arc::new(Shared {
            cfg,
            active: Arc::new(AtomicUsize::new(0)),
            next_id: AtomicU64::new(1),
            hellos: Mutex::new(HashMap::new()),
            live_names: Mutex::new(HashSet::new()),
            name_released: Condvar::new(),
        })
    }

    /// Claims `session` for one live engine. A name still held is
    /// usually a dead connection's teardown writing its emergency
    /// checkpoint, so the claim waits for its release — at most the
    /// `Busy` hint — before giving up.
    fn claim_name(&self, session: &str) -> bool {
        let names = self.live_names.lock().expect("name registry poisoned");
        let wait = Duration::from_millis(self.cfg.busy_retry_ms);
        let (mut names, _) = self
            .name_released
            .wait_timeout_while(names, wait, |names| names.contains(session))
            .expect("name registry poisoned");
        names.insert(session.to_owned())
    }

    /// Registers one more `Hello` for `session`, returning how many
    /// reconnects (re-`Hello`s after the first) the name has seen.
    fn count_hello(&self, session: &str) -> u64 {
        let mut map = self.hellos.lock().expect("hello registry poisoned");
        let n = map.entry(session.to_string()).or_insert(0);
        *n += 1;
        *n - 1
    }
}

/// The profiling service: accept loop + per-connection threads.
pub struct Server {
    shared: Arc<Shared>,
    tcp: Option<TcpListener>,
    #[cfg(unix)]
    unix: Option<UnixListener>,
}

impl Server {
    /// Binds a TCP listener (use port 0 for an ephemeral port, then
    /// [`Server::local_addr`]).
    pub fn bind_tcp(addr: impl ToSocketAddrs, cfg: ServerConfig) -> io::Result<Server> {
        let tcp = TcpListener::bind(addr)?;
        tcp.set_nonblocking(true)?;
        Ok(Server {
            shared: Shared::new(cfg),
            tcp: Some(tcp),
            #[cfg(unix)]
            unix: None,
        })
    }

    /// Binds a Unix-socket listener (unix only). An existing socket
    /// file at `path` is removed first.
    #[cfg(unix)]
    pub fn bind_unix(path: impl Into<PathBuf>, cfg: ServerConfig) -> io::Result<Server> {
        let path = path.into();
        let _ = std::fs::remove_file(&path);
        let unix = UnixListener::bind(&path)?;
        unix.set_nonblocking(true)?;
        Ok(Server { shared: Shared::new(cfg), tcp: None, unix: Some(unix) })
    }

    /// The bound TCP address, when TCP-bound.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.tcp.as_ref().and_then(|l| l.local_addr().ok())
    }

    /// Sessions currently active.
    pub fn active_sessions(&self) -> usize {
        self.shared.active.load(Ordering::SeqCst)
    }

    /// Runs the accept loop until `stop` becomes true, then joins every
    /// connection thread (each of which writes its session's emergency
    /// checkpoint before exiting). Pass
    /// [`shutdown::shutdown_flag()`] to tie the loop to SIGINT/SIGTERM.
    pub fn run(&self, stop: &'static AtomicBool) -> io::Result<()> {
        let mut threads = Vec::new();
        let poll = Duration::from_millis(self.shared.cfg.poll_interval_ms.max(1));
        while !stop.load(Ordering::SeqCst) {
            let mut accepted = false;
            if let Some(tcp) = &self.tcp {
                match tcp.accept() {
                    Ok((s, _)) => {
                        accepted = true;
                        // Replies are small frames (HelloAck, SyncAck);
                        // Nagle + delayed ACK would stall every sync
                        // roundtrip by tens of milliseconds.
                        let _ = s.set_nodelay(true);
                        let shared = Arc::clone(&self.shared);
                        threads.push(std::thread::spawn(move || {
                            if s.set_nonblocking(false).is_ok() {
                                dispatch_conn(s, &shared, stop);
                            }
                        }));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(e) => return Err(e),
                }
            }
            #[cfg(unix)]
            if let Some(unix) = &self.unix {
                match unix.accept() {
                    Ok((s, _)) => {
                        accepted = true;
                        let shared = Arc::clone(&self.shared);
                        threads.push(std::thread::spawn(move || {
                            if s.set_nonblocking(false).is_ok() {
                                dispatch_conn(s, &shared, stop);
                            }
                        }));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(e) => return Err(e),
                }
            }
            if !accepted {
                std::thread::sleep(poll);
            }
        }
        for t in threads {
            let _ = t.join();
        }
        Ok(())
    }

    /// Installs the signal handlers and runs until SIGINT/SIGTERM.
    pub fn run_until_signalled(&self) -> io::Result<()> {
        shutdown::install_signal_handlers();
        self.run(shutdown::shutdown_flag())
    }
}

/// Routes an accepted connection through the chaos wrapper when a fault
/// plan is configured, otherwise serves it directly.
fn dispatch_conn<S: Conn>(s: S, shared: &Shared, stop: &AtomicBool) {
    if shared.cfg.fault_plan.is_active() {
        serve_conn(ChaosStream::new(s, shared.cfg.fault_plan.clone()), shared, stop);
    } else {
        serve_conn(s, shared, stop);
    }
}

fn send(s: &mut impl Write, frames: &[Frame]) -> Result<(), ProtocolError> {
    for f in frames {
        protocol::write_frame(s, f)?;
    }
    s.flush()?;
    Ok(())
}

/// Drives one connection to completion. Every exit path below either
/// completed the session (`Finish` handled) or wrote its emergency
/// checkpoint first.
fn serve_conn<S: Conn>(mut s: S, shared: &Shared, stop: &AtomicBool) {
    let _ = s.set_read_timeout_ms(Some(shared.cfg.poll_interval_ms.max(1)));
    // Preamble, both directions: we announce first (so clients can
    // fail fast on version skew), then validate theirs.
    if protocol::write_preamble(&mut s).is_err() || s.flush().is_err() {
        return;
    }
    match poll_byte(&mut s, stop, None) {
        Ok(Poll::Byte(first)) => {
            let mut rest = [0u8; 4];
            if Retry(&mut s).read_exact(&mut rest).is_err() {
                return;
            }
            let ok = first == PROTOCOL_MAGIC[0]
                && rest[..3] == PROTOCOL_MAGIC[1..]
                && rest[3] == PROTOCOL_VERSION;
            if !ok {
                let _ = send(
                    &mut s,
                    &[Frame::Error {
                        code: error_code::BAD_FRAME,
                        message: format!(
                            "bad preamble (expected DPSV v{})",
                            dp_types::protocol::PROTOCOL_VERSION
                        ),
                    }],
                );
                return;
            }
        }
        _ => return,
    }

    // First frame must be Hello; the session slot is claimed before the
    // engine is built so the cap bounds real engine memory.
    let hello = match read_one(&mut s, shared, stop) {
        Some(Ok(Frame::Hello(h))) => h,
        Some(first) => {
            // A malformed Hello (say, a name table that repeats a name)
            // is answered like any other bad first frame.
            let message = match first {
                Err(e) => e.to_string(),
                Ok(_) => "first frame must be Hello".into(),
            };
            let _ = send(&mut s, &[Frame::Error { code: error_code::BAD_FRAME, message }]);
            return;
        }
        None => return,
    };
    let claimed = shared
        .active
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
            (n < shared.cfg.max_sessions).then_some(n + 1)
        })
        .is_ok();
    if !claimed {
        // Typed backpressure: the client gets a machine-readable retry
        // hint instead of a flat refusal, and `push_with_retry` honors
        // it — overload shows up as latency, not failure.
        let _ = send(&mut s, &[Frame::Busy { retry_after_ms: shared.cfg.busy_retry_ms }]);
        return;
    }
    let _slot = SessionSlot(Arc::clone(&shared.active));
    // One engine per name: a reconnect that beats the dead connection's
    // teardown would race it over the session's checkpoint store, so it
    // waits its turn, then falls back to the same typed backpressure as
    // capacity.
    if !shared.claim_name(&hello.session) {
        let _ = send(&mut s, &[Frame::Busy { retry_after_ms: shared.cfg.busy_retry_ms }]);
        return;
    }
    let _name = NameLease { shared, name: hello.session.clone() };
    let session_id = shared.next_id.fetch_add(1, Ordering::SeqCst);
    let (mut engine, ack) = match SessionEngine::open(
        &hello,
        session_id,
        shared.cfg.checkpoint_dir.as_deref(),
        shared.cfg.checkpoint_every,
    ) {
        Ok(v) => v,
        Err(e) => {
            let _ = send(&mut s, &[e.to_frame()]);
            return;
        }
    };
    engine.set_reconnects(shared.count_hello(engine.name()));
    if send(&mut s, &[ack]).is_err() {
        checkpoint_on_exit(&mut engine, "client lost before HelloAck");
        return;
    }
    eprintln!(
        "session {} '{}' opened (resume_from={})",
        engine.session_id(),
        engine.name(),
        engine.position()
    );

    loop {
        // A durable session idling past the hibernation deadline is
        // checkpointed and evicted so its slot can serve live traffic.
        let idle_deadline = (shared.cfg.hibernate_after_ms > 0 && engine.durable())
            .then(|| Instant::now() + Duration::from_millis(shared.cfg.hibernate_after_ms));
        match poll_byte(&mut s, stop, idle_deadline) {
            Ok(Poll::Idle) => {
                match engine.hibernate() {
                    Ok(()) => {
                        eprintln!(
                            "session {} '{}' hibernated at event {} (idle)",
                            engine.session_id(),
                            engine.name(),
                            engine.position()
                        );
                        let _ = send(
                            &mut s,
                            &[Frame::Error {
                                code: error_code::HIBERNATED,
                                message: format!(
                                    "session hibernated after {}ms idle; reconnect to resume",
                                    shared.cfg.hibernate_after_ms
                                ),
                            }],
                        );
                    }
                    Err(e) => {
                        checkpoint_on_exit(&mut engine, "hibernate failed");
                        let _ = send(
                            &mut s,
                            &[Frame::Error { code: error_code::ENGINE, message: e.to_string() }],
                        );
                    }
                }
                return;
            }
            Ok(Poll::Shutdown) => {
                checkpoint_on_exit(&mut engine, "shutdown");
                let _ = send(
                    &mut s,
                    &[Frame::Error {
                        code: error_code::SHUTDOWN,
                        message: "server shutting down; session checkpointed".into(),
                    }],
                );
                return;
            }
            Ok(Poll::Eof) => {
                checkpoint_on_exit(&mut engine, "client disconnected");
                return;
            }
            Ok(Poll::Byte(tag)) => {
                let frame = match protocol::resume_frame(
                    &mut Retry(&mut s),
                    tag,
                    shared.cfg.max_frame_bytes,
                ) {
                    Ok(f) => f,
                    Err(e) => {
                        checkpoint_on_exit(&mut engine, "malformed frame");
                        let _ = send(
                            &mut s,
                            &[Frame::Error { code: error_code::BAD_FRAME, message: e.to_string() }],
                        );
                        return;
                    }
                };
                match engine.handle(frame) {
                    Ok(replies) => {
                        let done = engine.finished();
                        if send(&mut s, &replies).is_err() && !done {
                            checkpoint_on_exit(&mut engine, "client lost mid-reply");
                            return;
                        }
                        if done {
                            eprintln!(
                                "session {} '{}' finished ({} events)",
                                engine.session_id(),
                                engine.name(),
                                engine.metrics().events
                            );
                            return;
                        }
                    }
                    Err(e) => {
                        checkpoint_on_exit(&mut engine, "protocol misuse");
                        let _ = send(&mut s, &[e.to_frame()]);
                        return;
                    }
                }
            }
            Err(_) => {
                checkpoint_on_exit(&mut engine, "read error");
                return;
            }
        }
    }
}

fn read_one<S: Conn>(
    s: &mut S,
    shared: &Shared,
    stop: &AtomicBool,
) -> Option<Result<Frame, ProtocolError>> {
    match poll_byte(s, stop, None) {
        Ok(Poll::Byte(tag)) => {
            Some(protocol::resume_frame(&mut Retry(s), tag, shared.cfg.max_frame_bytes))
        }
        _ => None,
    }
}

fn checkpoint_on_exit(engine: &mut SessionEngine, why: &str) {
    if engine.finished() {
        return;
    }
    match engine.write_checkpoint() {
        Ok(()) => eprintln!(
            "session {} '{}': {why}; emergency checkpoint at event {}",
            engine.session_id(),
            engine.name(),
            engine.position()
        ),
        Err(e) => eprintln!(
            "session {} '{}': {why}; emergency checkpoint failed: {e}",
            engine.session_id(),
            engine.name()
        ),
    }
}
