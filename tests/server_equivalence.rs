//! The service layer must not change a single dependence: a trace
//! streamed to `dp-server` over the DPSV protocol produces the same
//! profile as `depprof replay` on the same trace.
//!
//! Two layers of proof:
//!
//! 1. **In-process, every workload** — the socket-free `SessionEngine`
//!    is driven frame-by-frame (exactly what a connection handler does)
//!    and its `ProfileResult` is compared dependence-for-dependence
//!    against an offline `ProfileSession` replay of the same events —
//!    the fuzz oracle's `served` and `offline` legs, on every workload.
//! 2. **Over a real socket, concurrently** — a loopback TCP server runs
//!    multiple sessions at once and every client's *report bytes* must
//!    equal the offline render, proving session isolation end to end.

use depprof::core::{report, SessionSpec};
use depprof::fuzz::oracle::{dep_map, offline, record, served};
use depprof::server::{push_events, PushOptions, Server, ServerConfig};
use depprof::trace::workloads::{nas_suite, starbench_suite, synth, Scale, Workload};
use std::sync::atomic::{AtomicBool, Ordering};

fn sequential_workloads() -> Vec<Workload> {
    let mut all = nas_suite(Scale(0.08));
    all.extend(starbench_suite(Scale(0.08)));
    all.push(synth::uniform(64, 4_000));
    all.retain(|w| !w.meta.parallel);
    all
}

/// Every sequential workload, serial engine: the served profile is the
/// offline profile, dependence for dependence.
#[test]
fn served_equals_offline_serial_all_workloads() {
    for w in sequential_workloads() {
        let (events, _, names) = record(&w.program);
        let spec = SessionSpec { slots: 1 << 16, ..SessionSpec::default() };
        let off = offline(&spec, &events);
        let srv = served(&spec, &events, names);
        assert_eq!(dep_map(&srv), dep_map(&off), "workload {}", w.meta.name);
        assert_eq!(srv.stats.accesses, off.stats.accesses, "workload {}", w.meta.name);
    }
}

/// Same equivalence through the parallel pipeline spec — the engine the
/// server builds from the Hello is the one replay would build.
#[test]
fn served_equals_offline_parallel() {
    for w in sequential_workloads().into_iter().take(3) {
        let (events, _, names) = record(&w.program);
        let spec =
            SessionSpec { parallel: true, workers: 3, slots: 3 << 14, ..SessionSpec::default() };
        let off = offline(&spec, &events);
        let srv = served(&spec, &events, names);
        assert_eq!(dep_map(&srv), dep_map(&off), "workload {}", w.meta.name);
    }
}

/// Loopback TCP, concurrent sessions: N clients push different
/// workloads at the same time; every returned report must be byte-
/// identical to the offline render of that workload.
#[test]
fn concurrent_tcp_sessions_match_offline_reports() {
    static STOP: AtomicBool = AtomicBool::new(false);

    let server = Server::bind_tcp(
        "127.0.0.1:0",
        ServerConfig { max_sessions: 8, ..ServerConfig::default() },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run(&STOP).unwrap());

    let workloads: Vec<Workload> = sequential_workloads().into_iter().take(4).collect();
    let mut clients = Vec::new();
    for w in workloads {
        clients.push(std::thread::spawn(move || {
            let (events, interner, names) = record(&w.program);
            let spec = SessionSpec { slots: 1 << 16, ..SessionSpec::default() };
            let expected = {
                let r = offline(&spec, &events);
                report::render(&r, &interner, false)
            };
            let mut conn = std::net::TcpStream::connect(addr).unwrap();
            let opts = PushOptions {
                session: format!("conc-{}", w.meta.name),
                spec,
                chunk_events: 128,
                request_stats: true,
                ..PushOptions::default()
            };
            let out = push_events(&mut conn, names, events, &opts).unwrap();
            assert_eq!(out.report, expected, "report bytes differ for {}", w.meta.name);
            let stats = out.stats_json.expect("stats were requested");
            assert!(stats.contains("\"events\""), "stats json: {stats}");
        }));
    }
    for c in clients {
        c.join().unwrap();
    }

    STOP.store(true, Ordering::SeqCst);
    handle.join().unwrap();
}

/// The capacity cap is enforced with a typed error, not a hang: with
/// `max_sessions = 0` every client is turned away at Hello time.
#[test]
fn at_capacity_is_a_typed_refusal() {
    static STOP: AtomicBool = AtomicBool::new(false);

    let server = Server::bind_tcp(
        "127.0.0.1:0",
        ServerConfig { max_sessions: 0, ..ServerConfig::default() },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run(&STOP).unwrap());

    let all = sequential_workloads();
    let (events, _, names) = record(&all[0].program);
    let mut conn = std::net::TcpStream::connect(addr).unwrap();
    let err = push_events(&mut conn, names, events, &PushOptions::default()).unwrap_err();
    match err {
        depprof::server::ClientError::Busy { retry_after_ms } => {
            assert!(retry_after_ms > 0, "Busy must carry a concrete retry hint");
        }
        other => panic!("wanted Busy{{retry_after_ms}}, got {other:?}"),
    }

    STOP.store(true, Ordering::SeqCst);
    handle.join().unwrap();
}

/// A `Hello` whose name table repeats a name would shift every later
/// variable id; the server refuses it with a typed `BAD_FRAME` error.
#[test]
fn repeated_hello_name_is_a_bad_frame() {
    static STOP: AtomicBool = AtomicBool::new(false);

    let server = Server::bind_tcp("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run(&STOP).unwrap());

    let names = vec!["*".to_string(), "x".into(), "y".into(), "x".into()];
    let mut conn = std::net::TcpStream::connect(addr).unwrap();
    let err = push_events(&mut conn, names, Vec::new(), &PushOptions::default()).unwrap_err();
    match err {
        depprof::server::ClientError::Server { code, message } => {
            assert_eq!(code, depprof::types::protocol::error_code::BAD_FRAME, "{message}");
            assert!(message.contains("repeated name"), "{message}");
        }
        other => panic!("wanted a BAD_FRAME error, got {other:?}"),
    }

    STOP.store(true, Ordering::SeqCst);
    handle.join().unwrap();
}
