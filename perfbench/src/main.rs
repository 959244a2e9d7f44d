//! The depprof benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serial-suite|pipeline-suite|mt-suite|served-watch> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the workload's inputs from the seed (set-up, repeated and
//! timed), runs it for the given seconds through the profiler's public
//! API, checks every output against its reference, prints a readable
//! report and, as the last line, one JSON object with the run's
//! end-to-end metrics (`--trace 0`) or per-layer metrics (`--trace 1`).
//! See `perfbench/README.md` for the workloads and metric definitions.

mod catalog;
mod host;
mod offline;
mod served;
mod spans;
mod stats;
mod suite;

use catalog::{Measured, END_TO_END, PER_LAYER};
use offline::Engine;
use spans::SpanLog;
use stats::Summary;
use std::time::Instant;

/// Times set-up is repeated in a run; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Runs set-up [`SETUP_REPEATS`] times, each after a host probe sample,
/// returning the last set-up and every duration in seconds, raw and
/// scaled to the reference host speed.
fn timed_setup<T>(mut make: impl FnMut() -> T) -> (T, Vec<(f64, f64)>) {
    let mut probe = host::Probe::default();
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        probe.sample();
        let t = Instant::now();
        last = Some(make());
        let raw = t.elapsed().as_secs_f64();
        times.push((raw, host::at_reference(raw, probe.take())));
    }
    (last.expect("set-up ran at least once"), times)
}

fn run_offline(engine: Engine, a: &Args) -> (Measured, Vec<(f64, f64)>) {
    let (setup, times) = timed_setup(|| offline::setup(engine, a.seed));
    let m = if a.trace {
        offline::run_traced(&setup, a.seconds)
    } else {
        offline::run(&setup, a.seconds)
    };
    (m, times)
}

fn run_served(a: &Args) -> Result<(Measured, Vec<(f64, f64)>), String> {
    let cpu = served::pin_to_one_cpu().map_err(|e| format!("pinning to one CPU: {e}"))?;
    println!("served-watch runs pinned to CPU {cpu}");
    let (setup, times) = timed_setup(|| served::setup(a.seed));
    let setup = setup.map_err(|e| format!("served set-up: {e}"))?;
    let m = if a.trace {
        served::run_traced(&setup, a.seed, a.seconds)
    } else {
        served::run(&setup, a.seed, a.seconds)
    };
    setup.server.shutdown().map_err(|e| format!("server shutdown: {e}"))?;
    Ok((m, times))
}

/// Prints per-layer self time (median, tail, count) per span name.
fn print_self_times(log: &SpanLog) {
    println!("per-layer self time (ms per call):");
    for (name, times) in log.self_by_name() {
        let ms: Vec<f64> = times.iter().map(|&t| t as f64 / 1e6).collect();
        let s = Summary::of(&ms).expect("a named span has at least one sample");
        println!("  {name:<22} {}", s.render("ms"));
    }
}

fn write_spans(log: &SpanLog, a: &Args) -> std::io::Result<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/spans-{}-seed{}.jsonl", a.workload, a.seed);
    let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
    log.write_jsonl(&mut w)?;
    std::io::Write::flush(&mut w)?;
    Ok(path)
}

fn main() {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Read before the served workload pins itself to one CPU.
    let hw = std::thread::available_parallelism().map_or(0, |n| n.get());
    let result = match a.workload.as_str() {
        "serial-suite" => Ok(run_offline(Engine::Serial, &a)),
        "pipeline-suite" => Ok(run_offline(Engine::Pipeline, &a)),
        "mt-suite" => Ok(run_offline(Engine::Mt, &a)),
        "served-watch" => run_served(&a),
        other => Err(format!("unknown workload {other}")),
    };
    let (mut out, setup_times) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };

    println!(
        "workload {} seed {} seconds {} trace {} | load sized for nproc={} ({} pipeline workers, \
         {} MT target threads); host parallelism {hw}",
        a.workload,
        a.seed,
        a.seconds,
        a.trace as u8,
        suite::NPROC,
        suite::NPROC - 1,
        suite::NPROC
    );
    let (raw, scaled): (Vec<f64>, Vec<f64>) = setup_times.into_iter().unzip();
    let setup_s = stats::median(&scaled);
    println!("setup_s runs: raw {raw:.4?} s, scaled {scaled:.4?} s");
    for n in &out.notes {
        println!("{n}");
    }
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    println!("attempted {} failed {} error_rate {error_rate} fraction", out.attempted, out.failed);
    for f in &out.failures {
        println!("FAILED: {f}");
    }
    let catalog: &[(&str, &str)] = if a.trace { &PER_LAYER } else { &END_TO_END };
    if !a.trace {
        out.values.insert("setup_s", setup_s);
    } else if let Some(log) = &out.spans {
        print_self_times(log);
        match write_spans(log, &a) {
            Ok(path) => println!("spans written to {path}"),
            Err(e) => eprintln!("perfbench: writing spans: {e}"),
        }
    }
    for (name, unit) in catalog {
        match out.values.get(name) {
            Some(v) => println!("  {name:<34} {v:>16.4} {unit}"),
            None => println!("  {name:<34} {:>16} {unit} (layer idle on this workload)", 0),
        }
    }
    for (name, v) in out.values.iter().filter(|(n, _)| !catalog.iter().any(|(c, _)| c == *n)) {
        println!("  {name:<34} {v:>16.4} {} (reported by the other mode)", catalog::unit(name));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        catalog::metrics_json(catalog, &out.values)
    );
}
