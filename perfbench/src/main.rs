//! The repository benchmark: three workloads driven through the public
//! APIs, every result checked against `gxplug_algos::reference`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload pagerank_batch --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` measures the workload untraced and prints the end-to-end
//! metrics; `--trace 1` runs the traced layer sweep and prints the
//! per-layer metrics.  The last line of standard output is one JSON object.
//! See `perfbench/README.md` for the workloads and metric definitions.

mod deploy;
mod mutate_reads;
mod pagerank_batch;
mod report;
mod sssp_socket;
mod stats;
mod trace;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const WORKLOADS: [&str; 3] = ["pagerank_batch", "sssp_socket", "mutate_reads"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 25;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The traced layer sweep: every layer is reached by one of the three
/// workloads' traffic, so the sweep drives a third of the window of each
/// and reports every per-layer metric.  Spans go to a file at the end.
fn sweep(args: &Args, report: &mut Report) {
    let third = Duration::from_secs(args.seconds).div_f64(3.0);
    let tracer = pagerank_batch::trace(third, report);
    sssp_socket::trace(args.seed, third, report);
    mutate_reads::trace(args.seed, third, report);
    let dir =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let path = dir
        .join("perfbench-spans")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => report.line(format!("spans written to {}", path.display())),
        Err(e) => report.line(format!("spans not written ({}): {e}", path.display())),
    }
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    report.line(format!(
        "host: nproc={} profile={} workload={} seed={} seconds={} trace={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    ));
    let seconds = Duration::from_secs(args.seconds);
    if args.trace {
        sweep(&args, &mut report);
    } else {
        match args.workload.as_str() {
            "pagerank_batch" => pagerank_batch::run(seconds, &mut report),
            "sssp_socket" => sssp_socket::run(args.seed, seconds, &mut report),
            _ => mutate_reads::run(args.seed, seconds, &mut report),
        }
    }
    report.print();
    ExitCode::SUCCESS
}
