//! perfbench — the dblayout advisor's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <advise-tpch22|advise-mega|whatif-serve|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs in a process of its own (`all` starts one child
//! process per workload), so peak RSS and the process-global work
//! counters belong to that workload alone. The last line of standard
//! output is the result object; the line before it holds the run's
//! diagnostics: host parallelism, run length, and each timing's sample
//! count, envelope, median and p99. `--record` prints the advised-cost
//! ratios that `src/expected.rs` holds. See `NOTES.md` for the choice of
//! workloads, the layer-to-metric map and the noise measurements behind
//! the statistics.

mod advise;
mod expected;
mod inputs;
mod measure;
mod report;
mod serve;
mod spans;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use report::Report;

const WORKLOADS: [&str; 3] = ["advise-tpch22", "advise-mega", "whatif-serve"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        record: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--record" => args.record = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !args.record && args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or all"));
    }
    Ok(args)
}

/// Where a traced run writes its spans: beside the build, inside the
/// checkout, one file per workload that each traced run overwrites.
fn spans_path(args: &Args) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    target
        .join("perfbench-spans")
        .join(format!("{}.jsonl", args.workload))
}

pub fn write_spans(args: &Args, spans: &[spans::Span]) {
    let path = spans_path(args);
    if let Err(e) = spans::write_jsonl(&path, spans) {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }
}

/// Runs every workload in a child process and prints their result lines.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        match out {
            Ok(out) => {
                eprint!("{}", String::from_utf8_lossy(&out.stderr));
                let text = String::from_utf8_lossy(&out.stdout);
                println!("{w}: {}", text.lines().last().unwrap_or(""));
                ok &= out.status.success();
            }
            Err(e) => {
                eprintln!("perfbench: starting {w}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints the recorded ratios for `src/expected.rs`.
fn record() {
    let tpch: Vec<String> = (0..inputs::INSTANCES)
        .map(|i| format!("0x{:016x}", advise::reference_ratio(false, i).to_bits()))
        .collect();
    println!(
        "pub const TPCH22_RATIO_BITS: [u64; 8] = [{}];",
        tpch.join(", ")
    );
    println!(
        "pub const MEGA_RATIO_BITS: u64 = 0x{:016x};",
        advise::reference_ratio(true, 0).to_bits()
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.record {
        record();
        return ExitCode::SUCCESS;
    }
    if args.workload == "all" {
        return run_all(&args);
    }
    let mut report: Report = match args.workload.as_str() {
        "advise-tpch22" => advise::run(&args, false),
        "advise-mega" => advise::run(&args, true),
        _ => serve::run(&args),
    };
    if args.trace {
        let c = report.metrics.get("trace.closure_ratio").copied();
        report.check(c.is_some_and(|c| report::CLOSURE.contains(&c)), || {
            format!(
                "trace.closure_ratio {c:?} is outside the stated {:?}",
                report::CLOSURE
            )
        });
    } else {
        for (name, _) in report::END_TO_END {
            let v = report.metrics.get(name).copied();
            report.check(v.is_some_and(|v| v.is_finite() && v > 0.0), || {
                format!("end-to-end metric {name} is {v:?}")
            });
        }
    }
    for field in ["RssAnon", "RssFile"] {
        report
            .diagnostics
            .insert(format!("{field}_mb"), measure::status_mb(field));
    }
    report.print(&args.workload, args.seed, args.seconds, args.trace);
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
