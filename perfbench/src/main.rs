//! Command-line entry point of the benchmark.
//!
//! ```text
//! perfbench --workload <soc_busy|link_faults|regulated_mixed|all>
//!           [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Prints a human-readable report, then, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `--workload all` runs every workload untraced and traced,
//! each in its own process so peak memory stays per workload.

use std::process::{Command, ExitCode};

use perfbench::run::{run, Options};
use perfbench::workloads::{Workload, DEFAULT_SEED};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <soc_busy|link_faults|regulated_mixed|all> \
         [--seed <n>] [--seconds <s>] [--trace <0|1>]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => match value.parse() {
                Ok(v) => seed = v,
                Err(_) => return usage(&format!("bad seed {value}")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(v) if v > 0.0 && v <= 600.0 => seconds = v,
                _ => return usage(&format!("bad seconds {value}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage(&format!("bad trace {value}")),
            },
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let Some(name) = workload else {
        return usage("--workload is required");
    };
    if name == "all" {
        return run_all(seed, seconds);
    }
    let Some(workload) = Workload::parse(&name) else {
        return usage(&format!("unknown workload {name}"));
    };
    let report = run(Options {
        workload,
        seed,
        seconds,
        trace,
    });
    print!("{}", report.text);
    println!("{}", report.json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, untraced then traced, each in a child process
/// of this executable; waits for each before starting the next.
fn run_all(seed: u64, seconds: f64) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        return usage("cannot locate the benchmark executable");
    };
    let mut ok = true;
    for workload in Workload::ALL {
        for trace in ["0", "1"] {
            let status = Command::new(&exe)
                .args(["--workload", workload.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", trace])
                .status();
            ok &= status.is_ok_and(|s| s.success());
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
