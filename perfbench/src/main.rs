//! `perfbench` — honeylab's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <capture|study> --seed N --seconds S --trace <0|1>
//! ```
//!
//! With `--trace 0` a run measures the end-to-end metrics; with
//! `--trace 1` it runs the same workload instrumented and reports the
//! per-layer metrics instead. Either way the last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`. A run
//! whose outputs fail a correctness gate prints `"correct": false`, no
//! metrics, and exits 1. See `perfbench/README.md`.

mod client;
mod layers;
mod out;
mod serve_wl;
mod study;
mod sys;
mod trace_serve;

use std::path::PathBuf;
use std::process::ExitCode;

/// Command-line parameters of one run.
#[derive(Debug, Clone)]
pub struct Params {
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the timed phase lasts.
    pub seconds: u64,
    /// Scratch directory for stores, inside the working directory.
    pub data_dir: PathBuf,
    /// CPUs the process could use before it was pinned.
    pub nproc: usize,
    /// The CPU the run is pinned to.
    pub cpu: usize,
}

impl Params {
    /// The `env` line every result starts with.
    pub fn host_line(&self) -> String {
        format!(
            "env seed={} nproc={} pinned_cpu={} kernel={} run_seconds={} store_fs={}",
            self.seed,
            self.nproc,
            self.cpu,
            sys::kernel(),
            self.seconds,
            sys::filesystem_of(&self.data_dir),
        )
    }
}

const USAGE: &str =
    "usage: perfbench --workload <capture|study> --seed N --seconds S --trace <0|1>";

fn arg<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = (|| {
        let workload = arg(&args, "--workload")?.to_string();
        let seed = arg(&args, "--seed")?.parse().ok()?;
        let seconds: u64 = arg(&args, "--seconds")?.parse().ok()?;
        let trace = match arg(&args, "--trace")? {
            "0" => false,
            "1" => true,
            _ => return None,
        };
        Some((workload, seed, seconds.max(1), trace))
    })();
    let Some((workload, seed, seconds, trace)) = parsed else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let nproc = sys::nproc();
    let Some(cpu) = sys::pin_to_one_cpu() else {
        eprintln!("cannot pin the run to one CPU");
        return ExitCode::from(2);
    };
    let data_dir = PathBuf::from(".bench_data").join(format!("{workload}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&data_dir) {
        eprintln!("cannot create {}: {e}", data_dir.display());
        return ExitCode::from(2);
    }
    let p = Params {
        seed,
        seconds,
        data_dir,
        nproc,
        cpu,
    };

    let result = match (workload.as_str(), trace) {
        ("capture", false) => serve_wl::run(&p),
        ("capture", true) => trace_serve::run(&p),
        ("study", false) => study::run(&p),
        ("study", true) => study::run_traced(&p),
        _ => Err(format!("unknown workload '{workload}'\n{USAGE}")),
    };
    let _ = std::fs::remove_dir_all(&p.data_dir);
    // Leave no empty parent behind either; fails harmlessly when another
    // run still uses it.
    let _ = std::fs::remove_dir(".bench_data");
    match result {
        Ok(mut report) => {
            report.gate_work_done();
            report.print();
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
