//! `perfbench-timed`: the end-to-end metrics of one workload, with no
//! instrumentation inside the measured calls.
//!
//! ```text
//! perfbench-timed --workload <name> --seed <n> --seconds <n> [--work-dir <dir>]
//! ```
//!
//! The last line of standard output is the JSON result. Peak heap memory is
//! taken by `perfbench-traced --memory-probe` in a child process, because
//! only that binary carries the counting allocator.

use std::process::{Command, ExitCode, Stdio};

use perfbench::cli::{self, Args, Workload};
use perfbench::report::Outcome;
use perfbench::{learn, serve};

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("perfbench: {error}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let peak = peak_heap_mb(args)?;
    match args.workload {
        Workload::LearnPaper | Workload::LearnLong => {
            let (sets, setup_s) = learn::input_sets(args);
            Ok(learn::run_timed(args, &sets, setup_s, peak))
        }
        Workload::ServeBurst | Workload::ServePaced => {
            let mut setup = serve::Setup::new(args, false)?;
            serve::run_timed(args, &mut setup, peak)
        }
    }
}

fn peak_heap_mb(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe()
        .map_err(|e| e.to_string())?
        .with_file_name("perfbench-traced");
    let output = Command::new(&exe)
        .args(["--memory-probe", "--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .arg("--work-dir")
        .arg(&args.work_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("memory probe {}: {e}", exe.display()))?;
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .find_map(|line| line.strip_prefix("peak_mb "))
        .and_then(|value| value.parse().ok())
        .filter(|_| output.status.success())
        .ok_or_else(|| format!("memory probe failed ({})", output.status))
}
