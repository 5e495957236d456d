//! `perfbench-traced`: the per-layer metrics of one workload.
//!
//! ```text
//! perfbench-traced --workload <name> --seed <n> --seconds <n> [--work-dir <dir>]
//! ```
//!
//! Replays the workload's path layer by layer from the benchmark's own code
//! and runs one instrumented end-to-end pass; every allocation is counted.
//! Layers of the other path are reported as zero.
//!
//! With `--memory-probe` it instead prints `peak_mb <MB>`: the median, over
//! at least [`MEMORY_PROBES`] calls, of the heap the workload's measured call
//! holds live at once — the `peak_heap_mb` metric of `perfbench-timed`.

use std::process::ExitCode;

use perfbench::alloc::{peak_heap_mb, CountingAlloc};
use perfbench::cli::{self, Args, Workload};
use perfbench::learn::{self, LearnTrace};
use perfbench::report::Outcome;
use perfbench::serve::{self, ServeTrace};
use perfbench::stats::median;

/// Calls the memory probe takes the median of.
const MEMORY_PROBES: usize = 3;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::from(2);
        }
    };
    let result = if args.memory_probe {
        probe(&args).map(|peak| format!("peak_mb {peak}"))
    } else {
        run(&args).map(|outcome| outcome.to_json())
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("perfbench: {error}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let (mut outcome, learned, served) = match args.workload {
        Workload::LearnPaper | Workload::LearnLong => {
            let (sets, _) = learn::input_sets(args);
            let (outcome, trace) = learn::run_traced(args, &sets);
            (outcome, trace, ServeTrace::default())
        }
        Workload::ServeBurst | Workload::ServePaced => {
            let mut setup = serve::Setup::new(args, false)?;
            let (outcome, trace) = serve::run_traced(args, &mut setup)?;
            (outcome, LearnTrace::default(), trace)
        }
    };
    outcome.metrics = learn::layer_metrics(&learned);
    outcome.metrics.extend(serve::layer_metrics(&served));
    Ok(outcome)
}

fn probe(args: &Args) -> Result<f64, String> {
    let mut peaks = Vec::with_capacity(MEMORY_PROBES);
    match args.workload {
        Workload::LearnPaper | Workload::LearnLong => {
            // One pass per input set, cycling when there are fewer sets
            // than probes: the peak depends on the input.
            let sets = learn::probe_sets(args);
            for set in sets.iter().cycle().take(sets.len().max(MEMORY_PROBES)) {
                peaks.push(peak_heap_mb(|| learn::probe(set)).1);
            }
        }
        Workload::ServeBurst | Workload::ServePaced => {
            let mut setup = serve::Setup::new(args, true)?;
            for _ in 0..MEMORY_PROBES {
                let (served, peak) = peak_heap_mb(|| serve::probe(&mut setup));
                served?;
                peaks.push(peak);
            }
        }
    }
    Ok(median(&mut peaks))
}
