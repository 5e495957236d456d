//! Command-line arguments shared by both benchmark binaries.

use std::path::PathBuf;

/// The benchmark's workloads (see `README.md` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The six paper systems at their Table I/II lengths.
    LearnPaper,
    /// One 2,000,000-row rtlinux stream.
    LearnLong,
    /// Closed-loop serving of four counter streams.
    ServeBurst,
    /// Open-loop serving of sixteen rtlinux streams at a fixed rate.
    ServePaced,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::LearnPaper,
        Workload::LearnLong,
        Workload::ServeBurst,
        Workload::ServePaced,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LearnPaper => "learn-paper",
            Workload::LearnLong => "learn-long",
            Workload::ServeBurst => "serve-burst",
            Workload::ServePaced => "serve-paced",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Parsed arguments of one benchmark run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input of the run is derived from.
    pub seed: u64,
    /// How long the measured part of the run lasts.
    pub seconds: u64,
    /// Directory for the training CSVs handed to the model registry.
    pub work_dir: PathBuf,
    /// Run as the peak-memory probe of a timed run (traced binary only).
    pub memory_probe: bool,
}

const USAGE: &str = "usage: --workload <learn-paper|learn-long|serve-burst|serve-paced> \
                     --seed <n> --seconds <n> [--trace <0|1>] [--work-dir <dir>] [--memory-probe]";

/// Parses `--workload`, `--seed`, `--seconds` and the optional flags.
/// `--trace` is accepted and ignored: `run.py` picks the binary by it.
pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut work_dir = PathBuf::from(".bench_build/perfbench-work");
    let mut memory_probe = false;
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(&name)
                        .ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?,
                );
            }
            "--seed" => seed = Some(parse_number(&value()?)?),
            "--seconds" => seconds = Some(parse_number(&value()?)?.max(1)),
            "--trace" => {
                value()?;
            }
            "--work-dir" => work_dir = PathBuf::from(value()?),
            "--memory-probe" => memory_probe = true,
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?,
        seed: seed.ok_or_else(|| format!("--seed is required\n{USAGE}"))?,
        seconds: seconds.unwrap_or(10),
        work_dir,
        memory_probe,
    })
}

fn parse_number(text: &str) -> Result<u64, String> {
    text.parse()
        .map_err(|_| format!("{text:?} is not a whole number\n{USAGE}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let parsed = args("--workload serve-paced --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(parsed.workload, Workload::ServePaced);
        assert_eq!((parsed.seed, parsed.seconds), (7, 3));
        assert!(!parsed.memory_probe);
    }

    #[test]
    fn rejects_unknown_workloads_and_missing_values() {
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload learn-long").is_err());
        assert!(args("--workload learn-long --seed").is_err());
        assert!(args("--workload learn-long --seed x").is_err());
    }
}
