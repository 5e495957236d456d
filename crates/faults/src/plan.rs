//! Fault plans: which injection points fire, and when.
//!
//! A plan is fully described by a compact spec string so that a chaos run
//! is reproducible from one command-line flag or environment variable:
//!
//! ```text
//! seed:42,spec:worker.panic@50;csv.torn@100x2
//! ```
//!
//! `seed` feeds the deterministic value stream used by faults that need a
//! choice (which byte to corrupt, where to cut a record); the `spec` is a
//! `;`-separated list of `site@nth[xcount]` entries, each firing on the
//! `nth`-th (1-based) occurrence of its injection point and, with `xcount`,
//! on the following `count - 1` occurrences too. Occurrences are counted
//! per site over the whole process, so a plan names concrete points in the
//! run's own event order — no wall clocks, no probabilities.

use std::fmt;

/// Every injection point compiled into the workspace.
///
/// The sites mirror the layers of the serving pipeline: CSV ingestion, the
/// SAT solver, the serve worker pool, and the serve transports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// `csv.short` — the streaming reader reports end-of-input early,
    /// truncating the stream after a complete record; every later read of
    /// that reader reports end-of-input too.
    CsvShortRead,
    /// `csv.torn` — a record is cut at a seeded offset, as if the producer
    /// died mid-write.
    CsvTornRecord,
    /// `csv.corrupt` — one seeded character of a record is overwritten
    /// with a substitute byte.
    CsvCorruptByte,
    /// `sat.budget` — a solver call reports its budget exhausted without
    /// searching.
    SatBudget,
    /// `sat.interrupt` — a solver call gives up at once with `Unknown`,
    /// like `sat.budget`.
    SatInterrupt,
    /// `worker.panic` — a serve pool worker panics while processing a data
    /// task.
    WorkerPanic,
    /// `worker.stall` — a serve pool worker wedges on a data task until it
    /// is condemned by the supervisor.
    WorkerStall,
    /// `transport.drop` — one output line is silently discarded, as if the
    /// connection dropped it.
    TransportDrop,
    /// `transport.half` — one output line is cut in half and left without
    /// its newline, as if the writer died mid-line.
    TransportHalfWrite,
    /// `persist.torn` — a snapshot write is cut at a seeded offset but the
    /// torn file still lands under the final name, as if the host lost
    /// power on a filesystem that reordered the rename ahead of the data.
    PersistTornWrite,
    /// `persist.rename` — the atomic rename publishing a snapshot fails;
    /// the previous snapshot (if any) stays in place.
    PersistRenameFail,
    /// `persist.short` — reading a snapshot back returns only a seeded
    /// prefix of the file, as if the read raced a truncation.
    PersistShortRead,
    /// `persist.interrupt` — the serving daemon aborts mid-checkpoint,
    /// simulating a `kill -9` between per-stream snapshot writes.
    PersistCheckpointInterrupt,
}

/// All sites, in counter order. `FaultSite as usize` indexes this table.
pub(crate) const ALL_SITES: &[FaultSite] = &[
    FaultSite::CsvShortRead,
    FaultSite::CsvTornRecord,
    FaultSite::CsvCorruptByte,
    FaultSite::SatBudget,
    FaultSite::SatInterrupt,
    FaultSite::WorkerPanic,
    FaultSite::WorkerStall,
    FaultSite::TransportDrop,
    FaultSite::TransportHalfWrite,
    FaultSite::PersistTornWrite,
    FaultSite::PersistRenameFail,
    FaultSite::PersistShortRead,
    FaultSite::PersistCheckpointInterrupt,
];

impl FaultSite {
    /// The spec-string name of this site.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::CsvShortRead => "csv.short",
            FaultSite::CsvTornRecord => "csv.torn",
            FaultSite::CsvCorruptByte => "csv.corrupt",
            FaultSite::SatBudget => "sat.budget",
            FaultSite::SatInterrupt => "sat.interrupt",
            FaultSite::WorkerPanic => "worker.panic",
            FaultSite::WorkerStall => "worker.stall",
            FaultSite::TransportDrop => "transport.drop",
            FaultSite::TransportHalfWrite => "transport.half",
            FaultSite::PersistTornWrite => "persist.torn",
            FaultSite::PersistRenameFail => "persist.rename",
            FaultSite::PersistShortRead => "persist.short",
            FaultSite::PersistCheckpointInterrupt => "persist.interrupt",
        }
    }

    fn by_name(name: &str) -> Option<FaultSite> {
        ALL_SITES.iter().copied().find(|site| site.name() == name)
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One `site@nth[xcount]` spec entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEntry {
    /// The injection point this entry arms.
    pub site: FaultSite,
    /// First occurrence (1-based) of the site that fires.
    pub nth: u64,
    /// How many consecutive occurrences fire, starting at `nth`.
    pub count: u64,
}

impl FaultEntry {
    /// Whether the `occurrence`-th (1-based) trip of the site fires.
    pub fn fires_at(&self, occurrence: u64) -> bool {
        occurrence >= self.nth && occurrence - self.nth < self.count
    }
}

/// A malformed fault-plan spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError(pub String);

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault plan: {}", self.0)
    }
}

impl std::error::Error for PlanError {}

/// A parsed, seeded fault plan.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed for the deterministic per-fault value stream.
    pub seed: u64,
    /// The armed entries.
    pub entries: Vec<FaultEntry>,
}

impl FaultPlan {
    /// Parses `seed:<u64>,spec:<site>@<nth>[x<count>][;...]`.
    ///
    /// Both halves are optional (`seed` defaults to 0, an empty `spec` arms
    /// nothing), but unknown keys and malformed entries are errors — a typo
    /// in a chaos invocation must not silently run fault-free.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] describing the first malformed fragment.
    pub fn parse(spec: &str) -> Result<FaultPlan, PlanError> {
        let mut plan = FaultPlan::default();
        let spec = spec.trim();
        if spec.is_empty() {
            return Ok(plan);
        }
        // `spec:` consumes the rest of the string; `seed:` must come first.
        let rest = match spec.strip_prefix("seed:") {
            Some(rest) => {
                let (seed, rest) = match rest.split_once(',') {
                    Some((seed, rest)) => (seed, rest),
                    None => (rest, ""),
                };
                plan.seed = seed
                    .trim()
                    .parse::<u64>()
                    .map_err(|e| PlanError(format!("bad seed {seed:?}: {e}")))?;
                rest
            }
            None => spec,
        };
        let rest = rest.trim();
        if rest.is_empty() {
            return Ok(plan);
        }
        let body = rest
            .strip_prefix("spec:")
            .ok_or_else(|| PlanError(format!("expected `spec:...`, got {rest:?}")))?;
        for fragment in body.split(';') {
            let fragment = fragment.trim();
            if fragment.is_empty() {
                continue;
            }
            plan.entries.push(parse_entry(fragment)?);
        }
        Ok(plan)
    }

    /// Parses the `TRACELEARN_FAULTS` environment variable, if set.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] when the variable is set but malformed.
    pub fn from_env() -> Result<Option<FaultPlan>, PlanError> {
        match std::env::var("TRACELEARN_FAULTS") {
            Ok(value) if !value.trim().is_empty() => FaultPlan::parse(&value).map(Some),
            _ => Ok(None),
        }
    }
}

fn parse_entry(fragment: &str) -> Result<FaultEntry, PlanError> {
    let (name, schedule) = fragment
        .split_once('@')
        .ok_or_else(|| PlanError(format!("entry {fragment:?} is missing `@<nth>`")))?;
    let site = FaultSite::by_name(name.trim()).ok_or_else(|| {
        let known: Vec<&str> = ALL_SITES.iter().map(|s| s.name()).collect();
        PlanError(format!(
            "unknown site {:?} (known: {})",
            name.trim(),
            known.join(", ")
        ))
    })?;
    let (nth, count) = match schedule.split_once('x') {
        Some((nth, count)) => (
            nth.trim(),
            count
                .trim()
                .parse::<u64>()
                .map_err(|e| PlanError(format!("bad count in {fragment:?}: {e}")))?,
        ),
        None => (schedule.trim(), 1),
    };
    let nth = nth
        .parse::<u64>()
        .map_err(|e| PlanError(format!("bad occurrence in {fragment:?}: {e}")))?;
    if nth == 0 || count == 0 {
        return Err(PlanError(format!(
            "occurrence and count in {fragment:?} are 1-based and must be positive"
        )));
    }
    Ok(FaultEntry { site, nth, count })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_spec() {
        let plan = FaultPlan::parse("seed:42,spec:worker.panic@50;csv.torn@100x2").unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(
            plan.entries,
            vec![
                FaultEntry {
                    site: FaultSite::WorkerPanic,
                    nth: 50,
                    count: 1
                },
                FaultEntry {
                    site: FaultSite::CsvTornRecord,
                    nth: 100,
                    count: 2
                },
            ]
        );
    }

    #[test]
    fn halves_are_optional() {
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
        assert_eq!(FaultPlan::parse("seed:7").unwrap().seed, 7);
        let plan = FaultPlan::parse("spec:sat.budget@1").unwrap();
        assert_eq!(plan.seed, 0);
        assert_eq!(plan.entries.len(), 1);
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(FaultPlan::parse("seed:x").is_err());
        assert!(FaultPlan::parse("spec:nosuch.site@1").is_err());
        assert!(FaultPlan::parse("spec:csv.torn").is_err());
        assert!(FaultPlan::parse("spec:csv.torn@0").is_err());
        assert!(FaultPlan::parse("spec:csv.torn@3x0").is_err());
        assert!(FaultPlan::parse("spec:csv.torn@threeve").is_err());
        assert!(FaultPlan::parse("frobnicate").is_err());
    }

    #[test]
    fn entries_fire_on_their_window() {
        let entry = FaultEntry {
            site: FaultSite::CsvShortRead,
            nth: 3,
            count: 2,
        };
        assert!(!entry.fires_at(1));
        assert!(!entry.fires_at(2));
        assert!(entry.fires_at(3));
        assert!(entry.fires_at(4));
        assert!(!entry.fires_at(5));
    }

    #[test]
    fn every_site_round_trips_by_name() {
        for site in ALL_SITES {
            assert_eq!(FaultSite::by_name(site.name()), Some(*site));
            assert_eq!(format!("{site}"), site.name());
        }
    }
}
