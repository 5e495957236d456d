//! The open-loop release schedule of `serve-paced` and its lateness
//! accounting.
//!
//! Record `i` of the paced phase is *due* at `t0 + i × period`, whatever the
//! server is doing. Latency is timed from the due time, so a stall that
//! delays later releases is charged to every record it delayed. The
//! generator's own lateness (release time − due time) is recorded too, and a
//! run whose generator fell behind is flagged instead of reported silently.

use crate::stats::{percentile_us, saturating_ns};

/// A release is "late" once it trails its due time by this much.
pub const LATE_NS: u64 = 1_000_000;

/// A run whose share of late releases exceeds this fell behind: its
/// latencies no longer describe the offered rate.
pub const MAX_LATE_SHARE: f64 = 0.01;

/// A fixed-rate schedule.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    period_ns: u64,
}

impl Schedule {
    /// Releases `rate` records per second.
    pub fn per_second(rate: u64) -> Schedule {
        Schedule {
            period_ns: 1_000_000_000 / rate.max(1),
        }
    }

    /// Due time of record `index`, in nanoseconds after the phase start.
    pub fn due_ns(&self, index: u64) -> u64 {
        index * self.period_ns
    }
}

/// Per-release lateness of one paced run.
#[derive(Debug, Default)]
pub struct Lateness {
    late_ns: Vec<u32>,
    late: usize,
}

impl Lateness {
    /// Room for `releases` samples, so recording never allocates.
    pub fn with_capacity(releases: usize) -> Lateness {
        Lateness {
            late_ns: Vec::with_capacity(releases),
            late: 0,
        }
    }

    /// Records one release at `released_ns` of a record due at `due_ns`. An
    /// early release (impossible when the generator waits) counts as on time.
    pub fn record(&mut self, due_ns: u64, released_ns: u64) {
        let late = released_ns.saturating_sub(due_ns);
        if late >= LATE_NS {
            self.late += 1;
        }
        self.late_ns.push(saturating_ns(late));
    }

    /// Releases recorded.
    pub fn releases(&self) -> usize {
        self.late_ns.len()
    }

    /// The 99th-percentile lateness, in microseconds.
    pub fn p99_us(&self) -> f64 {
        percentile_us(&self.late_ns, 0.99)
    }

    /// Whether the generator fell behind the schedule.
    pub fn fell_behind(&self) -> bool {
        self.late as f64 > MAX_LATE_SHARE * self.late_ns.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_follow_the_rate() {
        let schedule = Schedule::per_second(100_000);
        assert_eq!(schedule.due_ns(0), 0);
        assert_eq!(schedule.due_ns(1), 10_000);
        assert_eq!(schedule.due_ns(100_000), 1_000_000_000);
    }

    #[test]
    fn lateness_is_release_minus_due_and_never_negative() {
        let mut lateness = Lateness::with_capacity(3);
        lateness.record(10_000, 12_000);
        lateness.record(20_000, 15_000);
        lateness.record(30_000, 30_000);
        assert_eq!(lateness.late_ns, vec![2_000, 0, 0]);
        assert_eq!(lateness.releases(), 3);
        assert!(!lateness.fell_behind());
    }

    #[test]
    fn a_generator_that_keeps_missing_by_a_millisecond_fell_behind() {
        let schedule = Schedule::per_second(100_000);
        let mut on_time = Lateness::with_capacity(1000);
        let mut behind = Lateness::with_capacity(1000);
        for i in 0..1000 {
            let due = schedule.due_ns(i);
            on_time.record(due, due + 3_000);
            // From record 900 on the generator trails by 2 ms: 10 % late.
            let slip = if i >= 900 { 2_000_000 } else { 0 };
            behind.record(due, due + slip);
        }
        assert!(!on_time.fell_behind());
        assert!((on_time.p99_us() - 3.0).abs() < 1e-9);
        assert!(behind.fell_behind());
        assert!(behind.p99_us() >= 2_000.0);
    }
}
