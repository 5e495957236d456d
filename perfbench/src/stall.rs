//! The read-gap stall detector of the closed-loop serving pass.
//!
//! The benchmark's reader stamps the clock once per segment of input lines,
//! never per line. A gap between two stamps that reaches the threshold means
//! the dispatcher stopped pulling input for that long — in this server,
//! because it slept on a full worker queue.

/// Gaps this long or longer count as input stalls.
pub const STALL_THRESHOLD_NS: u64 = 500_000;

/// Counts read gaps of at least a threshold between successive stamps.
#[derive(Debug, Clone)]
pub struct StallDetector {
    threshold_ns: u64,
    last_ns: Option<u64>,
    stalls: u64,
    stalled_ns: u64,
}

impl StallDetector {
    /// A detector for gaps of at least `threshold_ns`.
    pub fn new(threshold_ns: u64) -> StallDetector {
        StallDetector {
            threshold_ns,
            last_ns: None,
            stalls: 0,
            stalled_ns: 0,
        }
    }

    /// Feeds the next read stamp (nanoseconds, non-decreasing).
    pub fn observe(&mut self, now_ns: u64) {
        if let Some(last) = self.last_ns {
            let gap = now_ns.saturating_sub(last);
            if gap >= self.threshold_ns {
                self.stalls += 1;
                self.stalled_ns += gap;
            }
        }
        self.last_ns = Some(now_ns);
    }

    /// Gaps at or above the threshold.
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// Total length of those gaps.
    pub fn stalled_ns(&self) -> u64 {
        self.stalled_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_gaps_at_or_above_the_threshold_are_stalls() {
        let mut detector = StallDetector::new(STALL_THRESHOLD_NS);
        for stamp in [0, 60_000, 120_000, 1_200_000, 1_260_000, 1_760_000] {
            detector.observe(stamp);
        }
        // 1.08 ms after 120 µs and exactly 0.5 ms at the end.
        assert_eq!(detector.stalls(), 2);
        assert_eq!(detector.stalled_ns(), 1_080_000 + 500_000);
    }

    #[test]
    fn the_first_stamp_opens_no_gap() {
        let mut detector = StallDetector::new(STALL_THRESHOLD_NS);
        detector.observe(9_000_000);
        assert_eq!((detector.stalls(), detector.stalled_ns()), (0, 0));
    }
}
