//! Streaming accumulation of unique sliding windows.
//!
//! [`WindowCollector`] is the incremental counterpart of
//! [`unique_windows`](crate::unique_windows): items are pushed one at a time
//! (or in chunks) and only the *unique* windows — small by the paper's key
//! insight, even for multi-million-item sequences — stay resident, plus a
//! carry of the last `w − 1` items. [`end_trace`](WindowCollector::end_trace)
//! marks a trace boundary so that multi-trace ingestion never fabricates
//! phantom windows spanning two traces.

use std::collections::hash_map::RandomState;
use std::collections::HashSet;
use std::hash::{BuildHasher, Hash};

/// Accumulates the unique sliding windows of length `w` over one or more
/// item streams, keeping only the unique set (first-occurrence order) and a
/// `w − 1` item carry resident. `S` hashes the windows; see
/// [`with_hasher`](WindowCollector::with_hasher).
///
/// # Example
///
/// ```
/// use tracelearn_trace::{unique_windows, WindowCollector};
///
/// let items: Vec<u32> = (0..1000).map(|i| i % 4).collect();
/// let mut collector = WindowCollector::new(3);
/// for &item in &items {
///     collector.push(item);
/// }
/// assert_eq!(collector.unique(), unique_windows(&items, 3).as_slice());
/// assert_eq!(collector.total_windows(), items.len() + 1 - 3);
/// ```
#[derive(Debug, Clone)]
pub struct WindowCollector<T, S = RandomState> {
    w: usize,
    /// The last `< w` items of the current trace.
    carry: Vec<T>,
    seen: HashSet<Vec<T>, S>,
    unique: Vec<Vec<T>>,
    total_windows: usize,
    total_items: usize,
}

impl<T: Clone + Eq + Hash> WindowCollector<T> {
    /// Creates a collector for windows of length `w`.
    ///
    /// # Panics
    ///
    /// Panics when `w == 0` (a zero-length window admits no sensible
    /// streaming semantics; [`unique_windows`](crate::unique_windows)
    /// likewise returns nothing for it).
    pub fn new(w: usize) -> Self {
        WindowCollector::with_hasher(w, RandomState::new())
    }
}

impl<T: Clone + Eq + Hash, S: BuildHasher> WindowCollector<T, S> {
    /// Creates a collector for windows of length `w` that hashes windows
    /// with `hasher`, for items that are ids the program assigned (see
    /// [`IdHasher`](crate::IdHasher)).
    ///
    /// # Panics
    ///
    /// Panics when `w == 0`, as [`new`](WindowCollector::new) does.
    pub fn with_hasher(w: usize, hasher: S) -> Self {
        assert!(w >= 1, "window length must be at least 1");
        WindowCollector {
            w,
            carry: Vec::with_capacity(w),
            seen: HashSet::with_hasher(hasher),
            unique: Vec::new(),
            total_windows: 0,
            total_items: 0,
        }
    }

    /// The window length `w`.
    pub fn window(&self) -> usize {
        self.w
    }

    /// Feeds one item of the current trace.
    pub fn push(&mut self, item: T) {
        self.total_items += 1;
        self.carry.push(item);
        if self.carry.len() == self.w {
            self.total_windows += 1;
            if !self.seen.contains(self.carry.as_slice()) {
                self.seen.insert(self.carry.clone());
                self.unique.push(self.carry.clone());
            }
            self.carry.remove(0);
        }
    }

    /// Feeds a chunk of items of the current trace.
    pub fn extend<I: IntoIterator<Item = T>>(&mut self, items: I) {
        for item in items {
            self.push(item);
        }
    }

    /// Marks the end of the current trace: the carried tail is discarded so
    /// that no window spans into the next trace.
    pub fn end_trace(&mut self) {
        self.carry.clear();
    }

    /// Total items fed so far (across all traces).
    pub fn total_items(&self) -> usize {
        self.total_items
    }

    /// Total (non-unique) windows observed so far.
    pub fn total_windows(&self) -> usize {
        self.total_windows
    }

    /// Number of unique windows collected so far.
    pub fn unique_count(&self) -> usize {
        self.unique.len()
    }

    /// The unique windows in first-occurrence order.
    pub fn unique(&self) -> &[Vec<T>] {
        &self.unique
    }

    /// Consumes the collector, returning the unique windows.
    pub fn into_unique(self) -> Vec<Vec<T>> {
        self.unique
    }

    /// Records an explicit (already complete) segment, deduplicating it
    /// against the windows seen so far. Used for traces shorter than `w`,
    /// whose whole sequence stands in for a window.
    pub fn push_segment(&mut self, segment: Vec<T>) {
        self.total_windows += 1;
        if !self.seen.contains(&segment) {
            self.seen.insert(segment.clone());
            self.unique.push(segment);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::unique_windows;
    use proptest::prelude::*;

    #[test]
    fn matches_batch_unique_windows() {
        let items = [1u8, 2, 1, 2, 1, 2, 3, 1, 2];
        let mut collector = WindowCollector::new(2);
        collector.extend(items.iter().copied());
        assert_eq!(collector.unique(), unique_windows(&items, 2).as_slice());
        assert_eq!(collector.total_windows(), items.len() - 1);
        assert_eq!(collector.total_items(), items.len());
    }

    #[test]
    fn trace_boundaries_suppress_phantom_windows() {
        // Feeding [a, b] then [c, d] must NOT produce the window [b, c].
        let mut collector = WindowCollector::new(2);
        collector.extend(["a", "b"]);
        collector.end_trace();
        collector.extend(["c", "d"]);
        let unique = collector.into_unique();
        assert_eq!(unique, vec![vec!["a", "b"], vec!["c", "d"]]);
    }

    #[test]
    fn duplicates_across_traces_collapse() {
        let mut collector = WindowCollector::new(2);
        collector.extend([1, 2, 3]);
        collector.end_trace();
        collector.extend([1, 2, 3]);
        assert_eq!(collector.unique_count(), 2);
        assert_eq!(collector.total_windows(), 4);
    }

    #[test]
    fn short_trace_contributes_nothing_without_segment() {
        let mut collector = WindowCollector::new(3);
        collector.extend([1, 2]);
        collector.end_trace();
        assert_eq!(collector.unique_count(), 0);
        collector.push_segment(vec![1, 2]);
        assert_eq!(collector.unique_count(), 1);
        collector.push_segment(vec![1, 2]);
        assert_eq!(collector.unique_count(), 1);
        assert_eq!(collector.window(), 3);
    }

    #[test]
    #[should_panic(expected = "window length")]
    fn zero_window_panics() {
        let _ = WindowCollector::<u8>::new(0);
    }

    proptest! {
        /// Streaming collection over arbitrarily chunked input equals the
        /// batch `unique_windows`, for any chunking.
        #[test]
        fn chunked_streaming_equals_batch(
            items in proptest::collection::vec(0u8..5, 0..80),
            w in 1usize..5,
            chunk in 1usize..7,
        ) {
            let mut collector = WindowCollector::new(w);
            for piece in items.chunks(chunk) {
                collector.extend(piece.iter().copied());
            }
            prop_assert_eq!(collector.unique(), unique_windows(&items, w).as_slice());
            let expected_total = (items.len() + 1).saturating_sub(w);
            prop_assert_eq!(collector.total_windows(), expected_total);
        }

        /// Multi-trace collection equals the union of per-trace windows and
        /// never contains a window crossing a boundary.
        #[test]
        fn multi_trace_equals_union(
            a in proptest::collection::vec(0u8..4, 0..40),
            b in proptest::collection::vec(0u8..4, 0..40),
            w in 1usize..4,
        ) {
            let mut collector = WindowCollector::new(w);
            collector.extend(a.iter().copied());
            collector.end_trace();
            collector.extend(b.iter().copied());
            collector.end_trace();

            let mut expected = unique_windows(&a, w);
            for window in unique_windows(&b, w) {
                if !expected.contains(&window) {
                    expected.push(window);
                }
            }
            prop_assert_eq!(collector.into_unique(), expected);
        }
    }
}
