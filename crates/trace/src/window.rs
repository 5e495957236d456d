//! Generic windowing and subsequence utilities over arbitrary sequences.
//!
//! These helpers implement the segmentation primitives of the paper: cutting
//! a sequence into overlapping windows of length `w` (trace segmentation and
//! predicate-sequence segmentation) and enumerating the set of length-`l`
//! subsequences used by the compliance check.

use std::collections::HashSet;
use std::hash::Hash;

/// Returns every sliding window of length `w` over `items`, in order.
///
/// Returns an empty vector when `w == 0` or `w > items.len()`, matching the
/// degenerate handling in [`Trace::windows`](crate::Trace::windows).
///
/// # Example
///
/// ```
/// use tracelearn_trace::windows_of;
///
/// let ws = windows_of(&[1, 2, 3, 4], 2);
/// assert_eq!(ws, vec![vec![1, 2], vec![2, 3], vec![3, 4]]);
/// ```
pub fn windows_of<T: Clone>(items: &[T], w: usize) -> Vec<Vec<T>> {
    if w == 0 || w > items.len() {
        return Vec::new();
    }
    items.windows(w).map(<[T]>::to_vec).collect()
}

/// Returns the *unique* sliding windows of length `w` over `items`,
/// preserving first-occurrence order.
///
/// This is the paper's key scalability step: repeating patterns in a long
/// trace collapse to a single segment that is processed once.
///
/// # Example
///
/// ```
/// use tracelearn_trace::unique_windows;
///
/// // A long repeating trace yields very few unique windows.
/// let items: Vec<u32> = (0..100).map(|i| i % 4).collect();
/// let unique = unique_windows(&items, 3);
/// assert_eq!(unique.len(), 4);
/// ```
pub fn unique_windows<T: Clone + Eq + Hash>(items: &[T], w: usize) -> Vec<Vec<T>> {
    let mut seen: HashSet<Vec<T>> = HashSet::new();
    let mut out = Vec::new();
    if w == 0 {
        return out;
    }
    // Copy a window only when the set lacks it: long inputs repeat a few
    // windows millions of times.
    for window in items.windows(w) {
        if !seen.contains(window) {
            seen.insert(window.to_vec());
            out.push(window.to_vec());
        }
    }
    out
}

/// Returns the set of all contiguous subsequences of length `l` of `items`.
///
/// Used by the compliance check: every length-`l` transition sequence of the
/// candidate automaton must be a member of this set.
///
/// # Example
///
/// ```
/// use tracelearn_trace::subsequences;
///
/// let subs = subsequences(&['a', 'b', 'a', 'b'], 2);
/// assert!(subs.contains(&vec!['a', 'b']));
/// assert!(subs.contains(&vec!['b', 'a']));
/// assert_eq!(subs.len(), 2);
/// ```
pub fn subsequences<T: Clone + Eq + Hash>(items: &[T], l: usize) -> HashSet<Vec<T>> {
    let mut set = HashSet::new();
    if l == 0 {
        return set;
    }
    // Copy a subsequence only when the set lacks it, as in `unique_windows`.
    for window in items.windows(l) {
        if !set.contains(window) {
            set.insert(window.to_vec());
        }
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn windows_of_basic() {
        assert_eq!(windows_of(&[1, 2, 3], 1), vec![vec![1], vec![2], vec![3]]);
        assert_eq!(windows_of(&[1, 2, 3], 3), vec![vec![1, 2, 3]]);
        assert!(windows_of(&[1, 2, 3], 4).is_empty());
        assert!(windows_of::<i32>(&[], 1).is_empty());
        assert!(windows_of(&[1, 2, 3], 0).is_empty());
    }

    #[test]
    fn unique_windows_deduplicates_and_keeps_order() {
        let items = [1, 2, 1, 2, 1, 2];
        let unique = unique_windows(&items, 2);
        assert_eq!(unique, vec![vec![1, 2], vec![2, 1]]);
    }

    #[test]
    fn unique_windows_on_constant_sequence() {
        let items = [7u8; 50];
        assert_eq!(unique_windows(&items, 3), vec![vec![7, 7, 7]]);
    }

    #[test]
    fn subsequences_set_semantics() {
        let subs = subsequences(&[1, 1, 1, 2], 2);
        assert_eq!(subs.len(), 2);
        assert!(subs.contains(&vec![1, 1]));
        assert!(subs.contains(&vec![1, 2]));
    }

    proptest! {
        /// The number of (non-unique) windows is exactly n + 1 - w.
        #[test]
        fn window_count_matches_formula(items in proptest::collection::vec(0u8..8, 0..64), w in 1usize..8) {
            let ws = windows_of(&items, w);
            if w <= items.len() {
                prop_assert_eq!(ws.len(), items.len() + 1 - w);
            } else {
                prop_assert!(ws.is_empty());
            }
        }

        /// Every unique window occurs somewhere in the original sequence.
        #[test]
        fn unique_windows_are_genuine_windows(items in proptest::collection::vec(0u8..4, 0..64), w in 1usize..5) {
            let all: std::collections::HashSet<_> = windows_of(&items, w).into_iter().collect();
            for u in unique_windows(&items, w) {
                prop_assert!(all.contains(&u));
            }
        }

        /// unique_windows has no duplicates and covers the same set as windows_of.
        #[test]
        fn unique_windows_cover(items in proptest::collection::vec(0u8..4, 0..64), w in 1usize..5) {
            let unique = unique_windows(&items, w);
            let as_set: std::collections::HashSet<_> = unique.iter().cloned().collect();
            prop_assert_eq!(as_set.len(), unique.len());
            let all: std::collections::HashSet<_> = windows_of(&items, w).into_iter().collect();
            prop_assert_eq!(as_set, all);
        }

        /// Subsequence sets are monotone: longer windows never create members
        /// that are not extensions of shorter ones.
        #[test]
        fn subsequences_members_have_length_l(items in proptest::collection::vec(0u8..4, 0..64), l in 1usize..5) {
            for s in subsequences(&items, l) {
                prop_assert_eq!(s.len(), l);
            }
        }
    }
}
