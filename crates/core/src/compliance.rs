//! The compliance check of the refinement loop.
//!
//! A candidate automaton may generalise beyond the trace: it may admit
//! transition sequences that never occur in the predicate sequence `P`. The
//! compliance check enumerates every length-`l` label path of the candidate
//! and compares it against the set of length-`l` subsequences of `P`; any
//! path not backed by the trace is an *invalid sequence* and is excluded in
//! the next solver iteration. The parameter `l` controls the degree of
//! generalisation: the paper uses `l = 2` as the sweet spot between
//! over-generalisation and the NP-complete exact-identification problem.

use crate::predicates::PredId;
use std::collections::HashSet;
use tracelearn_automaton::Nfa;
use tracelearn_trace::subsequences;

/// Returns the invalid transition sequences of `candidate`: label paths of
/// length `l` that are not subsequences of `predicate_sequence`.
///
/// The result is sorted so refinement is deterministic.
///
/// # Example
///
/// ```
/// use tracelearn_automaton::{Nfa, StateId};
/// use tracelearn_core::compliance::invalid_sequences;
/// use tracelearn_core::{PredicateAlphabet};
/// use tracelearn_expr::Predicate;
///
/// let mut alphabet = PredicateAlphabet::new();
/// let a = alphabet.intern(Predicate::True);
/// let b = alphabet.intern(Predicate::False);
///
/// // A one-state automaton with self-loops on both labels admits the path
/// // [b, a], which never occurs in the sequence [a, b].
/// let mut nfa = Nfa::new(1, StateId::new(0));
/// nfa.add_transition(StateId::new(0), a, StateId::new(0));
/// nfa.add_transition(StateId::new(0), b, StateId::new(0));
/// let invalid = invalid_sequences(&nfa, &[a, b], 2);
/// assert!(invalid.contains(&vec![b, a]));
/// ```
pub fn invalid_sequences(
    candidate: &Nfa<PredId>,
    predicate_sequence: &[PredId],
    l: usize,
) -> Vec<Vec<PredId>> {
    ComplianceChecker::new(std::slice::from_ref(&predicate_sequence.to_vec()), l).invalid(candidate)
}

/// Whether the candidate passes the compliance check.
pub fn is_compliant(candidate: &Nfa<PredId>, predicate_sequence: &[PredId], l: usize) -> bool {
    invalid_sequences(candidate, predicate_sequence, l).is_empty()
}

/// The compliance oracle with its allowed-subsequence set precomputed.
///
/// The set of valid length-`l` subsequences is a property of the predicate
/// sequence(s) alone — it never changes across refinement rounds or state
/// counts — so the learner builds it **once** per run instead of rescanning
/// the (possibly multi-million-element) sequence on every round. For
/// multi-trace learning the set is the union over all traces: a behaviour is
/// valid when *some* recorded run exhibits it, and no subsequence spanning
/// two traces is ever admitted.
#[derive(Debug, Clone)]
pub struct ComplianceChecker {
    allowed: HashSet<Vec<PredId>>,
    l: usize,
}

impl ComplianceChecker {
    /// Builds the checker from one predicate sequence per trace. Any
    /// sequences with the same length-`l` substrings serve as well: the
    /// learner passes its unique solver windows when `l ≤ w`.
    pub fn new(predicate_sequences: &[Vec<PredId>], l: usize) -> Self {
        let mut allowed: HashSet<Vec<PredId>> = HashSet::new();
        for sequence in predicate_sequences {
            allowed.extend(subsequences(sequence, l));
        }
        ComplianceChecker { allowed, l }
    }

    /// The compliance path length `l`.
    pub fn compliance_length(&self) -> usize {
        self.l
    }

    /// Number of distinct valid length-`l` subsequences.
    pub fn allowed_count(&self) -> usize {
        self.allowed.len()
    }

    /// The invalid transition sequences of `candidate`, sorted so that
    /// refinement is deterministic.
    pub fn invalid(&self, candidate: &Nfa<PredId>) -> Vec<Vec<PredId>> {
        let mut invalid: Vec<Vec<PredId>> = candidate
            .label_paths(self.l)
            .paths
            .into_iter()
            .filter(|path| !self.allowed.contains(path))
            .collect();
        invalid.sort();
        invalid
    }

    /// Whether the candidate passes the compliance check.
    pub fn is_compliant(&self, candidate: &Nfa<PredId>) -> bool {
        self.invalid(candidate).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learner::segment;
    use crate::predicates::PredicateAlphabet;
    use proptest::prelude::*;
    use tracelearn_automaton::StateId;
    use tracelearn_expr::{IntTerm, Predicate};
    use tracelearn_trace::VarId;

    fn alphabet_of(n: usize) -> (PredicateAlphabet, Vec<PredId>) {
        let mut alphabet = PredicateAlphabet::new();
        let ids = (0..n)
            .map(|k| {
                alphabet.intern(Predicate::update(
                    VarId::new(0),
                    IntTerm::constant(k as i64),
                ))
            })
            .collect();
        (alphabet, ids)
    }

    #[test]
    fn faithful_cycle_is_compliant() {
        let (_, p) = alphabet_of(3);
        let sequence = vec![p[0], p[1], p[2], p[0], p[1], p[2], p[0]];
        let mut nfa = Nfa::new(3, StateId::new(0));
        nfa.add_transition(StateId::new(0), p[0], StateId::new(1));
        nfa.add_transition(StateId::new(1), p[1], StateId::new(2));
        nfa.add_transition(StateId::new(2), p[2], StateId::new(0));
        assert!(is_compliant(&nfa, &sequence, 2));
        assert!(invalid_sequences(&nfa, &sequence, 2).is_empty());
    }

    #[test]
    fn over_general_self_loop_is_detected() {
        let (_, p) = alphabet_of(2);
        let sequence = vec![p[0], p[1], p[0], p[1]];
        let mut nfa = Nfa::new(1, StateId::new(0));
        nfa.add_transition(StateId::new(0), p[0], StateId::new(0));
        nfa.add_transition(StateId::new(0), p[1], StateId::new(0));
        let invalid = invalid_sequences(&nfa, &sequence, 2);
        assert_eq!(invalid, vec![vec![p[0], p[0]], vec![p[1], p[1]]]);
        assert!(!is_compliant(&nfa, &sequence, 2));
    }

    #[test]
    fn checker_unions_sequences_without_bridging_boundaries() {
        let (_, p) = alphabet_of(3);
        // Trace 1 exhibits [p0 p1], trace 2 exhibits [p1 p2]; the boundary
        // pair [p1 p1] (last of trace 1, first of trace 2) is NOT valid.
        let checker = ComplianceChecker::new(&[vec![p[0], p[1]], vec![p[1], p[2]]], 2);
        assert_eq!(checker.compliance_length(), 2);
        assert_eq!(checker.allowed_count(), 2);
        let mut nfa = Nfa::new(2, StateId::new(0));
        nfa.add_transition(StateId::new(0), p[0], StateId::new(1));
        nfa.add_transition(StateId::new(1), p[1], StateId::new(1));
        nfa.add_transition(StateId::new(1), p[2], StateId::new(0));
        // [p1 p1] is a path of the candidate but no single trace backs it.
        let invalid = checker.invalid(&nfa);
        assert!(invalid.contains(&vec![p[1], p[1]]));
        assert!(!checker.is_compliant(&nfa));
    }

    #[test]
    fn checker_agrees_with_free_function() {
        let (_, p) = alphabet_of(2);
        let sequence = vec![p[0], p[1], p[0], p[1]];
        let mut nfa = Nfa::new(1, StateId::new(0));
        nfa.add_transition(StateId::new(0), p[0], StateId::new(0));
        nfa.add_transition(StateId::new(0), p[1], StateId::new(0));
        let checker = ComplianceChecker::new(std::slice::from_ref(&sequence), 2);
        assert_eq!(checker.invalid(&nfa), invalid_sequences(&nfa, &sequence, 2));
    }

    #[test]
    fn longer_compliance_length_is_stricter() {
        let (_, p) = alphabet_of(2);
        // Sequence abab…; a two-state flip-flop is compliant for l = 2 and
        // also for l = 3 (aba and bab are subsequences).
        let sequence = vec![p[0], p[1], p[0], p[1], p[0]];
        let mut nfa = Nfa::new(2, StateId::new(0));
        nfa.add_transition(StateId::new(0), p[0], StateId::new(1));
        nfa.add_transition(StateId::new(1), p[1], StateId::new(0));
        assert!(is_compliant(&nfa, &sequence, 2));
        assert!(is_compliant(&nfa, &sequence, 3));
        // But a model that also loops on `a` fails at l = 2 already.
        nfa.add_transition(StateId::new(1), p[0], StateId::new(1));
        assert!(!is_compliant(&nfa, &sequence, 2));
    }

    proptest! {
        /// With `l ≤ w`, the learner's unique solver windows admit exactly
        /// the length-`l` behaviours of the full sequences: over several
        /// shards, in full-trace mode, and with shards shorter than `w`.
        #[test]
        fn unique_windows_allow_what_the_sequences_allow(
            shards in proptest::collection::vec(proptest::collection::vec(0usize..4, 0..24), 1..5),
            w in 1usize..6,
            l_offset in 0usize..6,
            segmented in proptest::bool::ANY,
        ) {
            let (_, p) = alphabet_of(4);
            let sequences: Vec<Vec<PredId>> = shards
                .iter()
                .map(|shard| shard.iter().map(|&k| p[k]).collect())
                .collect();
            let l = 1 + l_offset % w;
            let (windows, _) = segment(&sequences, w, segmented);
            let from_windows = ComplianceChecker::new(&windows, l);
            let from_sequences = ComplianceChecker::new(&sequences, l);
            prop_assert_eq!(from_windows.allowed, from_sequences.allowed);
        }
    }

    #[test]
    fn paths_longer_than_the_sequence_are_invalid() {
        let (_, p) = alphabet_of(1);
        let sequence = vec![p[0], p[0]];
        let mut nfa = Nfa::new(1, StateId::new(0));
        nfa.add_transition(StateId::new(0), p[0], StateId::new(0));
        // l = 3 paths exist in the model but the sequence only has length-2
        // subsequences at most… actually it has none of length 3.
        let invalid = invalid_sequences(&nfa, &sequence, 3);
        assert_eq!(invalid, vec![vec![p[0], p[0], p[0]]]);
    }
}
