//! CNF encoding of the "does an N-state automaton exist" query.
//!
//! The paper encodes the query as a C program whose assertion failure
//! witnesses are automata and hands it to CBMC; here the same constraint
//! system is encoded directly into CNF and decided by the workspace's CDCL
//! solver. The encoding is linear in the total number of window slots:
//!
//! * one-hot state variables `q[i][j][s]` for slot `j` of window `i`;
//! * successor-function variables `succ[s][p][t]`, at most one target per
//!   (state, predicate) pair — this is the paper's "no two transitions with
//!   the same source and label but different targets" constraint;
//! * linkage clauses `q[i][j][s] ∧ q[i][j+1][t] → succ[s][p][t]` forcing
//!   every window to be a path of the automaton;
//! * path-exclusion clauses for the invalid sequences discovered by the
//!   compliance check;
//! * BFS-order symmetry-breaking predicates over the state variables (the
//!   lowest-index state is initial, each new state is first reached from a
//!   lower-indexed point of the slot sequence), so the solver never
//!   re-explores a state relabelling of a candidate machine it has already
//!   ruled out.
//!
//! The decoded automaton contains exactly the transitions exercised by the
//! window slots, so unconstrained `succ` variables never introduce spurious
//! transitions.

use crate::predicates::PredId;
use std::collections::{BTreeSet, HashMap};
use tracelearn_automaton::{Nfa, StateId};
use tracelearn_sat::{Cnf, Lit, Model, Var};

/// Builder for the automaton-existence CNF.
///
/// The encoder supports an *incremental* protocol in addition to the one-shot
/// [`AutomatonEncoder::encode`]: build the base constraint system once per
/// state count with [`AutomatonEncoder::encode_base`], then after each
/// [`AutomatonEncoder::forbid_sequence`] batch pull only the new
/// path-exclusion clauses with [`AutomatonEncoder::delta_clauses`] and feed
/// them to an already-running solver.
#[derive(Debug, Clone)]
pub struct AutomatonEncoder {
    windows: Vec<Vec<PredId>>,
    num_states: usize,
    forbidden: Vec<Vec<PredId>>,
    /// How many entries of `forbidden` the last `encode_base` /
    /// `delta_clauses` call already turned into clauses.
    encoded_forbidden: usize,
    /// Whether [`AutomatonEncoder::encode_base`] emits the BFS-order
    /// symmetry-breaking predicates (on by default; the off switch exists
    /// for the SAT-equivalence tests and ablation benchmarks).
    symmetry_breaking: bool,
}

/// The variable layout of an encoded instance, needed to decode a model.
#[derive(Debug, Clone)]
pub struct Encoding {
    /// The CNF formula.
    pub cnf: Cnf,
    /// `slot_vars[i][j][s]`: slot `j` of window `i` is in state `s`.
    slot_vars: Vec<Vec<Vec<Var>>>,
    /// `succ_vars[(s, p, t)]`: the automaton has the transition `s --p--> t`.
    succ_vars: HashMap<(usize, PredId, usize), Var>,
    /// The predicates occurring in the windows.
    alphabet: BTreeSet<PredId>,
    num_states: usize,
}

impl AutomatonEncoder {
    /// Creates an encoder for the given predicate windows and state count.
    ///
    /// # Panics
    ///
    /// Panics if `num_states` is zero or no window is given.
    pub fn new(windows: Vec<Vec<PredId>>, num_states: usize) -> Self {
        assert!(num_states > 0, "at least one state is required");
        assert!(!windows.is_empty(), "at least one window is required");
        AutomatonEncoder {
            windows,
            num_states,
            forbidden: Vec::new(),
            encoded_forbidden: 0,
            symmetry_breaking: true,
        }
    }

    /// Enables or disables the BFS-order symmetry-breaking predicates (on by
    /// default). Turning them off leaves a *relabelling-closed* encoding:
    /// satisfiability is unchanged (every model of the broken encoding is a
    /// model of the unbroken one, and every unbroken model relabels into a
    /// broken one), but UNSAT answers must refute all `(k-1)!` state
    /// relabellings. Exists for equivalence tests and ablation runs.
    #[must_use]
    pub fn with_symmetry_breaking(mut self, on: bool) -> Self {
        self.symmetry_breaking = on;
        self
    }

    /// Whether the encoder emits symmetry-breaking predicates.
    pub fn symmetry_breaking(&self) -> bool {
        self.symmetry_breaking
    }

    /// Retargets the encoder to a different state count, keeping the windows
    /// and every registered forbidden sequence (path exclusions discovered at
    /// one state count remain valid at every other: they are properties of
    /// the predicate sequence, not of a particular automaton size).
    ///
    /// # Panics
    ///
    /// Panics if `num_states` is zero.
    pub fn set_num_states(&mut self, num_states: usize) {
        assert!(num_states > 0, "at least one state is required");
        self.num_states = num_states;
    }

    /// The windows this encoder constrains.
    pub fn windows(&self) -> &[Vec<PredId>] {
        &self.windows
    }

    /// Adds an invalid transition sequence that must not be a path of the
    /// automaton (a compliance-check counterexample).
    pub fn forbid_sequence(&mut self, sequence: Vec<PredId>) {
        if !sequence.is_empty() && !self.forbidden.contains(&sequence) {
            self.forbidden.push(sequence);
        }
    }

    /// The number of forbidden sequences currently registered.
    pub fn num_forbidden(&self) -> usize {
        self.forbidden.len()
    }

    /// A cheap upper bound on the number of clauses the encoding will
    /// produce, used to enforce the learner's size budget before building
    /// the formula.
    pub fn estimated_clauses(&self) -> usize {
        let n = self.num_states;
        let slots: usize = self.windows.iter().map(|w| w.len()).sum();
        let alphabet: usize = self.windows.iter().flatten().collect::<BTreeSet<_>>().len();
        let states_per_slot = n * n / 2 + 1; // exactly-one
        let linkage = slots * n * n;
        let succ = n * alphabet * (n * n / 2 + 1);
        let symmetry = if self.symmetry_breaking {
            (slots + self.windows.len()) * n * 5 + 1
        } else {
            0
        };
        let forbidden: usize = self
            .forbidden
            .iter()
            .map(|seq| n.pow(seq.len() as u32 + 1))
            .sum();
        (slots + self.windows.len()) * states_per_slot + linkage + succ + symmetry + forbidden
    }

    /// Builds the CNF instance (base constraints plus every forbidden
    /// sequence registered so far). Does not affect the incremental cursor
    /// used by [`AutomatonEncoder::delta_clauses`].
    pub fn encode(&self) -> Encoding {
        self.build()
    }

    /// Builds the CNF instance and marks every currently registered
    /// forbidden sequence as encoded, so a subsequent
    /// [`AutomatonEncoder::delta_clauses`] call yields only the exclusions
    /// added after this point. Call once per candidate state count.
    pub fn encode_base(&mut self) -> Encoding {
        let encoding = self.build();
        self.encoded_forbidden = self.forbidden.len();
        encoding
    }

    /// Returns the path-exclusion clauses for the forbidden sequences added
    /// since the last [`AutomatonEncoder::encode_base`] /
    /// [`AutomatonEncoder::delta_clauses`] call, phrased over `encoding`'s
    /// variables. Feeding them to the solver that loaded `encoding` brings it
    /// up to date without rebuilding the formula.
    pub fn delta_clauses(&mut self, encoding: &Encoding) -> Vec<Vec<Lit>> {
        assert_eq!(
            encoding.num_states, self.num_states,
            "encoding was built for a different state count"
        );
        let mut clauses = Vec::new();
        for sequence in &self.forbidden[self.encoded_forbidden..] {
            push_exclusion_clauses(
                sequence,
                &encoding.alphabet,
                &encoding.succ_vars,
                self.num_states,
                &mut clauses,
            );
        }
        self.encoded_forbidden = self.forbidden.len();
        clauses
    }

    fn build(&self) -> Encoding {
        let n = self.num_states;
        let mut cnf = Cnf::new();

        // Successor variables for every predicate that occurs in a window.
        let alphabet: BTreeSet<PredId> = self.windows.iter().flatten().copied().collect();
        let mut succ_vars: HashMap<(usize, PredId, usize), Var> = HashMap::new();
        for s in 0..n {
            for &p in &alphabet {
                for t in 0..n {
                    succ_vars.insert((s, p, t), cnf.new_var());
                }
                // Determinism: at most one successor per (state, predicate).
                let lits: Vec<Lit> = (0..n)
                    .map(|t| Lit::positive(succ_vars[&(s, p, t)]))
                    .collect();
                cnf.at_most_one(&lits);
            }
        }

        // Slot state variables, one-hot per slot.
        let mut slot_vars: Vec<Vec<Vec<Var>>> = Vec::with_capacity(self.windows.len());
        for window in &self.windows {
            let mut per_slot = Vec::with_capacity(window.len() + 1);
            for _ in 0..=window.len() {
                let vars = cnf.new_vars(n);
                let lits: Vec<Lit> = vars.iter().map(|&v| Lit::positive(v)).collect();
                cnf.exactly_one(&lits);
                per_slot.push(vars);
            }
            slot_vars.push(per_slot);
        }

        // BFS-order symmetry breaking: automaton states are interchangeable,
        // so without extra constraints every UNSAT proof must refute all
        // (k-1)! relabellings of every candidate machine. Emit predicates
        // that admit only the canonical relabelling in which the
        // lowest-index state is the initial one and each new state is first
        // reached from a lower-indexed point of the (linearised) slot
        // sequence. Satisfiability is preserved — any solution relabels into
        // this canonical form — while the "no k-state automaton exists"
        // refutations shrink by the orbit factor.
        if self.symmetry_breaking {
            self.emit_symmetry_breaking(&mut cnf, &slot_vars);
        }

        // Linkage: every window is a path consistent with the successor
        // function.
        for (i, window) in self.windows.iter().enumerate() {
            for (j, &p) in window.iter().enumerate() {
                for s in 0..n {
                    for t in 0..n {
                        cnf.implies2(
                            Lit::positive(slot_vars[i][j][s]),
                            Lit::positive(slot_vars[i][j + 1][t]),
                            Lit::positive(succ_vars[&(s, p, t)]),
                        );
                    }
                }
            }
        }

        // Forbidden paths from the compliance check.
        let mut exclusions = Vec::new();
        for sequence in &self.forbidden {
            push_exclusion_clauses(sequence, &alphabet, &succ_vars, n, &mut exclusions);
        }
        for clause in exclusions {
            cnf.add_clause(clause);
        }

        Encoding {
            cnf,
            slot_vars,
            succ_vars,
            alphabet,
            num_states: n,
        }
    }

    /// Emits the BFS-order symmetry-breaking predicates over the slot state
    /// variables: the lowest-index state is the initial one (the first slot
    /// of the first window is pinned to state 0), and a ladder of "seen"
    /// variables — `seen[t][s]` ⇔ some slot at position ≤ `t` is in state
    /// `s` — forces states to be numbered in first-use order along the
    /// linearised slot sequence: a slot may only enter state `s ≥ 1` once
    /// state `s − 1` was seen strictly earlier. (The monotone clauses
    /// `seen[t][s] → seen[t][s−1]` are implied and deliberately *not*
    /// emitted: measured on usb_attach they steer the search into ~35 %
    /// more conflicts.) Everything here is phrased over the base variables,
    /// so the delta protocol is unaffected.
    fn emit_symmetry_breaking(&self, cnf: &mut Cnf, slot_vars: &[Vec<Vec<Var>>]) {
        let n = self.num_states;
        // The lowest-index state is the initial state.
        cnf.add_clause([Lit::positive(slot_vars[0][0][0])]);
        let linear: Vec<&Vec<Var>> = slot_vars.iter().flatten().collect();
        let mut previous_seen: Vec<Var> = Vec::new();
        for (t, slot) in linear.iter().enumerate() {
            let seen = cnf.new_vars(n);
            for s in 0..n {
                cnf.implies(Lit::positive(slot[s]), Lit::positive(seen[s]));
                if t == 0 {
                    cnf.implies(Lit::positive(seen[s]), Lit::positive(slot[s]));
                    if s >= 1 {
                        // The first slot is pinned to state 0.
                        cnf.add_clause([Lit::negative(slot[s])]);
                    }
                } else {
                    cnf.add_clause([
                        Lit::negative(seen[s]),
                        Lit::positive(previous_seen[s]),
                        Lit::positive(slot[s]),
                    ]);
                    cnf.implies(Lit::positive(previous_seen[s]), Lit::positive(seen[s]));
                    if s >= 1 {
                        // First reached only after s − 1 was reached earlier.
                        cnf.implies(Lit::positive(slot[s]), Lit::positive(previous_seen[s - 1]));
                    }
                }
            }
            previous_seen = seen;
        }
    }
}

/// Appends the clauses forbidding `sequence` as a path: for every state tuple
/// `(s₀, …, s_k)`, not all of the transitions `s_i --p_i--> s_{i+1}` may be
/// present.
fn push_exclusion_clauses(
    sequence: &[PredId],
    alphabet: &BTreeSet<PredId>,
    succ_vars: &HashMap<(usize, PredId, usize), Var>,
    n: usize,
    out: &mut Vec<Vec<Lit>>,
) {
    if sequence.iter().any(|p| !alphabet.contains(p)) {
        // A sequence mentioning a predicate outside the alphabet can never be
        // a path built from window slots.
        return;
    }
    let mut states = vec![0usize; sequence.len() + 1];
    loop {
        let clause: Vec<Lit> = sequence
            .iter()
            .enumerate()
            .map(|(k, &p)| Lit::negative(succ_vars[&(states[k], p, states[k + 1])]))
            .collect();
        out.push(clause);
        // Advance the state tuple (odometer).
        let mut position = 0;
        loop {
            if position == states.len() {
                break;
            }
            states[position] += 1;
            if states[position] < n {
                break;
            }
            states[position] = 0;
            position += 1;
        }
        if position == states.len() {
            break;
        }
    }
}

impl Encoding {
    /// Decodes a satisfying assignment into an automaton over predicate ids.
    ///
    /// Transitions are read off the window slots (not the raw successor
    /// variables), so the decoded automaton contains exactly the transitions
    /// needed to embed every window.
    pub fn decode(&self, windows: &[Vec<PredId>], model: &Model) -> Nfa<PredId> {
        let state_of = |vars: &[Var]| -> usize {
            vars.iter()
                .position(|&v| model.value(v))
                .expect("exactly-one constraint guarantees a state")
        };
        let initial = state_of(&self.slot_vars[0][0]);
        let mut nfa = Nfa::new(self.num_states, StateId::new(initial as u32));
        for (i, window) in windows.iter().enumerate() {
            for (j, &p) in window.iter().enumerate() {
                let from = state_of(&self.slot_vars[i][j]);
                let to = state_of(&self.slot_vars[i][j + 1]);
                nfa.add_transition(StateId::new(from as u32), p, StateId::new(to as u32));
            }
        }
        nfa
    }

    /// Whether the decoded transition relation marks `s --p--> t` as used.
    pub fn successor_var(&self, s: usize, p: PredId, t: usize) -> Option<Var> {
        self.succ_vars.get(&(s, p, t)).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicates::PredicateAlphabet;
    use tracelearn_expr::Predicate;
    use tracelearn_sat::{SatResult, Solver};

    fn ids(alphabet: &mut PredicateAlphabet, n: usize) -> Vec<PredId> {
        // Distinct dummy predicates: x' = k for k in 0..n over a fake variable.
        (0..n)
            .map(|k| {
                alphabet.intern(Predicate::update(
                    tracelearn_trace::VarId::new(0),
                    tracelearn_expr::IntTerm::constant(k as i64),
                ))
            })
            .collect()
    }

    fn solve(encoder: &AutomatonEncoder) -> Option<Nfa<PredId>> {
        let encoding = encoder.encode();
        match Solver::from_cnf(&encoding.cnf).solve() {
            SatResult::Sat(model) => Some(encoding.decode(&encoder.windows, &model)),
            SatResult::Unsat => None,
            SatResult::Unknown => panic!("no limits were set"),
        }
    }

    #[test]
    fn single_window_needs_enough_states_without_loops() {
        let mut alphabet = PredicateAlphabet::new();
        let p = ids(&mut alphabet, 3);
        // Window a b c: a 1-state automaton exists (all self-loops).
        let encoder = AutomatonEncoder::new(vec![vec![p[0], p[1], p[2]]], 1);
        let nfa = solve(&encoder).expect("one state suffices with self-loops");
        assert_eq!(nfa.num_states(), 1);
        assert_eq!(nfa.num_transitions(), 3);
    }

    #[test]
    fn determinism_forces_unsat_when_states_are_too_few() {
        let mut alphabet = PredicateAlphabet::new();
        let p = ids(&mut alphabet, 3);
        // Windows: a b  and  a c — from the same source state, `a` must go to
        // two different places unless the sources differ. With 1 state the
        // instance is UNSAT; with 2 states it becomes satisfiable.
        let windows = vec![
            vec![p[0], p[1]],
            vec![p[0], p[2]],
            vec![p[1], p[0]],
            vec![p[2], p[2]],
        ];
        // b from the state reached by a, and c from that same state, force a split.
        let encoder = AutomatonEncoder::new(windows.clone(), 1);
        // With one state: a→s0 always, then b and c both leave s0 — that is
        // allowed (different predicates); so 1 state is actually satisfiable.
        assert!(solve(&encoder).is_some());

        // Force a genuine conflict: the same predicate must lead to two
        // different states. Window [a, b] pins a's target to where b starts;
        // forbidding the sequence [a, c] cannot help — instead we check that
        // forbidding [b, a] (which occurs as a window) is UNSAT at any size.
        let mut conflicted = AutomatonEncoder::new(windows, 2);
        conflicted.forbid_sequence(vec![p[1], p[0]]);
        assert!(
            solve(&conflicted).is_none(),
            "forbidding an embedded window is contradictory"
        );
    }

    #[test]
    fn forbidden_sequences_are_not_paths() {
        let mut alphabet = PredicateAlphabet::new();
        let p = ids(&mut alphabet, 3);
        // Windows embed a→b and b→c; without constraints a 1-state automaton
        // would also admit the path a→c … a, c adjacency.
        let windows = vec![vec![p[0], p[1]], vec![p[1], p[2]]];
        let mut encoder = AutomatonEncoder::new(windows, 2);
        encoder.forbid_sequence(vec![p[2], p[0]]);
        encoder.forbid_sequence(vec![p[2], p[2]]);
        let nfa = solve(&encoder).expect("two states suffice");
        let paths: Vec<Vec<PredId>> = nfa.label_paths(2).paths;
        assert!(!paths.contains(&vec![p[2], p[0]]));
        assert!(!paths.contains(&vec![p[2], p[2]]));
        // The embedded windows remain paths.
        assert!(paths.contains(&vec![p[0], p[1]]));
        assert!(paths.contains(&vec![p[1], p[2]]));
    }

    #[test]
    fn unsatisfiable_when_forbidding_an_embedded_window() {
        let mut alphabet = PredicateAlphabet::new();
        let p = ids(&mut alphabet, 2);
        let mut encoder = AutomatonEncoder::new(vec![vec![p[0], p[1]]], 4);
        encoder.forbid_sequence(vec![p[0], p[1]]);
        assert!(solve(&encoder).is_none());
    }

    #[test]
    fn decoded_automaton_embeds_every_window() {
        let mut alphabet = PredicateAlphabet::new();
        let p = ids(&mut alphabet, 4);
        let windows = vec![
            vec![p[0], p[1], p[2]],
            vec![p[1], p[2], p[3]],
            vec![p[2], p[3], p[0]],
        ];
        let encoder = AutomatonEncoder::new(windows.clone(), 3);
        let nfa = solve(&encoder).expect("three states suffice");
        for window in &windows {
            assert!(nfa.accepts_from_any_state(window), "window not embedded");
        }
        assert!(nfa.is_deterministic());
    }

    #[test]
    fn forbidding_duplicate_sequences_is_idempotent() {
        let mut alphabet = PredicateAlphabet::new();
        let p = ids(&mut alphabet, 2);
        let mut encoder = AutomatonEncoder::new(vec![vec![p[0], p[1]]], 2);
        encoder.forbid_sequence(vec![p[1], p[1]]);
        encoder.forbid_sequence(vec![p[1], p[1]]);
        encoder.forbid_sequence(vec![]);
        assert_eq!(encoder.num_forbidden(), 1);
    }

    #[test]
    fn estimated_clauses_is_an_upper_bound() {
        let mut alphabet = PredicateAlphabet::new();
        let p = ids(&mut alphabet, 3);
        let mut encoder = AutomatonEncoder::new(vec![vec![p[0], p[1], p[2]]], 3);
        encoder.forbid_sequence(vec![p[2], p[2]]);
        let estimate = encoder.estimated_clauses();
        let actual = encoder.encode().cnf.num_clauses();
        assert!(estimate >= actual, "estimate {estimate} < actual {actual}");
    }

    #[test]
    #[should_panic(expected = "at least one window")]
    fn empty_windows_panic() {
        let _ = AutomatonEncoder::new(vec![], 2);
    }

    /// New in this PR — (c) of the solver test checklist: the
    /// symmetry-broken encoding is SAT/UNSAT-equivalent to the unbroken one
    /// on small hand-built automata, across state counts and forbidden-
    /// sequence sets. Symmetry breaking only prunes relabellings; it must
    /// never flip an answer.
    #[test]
    fn symmetry_breaking_preserves_satisfiability() {
        let mut alphabet = PredicateAlphabet::new();
        let p = ids(&mut alphabet, 4);
        let window_sets: Vec<Vec<Vec<PredId>>> = vec![
            vec![vec![p[0], p[1], p[2]]],
            vec![vec![p[0], p[1]], vec![p[1], p[2]], vec![p[2], p[0]]],
            vec![vec![p[0], p[0], p[1]], vec![p[1], p[3]]],
        ];
        let forbidden_sets: Vec<Vec<Vec<PredId>>> = vec![
            vec![],
            vec![vec![p[2], p[2]]],
            vec![vec![p[1], p[0]], vec![p[0], p[1]]], // includes an embedded window
        ];
        for windows in &window_sets {
            for forbidden in &forbidden_sets {
                for n in 1..=4 {
                    let mut broken = AutomatonEncoder::new(windows.clone(), n);
                    let mut unbroken =
                        AutomatonEncoder::new(windows.clone(), n).with_symmetry_breaking(false);
                    assert!(broken.symmetry_breaking());
                    assert!(!unbroken.symmetry_breaking());
                    for sequence in forbidden {
                        broken.forbid_sequence(sequence.clone());
                        unbroken.forbid_sequence(sequence.clone());
                    }
                    let broken_encoding = broken.encode();
                    let with = Solver::from_cnf(&broken_encoding.cnf).solve();
                    let without = Solver::from_cnf(&unbroken.encode().cnf).solve();
                    assert_eq!(
                        with.is_sat(),
                        without.is_sat(),
                        "symmetry breaking flipped the answer at n={n} for \
                         windows {windows:?} / forbidden {forbidden:?}"
                    );
                    // A SAT broken encoding decodes into a valid automaton
                    // that embeds every window.
                    if let SatResult::Sat(model) = &with {
                        let nfa = broken_encoding.decode(windows, model);
                        for window in windows {
                            assert!(nfa.accepts_from_any_state(window));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn symmetry_breaking_numbers_states_in_first_use_order() {
        let mut alphabet = PredicateAlphabet::new();
        let p = ids(&mut alphabet, 3);
        // Two windows that force at least three states when self-loops are
        // forbidden on every predicate.
        let windows = vec![vec![p[0], p[1]], vec![p[1], p[2]]];
        let mut encoder = AutomatonEncoder::new(windows.clone(), 3);
        for &q in &p {
            encoder.forbid_sequence(vec![q, q]);
        }
        let encoding = encoder.encode();
        match Solver::from_cnf(&encoding.cnf).solve() {
            SatResult::Sat(model) => {
                let nfa = encoding.decode(&windows, &model);
                // Canonical numbering: the initial state is 0, and walking
                // the linearised slots never jumps to a state whose
                // predecessor index has not appeared yet.
                assert_eq!(nfa.initial().index(), 0);
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn delta_clauses_cover_only_new_forbidden_sequences() {
        let mut alphabet = PredicateAlphabet::new();
        let p = ids(&mut alphabet, 3);
        let windows = vec![vec![p[0], p[1]], vec![p[1], p[2]]];
        let mut encoder = AutomatonEncoder::new(windows, 2);
        encoder.forbid_sequence(vec![p[2], p[0]]);
        let encoding = encoder.encode_base();
        // Already-encoded sequences do not reappear in the delta.
        assert!(encoder.delta_clauses(&encoding).is_empty());
        encoder.forbid_sequence(vec![p[2], p[2]]);
        let delta = encoder.delta_clauses(&encoding);
        // One exclusion clause per state tuple: n^(len+1) = 2^3.
        assert_eq!(delta.len(), 8);
        // The cursor advanced: pulling again yields nothing.
        assert!(encoder.delta_clauses(&encoding).is_empty());
        // Sequences outside the window alphabet contribute no clauses.
        let mut extra = PredicateAlphabet::new();
        let foreign = ids(&mut extra, 5);
        encoder.forbid_sequence(vec![foreign[4]]);
        assert!(encoder.delta_clauses(&encoding).is_empty());
    }

    #[test]
    fn incremental_deltas_agree_with_from_scratch_encoding() {
        let mut alphabet = PredicateAlphabet::new();
        let p = ids(&mut alphabet, 3);
        let windows = vec![vec![p[0], p[1]], vec![p[1], p[2]]];

        // Incremental: base encoding + one solver, deltas fed as they come.
        let mut encoder = AutomatonEncoder::new(windows.clone(), 2);
        let encoding = encoder.encode_base();
        let mut solver = Solver::from_cnf(&encoding.cnf);
        assert!(solver.solve().is_sat());
        encoder.forbid_sequence(vec![p[2], p[0]]);
        encoder.forbid_sequence(vec![p[2], p[2]]);
        for clause in encoder.delta_clauses(&encoding) {
            solver.add_clause(clause);
        }
        let incremental = solver.solve();

        // From scratch on the same constraint set.
        let reference = Solver::from_cnf(&encoder.encode().cnf).solve();
        assert_eq!(incremental.is_sat(), reference.is_sat());
        // And forbidding an embedded window drives both to UNSAT.
        encoder.forbid_sequence(vec![p[0], p[1]]);
        for clause in encoder.delta_clauses(&encoding) {
            solver.add_clause(clause);
        }
        assert!(solver.solve().is_unsat());
        assert!(Solver::from_cnf(&encoder.encode().cnf).solve().is_unsat());
    }

    #[test]
    fn set_num_states_retargets_and_keeps_forbidden_sequences() {
        let mut alphabet = PredicateAlphabet::new();
        let p = ids(&mut alphabet, 2);
        let mut encoder = AutomatonEncoder::new(vec![vec![p[0], p[1]]], 4);
        encoder.forbid_sequence(vec![p[0], p[1]]);
        assert!(solve(&encoder).is_none(), "embedded window forbidden");
        encoder.set_num_states(2);
        assert_eq!(encoder.num_forbidden(), 1);
        assert!(
            solve(&encoder).is_none(),
            "forbidden sequences survive retargeting"
        );
    }
}
