//! Generation of the transition-predicate sequence from a trace.
//!
//! For every sliding window of `w` observations a [`WindowAbstractor`]
//! produces one predicate over `X ∪ X'` describing the window's *first*
//! step, using the remaining steps of the window as generalisation context
//! (exactly the role the window plays in the paper's `GeneratePredicate`):
//!
//! * event- and boolean-valued variables contribute the atom `x' = v` (the
//!   event that occurs in this step);
//! * integer variables contribute a synthesised update `x' = f(X)` when one
//!   function explains every context step, a conditional update
//!   `x' = ite(g, f₁, f₂)` when the window straddles a behaviour change
//!   (threshold, saturation), and no atom at all when the variable behaves
//!   like an unconstrained input;
//! * the context for an integer variable is restricted to the window steps
//!   that agree with the first step on all event/boolean variables, so that
//!   e.g. a read step is never generalised together with a write step.
//!
//! Identical predicates are hash-consed into a [`PredicateAlphabet`], so the
//! model constructor works over small integer ids.

use crate::error::LearnError;
use std::collections::HashMap;
use std::fmt;
use tracelearn_expr::{IntTerm, Predicate, VarRef};
use tracelearn_synth::{SynthesisConfig, Synthesizer};
use tracelearn_trace::{
    Signature, StepPair, SymbolTable, Trace, TraceSet, Valuation, Value, VarId, VarKind,
};

/// Identifier of an interned predicate in a [`PredicateAlphabet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PredId(u32);

impl PredId {
    /// The zero-based index of the predicate.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PredId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A hash-consed set of predicates: the alphabet of the learned automaton.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PredicateAlphabet {
    predicates: Vec<Predicate>,
    index: HashMap<Predicate, PredId>,
}

impl PredicateAlphabet {
    /// Creates an empty alphabet.
    pub fn new() -> Self {
        PredicateAlphabet::default()
    }

    /// Interns a predicate, returning the existing id for duplicates.
    pub fn intern(&mut self, predicate: Predicate) -> PredId {
        if let Some(&id) = self.index.get(&predicate) {
            return id;
        }
        let id = PredId(u32::try_from(self.predicates.len()).expect("alphabet fits in u32"));
        self.predicates.push(predicate.clone());
        self.index.insert(predicate, id);
        id
    }

    /// The predicate behind an id.
    ///
    /// # Panics
    ///
    /// Panics when the id does not belong to this alphabet.
    pub fn predicate(&self, id: PredId) -> &Predicate {
        &self.predicates[id.index()]
    }

    /// Number of distinct predicates.
    pub fn len(&self) -> usize {
        self.predicates.len()
    }

    /// Whether the alphabet is empty.
    pub fn is_empty(&self) -> bool {
        self.predicates.is_empty()
    }

    /// Iterates over `(id, predicate)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (PredId, &Predicate)> {
        self.predicates
            .iter()
            .enumerate()
            .map(|(i, p)| (PredId(i as u32), p))
    }

    /// Renders a predicate id using the trace's variable and event names.
    pub fn render(&self, id: PredId, signature: &Signature, symbols: &SymbolTable) -> String {
        self.predicate(id).render(signature, symbols)
    }
}

/// The per-window predicate abstraction, decoupled from any one trace.
///
/// An abstractor is *calibrated* on a trace (or a bounded calibration prefix
/// when streaming): calibration harvests the synthesis constant pools,
/// detects input-like variables and scores each integer variable's dominant
/// update terms. After calibration, [`predicate_id`](Self::predicate_id)
/// maps any observation window — from the calibration trace, another shard,
/// or a live stream — to an interned predicate, memoising per distinct
/// window content so repeating windows are synthesised once.
#[derive(Debug)]
pub struct WindowAbstractor {
    signature: Signature,
    synthesizer: Synthesizer,
    input_variables: Vec<VarId>,
    /// Globally dominant update terms per integer variable, scored by the
    /// number of sampled steps they explain. Windows prefer these labels so
    /// that e.g. every ordinary integrator step is labelled `op' = op + ip`
    /// rather than with an incidental value-specific term.
    dominant_updates: HashMap<VarId, Vec<(IntTerm, usize)>>,
    /// Memoisation per distinct window content: long traces repeat the same
    /// windows over and over, so each distinct window is synthesised once.
    cache: HashMap<Vec<Valuation>, PredId>,
}

impl WindowAbstractor {
    /// Calibrates an abstractor on `trace` with the given sliding-window
    /// length.
    ///
    /// `declared_inputs` names variables that should never receive an update
    /// atom (free inputs); further input-like variables are detected
    /// automatically (see [`detect_input_variables`]).
    ///
    /// # Errors
    ///
    /// Returns [`LearnError::WindowTooSmall`] when `window < 2` and
    /// [`LearnError::TraceTooShort`] when the trace has fewer observations
    /// than the window.
    pub fn from_calibration(
        trace: &Trace,
        window: usize,
        synthesis: SynthesisConfig,
        declared_inputs: &[String],
    ) -> Result<Self, LearnError> {
        if window < 2 {
            return Err(LearnError::WindowTooSmall { window });
        }
        if trace.len() < window {
            return Err(LearnError::TraceTooShort {
                trace_length: trace.len(),
                window,
            });
        }
        let mut input_variables = detect_input_variables(trace);
        for name in declared_inputs {
            if let Some(id) = trace.signature().var(name) {
                if !input_variables.contains(&id) {
                    input_variables.push(id);
                }
            }
        }
        let synthesizer = Synthesizer::new(trace, synthesis);
        // Sample steps across the whole calibration trace to identify each
        // variable's dominant update terms.
        let sample: Vec<StepPair<'_>> = {
            let stride = (trace.len() / 2048).max(1);
            trace.steps().step_by(stride).collect()
        };
        let mut dominant_updates = HashMap::new();
        for (id, var) in trace.signature().iter() {
            if var.kind() == VarKind::Int && !input_variables.contains(&id) {
                dominant_updates.insert(id, synthesizer.dominant_updates(id, &sample));
            }
        }
        Ok(WindowAbstractor {
            signature: trace.signature().clone(),
            synthesizer,
            input_variables,
            dominant_updates,
            cache: HashMap::new(),
        })
    }

    /// Calibrates an abstractor on every trace of a [`TraceSet`].
    ///
    /// Input detection and dominant-update sampling aggregate evidence
    /// across the shards **without ever pairing observations from two
    /// different traces** — a discontinuity between runs must not read as
    /// unpredictability or as a phantom update step. Only the synthesis
    /// constant pools are harvested over a transient concatenation (dropped
    /// before this returns); a boundary step can contribute at most one
    /// spurious candidate constant per boundary, which widens the search
    /// pool but can never make a predicate mis-describe a step.
    ///
    /// # Errors
    ///
    /// Returns [`LearnError::WindowTooSmall`] when `window < 2` and
    /// [`LearnError::TraceTooShort`] when any shard has fewer observations
    /// than the window.
    pub fn from_calibration_set(
        set: &TraceSet,
        window: usize,
        synthesis: SynthesisConfig,
        declared_inputs: &[String],
    ) -> Result<Self, LearnError> {
        let shards: Vec<&[Valuation]> = set.iter().collect();
        Self::from_calibration_shards(
            set.signature(),
            set.symbols(),
            &shards,
            window,
            synthesis,
            declared_inputs,
        )
    }

    /// Calibrates an abstractor on raw observation shards sharing one
    /// signature and symbol table — the [`TraceSet`]-free core of
    /// [`from_calibration_set`](Self::from_calibration_set), used by the
    /// streamed learner to calibrate on reservoir-sampled stream segments
    /// without materialising a trace set.
    ///
    /// # Errors
    ///
    /// As for [`from_calibration_set`](Self::from_calibration_set).
    pub fn from_calibration_shards(
        signature: &Signature,
        symbols: &SymbolTable,
        shards: &[&[Valuation]],
        window: usize,
        synthesis: SynthesisConfig,
        declared_inputs: &[String],
    ) -> Result<Self, LearnError> {
        if window < 2 {
            return Err(LearnError::WindowTooSmall { window });
        }
        for shard in shards {
            if shard.len() < window {
                return Err(LearnError::TraceTooShort {
                    trace_length: shard.len(),
                    window,
                });
            }
        }
        let mut input_variables = detect_input_variables_sharded(signature, shards);
        for name in declared_inputs {
            if let Some(id) = signature.var(name) {
                if !input_variables.contains(&id) {
                    input_variables.push(id);
                }
            }
        }
        let synthesizer = {
            let mut all = Vec::with_capacity(shards.iter().map(|s| s.len()).sum());
            for shard in shards {
                all.extend_from_slice(shard);
            }
            let concatenated = Trace::from_parts(signature.clone(), symbols.clone(), all)
                .expect("shard observations match the shared signature");
            Synthesizer::new(&concatenated, synthesis)
        };
        // Sample steps across all shards, never across a boundary.
        let total: usize = shards.iter().map(|s| s.len()).sum();
        let stride = (total / 2048).max(1);
        let sample: Vec<StepPair<'_>> = shards
            .iter()
            .flat_map(|shard| {
                shard.windows(2).step_by(stride).map(|pair| StepPair {
                    current: &pair[0],
                    next: &pair[1],
                })
            })
            .collect();
        let mut dominant_updates = HashMap::new();
        for (id, var) in signature.iter() {
            if var.kind() == VarKind::Int && !input_variables.contains(&id) {
                dominant_updates.insert(id, synthesizer.dominant_updates(id, &sample));
            }
        }
        Ok(WindowAbstractor {
            signature: signature.clone(),
            synthesizer,
            input_variables,
            dominant_updates,
            cache: HashMap::new(),
        })
    }

    /// The variables treated as unconstrained inputs.
    pub fn input_variables(&self) -> &[VarId] {
        &self.input_variables
    }

    /// Number of distinct window contents abstracted so far.
    pub fn distinct_windows(&self) -> usize {
        self.cache.len()
    }

    /// Maps one observation window to its predicate id, interning into
    /// `alphabet` and memoising per distinct window content.
    ///
    /// # Panics
    ///
    /// Panics when `window` is shorter than two observations (no step).
    pub fn predicate_id(
        &mut self,
        window: &[Valuation],
        alphabet: &mut PredicateAlphabet,
    ) -> PredId {
        assert!(window.len() >= 2, "a window needs at least one step");
        if let Some(&id) = self.cache.get(window) {
            return id;
        }
        let predicate = self.window_predicate(window);
        let id = alphabet.intern(predicate);
        self.cache.insert(window.to_vec(), id);
        id
    }

    /// Computes the predicate describing one observation window without
    /// touching the memo cache or any alphabet — the read-only entry point
    /// for callers whose windows are already distinct, such as the streamed
    /// learner, which interns each distinct window's predicate itself.
    ///
    /// # Panics
    ///
    /// Panics when `window` is shorter than two observations (no step).
    pub fn compute_predicate(&self, window: &[Valuation]) -> Predicate {
        assert!(window.len() >= 2, "a window needs at least one step");
        self.window_predicate(window)
    }

    /// The predicate describing the first step of `window`, generalised over
    /// the window's remaining steps.
    fn window_predicate(&self, window: &[Valuation]) -> Predicate {
        let steps: Vec<StepPair<'_>> = window
            .windows(2)
            .map(|pair| StepPair {
                current: &pair[0],
                next: &pair[1],
            })
            .collect();
        let base = steps[0];
        let signature = &self.signature;

        // Context: steps agreeing with the base step on every event/bool
        // variable's next value.
        let context: Vec<StepPair<'_>> = steps
            .iter()
            .filter(|s| {
                signature.iter().all(|(id, var)| match var.kind() {
                    VarKind::Int => true,
                    VarKind::Bool | VarKind::Event => s.next_value(id) == base.next_value(id),
                })
            })
            .copied()
            .collect();

        let mut atoms = Vec::new();
        for (id, var) in signature.iter() {
            match var.kind() {
                VarKind::Event => {
                    if let Value::Sym(symbol) = base.next_value(id) {
                        atoms.push(Predicate::event_is(VarRef::next(id), symbol));
                    }
                }
                VarKind::Bool => {
                    if let Value::Bool(value) = base.next_value(id) {
                        atoms.push(Predicate::BoolVar {
                            var: VarRef::next(id),
                            negated: !value,
                        });
                    }
                }
                VarKind::Int => {
                    if self.input_variables.contains(&id) {
                        continue;
                    }
                    if let Some(atom) = self.integer_atom(id, &context, &base) {
                        atoms.push(atom);
                    }
                }
            }
        }
        Predicate::and(atoms).simplify()
    }

    /// The update atom for an integer variable, if one can be synthesised.
    ///
    /// Preference order:
    /// 1. a globally dominant update term that explains every context step —
    ///    this keeps labels stable across the trace (`op' = op + ip` even in
    ///    windows where a smaller incidental term would also fit);
    /// 2. the smallest uniform update synthesised from the context;
    /// 3. a conditional update (behaviour change inside the window);
    /// 4. the literal next value of the base step.
    fn integer_atom(
        &self,
        var: VarId,
        context: &[StepPair<'_>],
        base: &StepPair<'_>,
    ) -> Option<Predicate> {
        let target = |s: &StepPair<'_>| s.next_value(var).as_int();
        let hints = self.dominant_updates.get(&var);
        if let Some(hints) = hints {
            if let Some((term, _)) = hints
                .iter()
                .find(|(term, _)| context.iter().all(|s| term.eval(s) == target(s)))
            {
                return Some(Predicate::update(var, term.clone()).simplify());
            }
        }
        if let Some(term) = self.synthesizer.synthesize_update(var, context) {
            return Some(Predicate::update(var, term).simplify());
        }
        let hint_terms: Vec<IntTerm> = hints
            .map(|h| h.iter().map(|(t, _)| t.clone()).collect())
            .unwrap_or_default();
        if let Some(conditional) =
            self.synthesizer
                .synthesize_conditional_update_with_hints(var, context, &hint_terms)
        {
            return Some(conditional.to_predicate(var));
        }
        // Last resort: describe just the base step exactly; gives up
        // generality but never silently drops observed behaviour.
        let next = base.next_value(var).as_int()?;
        Some(Predicate::update(var, IntTerm::constant(next)).simplify())
    }
}

/// Detects variables that behave like free inputs — their next value is not
/// predictable even from the recent history of the trace — such as the
/// integrator's `ip`. Such variables get no update atom.
///
/// The criterion is second-order: a variable is an input when its next value
/// frequently differs between steps that agree on the previous observation,
/// the current observation *and* the next values of all event/boolean
/// variables. Variables with hidden-but-learnable modes (the counter's
/// direction, the queue length driven by the next operation) are predictable
/// under this key and are therefore kept.
pub fn detect_input_variables(trace: &Trace) -> Vec<VarId> {
    detect_input_variables_sharded(trace.signature(), &[trace.observations()])
}

/// Multi-trace form of [`detect_input_variables`]: evidence is aggregated
/// across the shards, but the three-observation context windows never span a
/// shard boundary, so a discontinuity between two runs is not mistaken for
/// unpredictability.
pub fn detect_input_variables_sharded(
    signature: &Signature,
    shards: &[&[Valuation]],
) -> Vec<VarId> {
    /// The context key a next value must be reproducible under: previous
    /// observation, current observation, and the next values of all
    /// event/boolean variables.
    type ObservationContext = (Vec<Value>, Vec<Value>, Vec<Value>);

    let int_vars: Vec<VarId> = signature
        .iter()
        .filter(|(_, v)| v.kind() == VarKind::Int)
        .map(|(id, _)| id)
        .collect();
    let discrete_vars: Vec<VarId> = signature
        .iter()
        .filter(|(_, v)| v.kind() != VarKind::Int)
        .map(|(id, _)| id)
        .collect();
    let mut inputs = Vec::new();
    for &var in &int_vars {
        let mut first_seen: HashMap<ObservationContext, i64> = HashMap::new();
        let mut conflicts = 0usize;
        let mut total = 0usize;
        for observations in shards {
            for t in 1..observations.len().saturating_sub(1) {
                let next_obs = &observations[t + 1];
                let Some(next) = next_obs.try_get(var).and_then(Value::as_int) else {
                    continue;
                };
                let key = (
                    observations[t - 1].values().to_vec(),
                    observations[t].values().to_vec(),
                    discrete_vars.iter().map(|&d| next_obs.get(d)).collect(),
                );
                total += 1;
                match first_seen.get(&key) {
                    None => {
                        first_seen.insert(key, next);
                    }
                    Some(&seen) if seen != next => conflicts += 1,
                    Some(_) => {}
                }
            }
        }
        if total > 0 && conflicts * 5 > total {
            inputs.push(var);
        }
    }
    inputs
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracelearn_trace::{RowEntry, Signature, Value};
    use tracelearn_workloads::{counter, integrator, serial};

    /// The predicate sequence `P` of `trace` (one predicate per window
    /// position) and its alphabet, from an abstractor calibrated on the
    /// trace itself.
    fn extract(
        trace: &Trace,
        window: usize,
        declared_inputs: &[String],
    ) -> Result<(Vec<PredId>, PredicateAlphabet), LearnError> {
        let mut abstractor = WindowAbstractor::from_calibration(
            trace,
            window,
            SynthesisConfig::default(),
            declared_inputs,
        )?;
        let mut alphabet = PredicateAlphabet::new();
        let sequence = trace
            .observations()
            .windows(window)
            .map(|w| abstractor.predicate_id(w, &mut alphabet))
            .collect();
        Ok((sequence, alphabet))
    }

    #[test]
    fn alphabet_interning_is_idempotent() {
        let mut alphabet = PredicateAlphabet::new();
        let a = alphabet.intern(Predicate::True);
        let b = alphabet.intern(Predicate::True);
        let c = alphabet.intern(Predicate::False);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(alphabet.len(), 2);
        assert!(!alphabet.is_empty());
        assert_eq!(alphabet.predicate(a), &Predicate::True);
        assert_eq!(alphabet.iter().count(), 2);
    }

    #[test]
    fn counter_predicates_include_increment_and_decrement() {
        let trace = counter::generate(&counter::CounterConfig {
            threshold: 16,
            length: 100,
        });
        let (sequence, alphabet) = extract(&trace, 3, &[]).unwrap();
        assert_eq!(sequence.len(), 100 + 1 - 3);
        let rendered: Vec<String> = alphabet
            .iter()
            .map(|(id, _)| alphabet.render(id, trace.signature(), trace.symbols()))
            .collect();
        assert!(rendered.iter().any(|p| p.contains("x + 1")), "{rendered:?}");
        assert!(rendered.iter().any(|p| p.contains("x - 1")), "{rendered:?}");
        // The windows at the threshold and at the floor get their own labels.
        assert!(alphabet.len() >= 4, "alphabet: {rendered:?}");
        assert!(alphabet.len() <= 6, "alphabet: {rendered:?}");
    }

    #[test]
    fn event_traces_get_one_predicate_per_event() {
        let sig = Signature::builder().event("cmd").build();
        let mut trace = Trace::new(sig);
        for event in ["a", "b", "a", "b", "c", "a", "b", "a", "b", "c"] {
            trace.push_named_row(vec![RowEntry::Event(event)]).unwrap();
        }
        let (sequence, alphabet) = extract(&trace, 3, &[]).unwrap();
        // Labels are `cmd' = <event>`: exactly as many as distinct next events.
        assert_eq!(alphabet.len(), 3);
        assert_eq!(sequence.len(), 8);
    }

    #[test]
    fn integrator_input_is_detected_and_updates_use_both_variables() {
        let trace = integrator::generate(&integrator::IntegratorConfig {
            length: 2000,
            saturation: 5,
            reset_period: 100,
            seed: 11,
        });
        let inputs = detect_input_variables(&trace);
        let ip = trace.signature().var("ip").unwrap();
        let op = trace.signature().var("op").unwrap();
        assert!(inputs.contains(&ip));
        assert!(!inputs.contains(&op));

        let (_, alphabet) = extract(&trace, 3, &[]).unwrap();
        let rendered: Vec<String> = alphabet
            .iter()
            .map(|(id, _)| alphabet.render(id, trace.signature(), trace.symbols()))
            .collect();
        assert!(
            rendered
                .iter()
                .any(|p| p.contains("op + ip") || p.contains("ip + op")),
            "{rendered:?}"
        );
        assert!(
            rendered.iter().any(|p| p.contains("op' = 0")),
            "{rendered:?}"
        );
        // No predicate constrains the free input ip' directly.
        assert!(rendered.iter().all(|p| !p.contains("ip'")), "{rendered:?}");
    }

    #[test]
    fn serial_port_predicates_pair_events_with_queue_updates() {
        let trace = serial::generate(&serial::SerialConfig {
            length: 600,
            capacity: 16,
            seed: 5,
        });
        let (_, alphabet) = extract(&trace, 3, &[]).unwrap();
        let rendered: Vec<String> = alphabet
            .iter()
            .map(|(id, _)| alphabet.render(id, trace.signature(), trace.symbols()))
            .collect();
        assert!(
            rendered
                .iter()
                .any(|p| p.contains("write") && p.contains("x + 1")),
            "{rendered:?}"
        );
        assert!(
            rendered
                .iter()
                .any(|p| p.contains("read") && p.contains("x - 1")),
            "{rendered:?}"
        );
        assert!(
            rendered
                .iter()
                .any(|p| p.contains("reset") && p.contains("x' = 0")),
            "{rendered:?}"
        );
    }

    #[test]
    fn sharded_input_detection_ignores_run_boundaries() {
        // 50 short runs of a variable that is fully deterministic *within*
        // each run but starts at a run-specific value. Pairing observations
        // across run boundaries would read those jumps as unpredictability.
        let sig = Signature::builder().int("x").build();
        let mut runs = Vec::new();
        for r in 0..50i64 {
            let mut t = Trace::new(sig.clone());
            for v in [r * 100, 7, 8] {
                t.push_row([Value::Int(v)]).unwrap();
            }
            runs.push(t);
        }
        let set = tracelearn_trace::TraceSet::from_traces(runs.iter()).unwrap();
        let shards: Vec<&[Valuation]> = set.iter().collect();
        assert!(
            detect_input_variables_sharded(set.signature(), &shards).is_empty(),
            "boundary jumps must not make a deterministic variable an input"
        );
        // The naive concatenation, by contrast, sees a conflict at every
        // boundary (same [7, 8] context, run-specific successor) and
        // misclassifies the variable — exactly what sharding prevents.
        let concatenated: Vec<Valuation> = shards.concat();
        assert!(!detect_input_variables_sharded(set.signature(), &[&concatenated]).is_empty());
    }

    #[test]
    fn declared_inputs_are_respected() {
        let sig = Signature::builder().int("x").build();
        let mut trace = Trace::new(sig);
        for v in [1i64, 2, 3, 4, 5, 6] {
            trace.push_row([Value::Int(v)]).unwrap();
        }
        let declared = ["x".to_owned()];
        let abstractor =
            WindowAbstractor::from_calibration(&trace, 3, SynthesisConfig::default(), &declared)
                .unwrap();
        assert_eq!(abstractor.input_variables().len(), 1);
        let (_, alphabet) = extract(&trace, 3, &declared).unwrap();
        // With its only variable declared an input, every window degenerates
        // to the trivial predicate.
        assert_eq!(alphabet.len(), 1);
    }

    #[test]
    fn constructor_validates_window_and_length() {
        let trace = counter::generate(&counter::CounterConfig {
            threshold: 4,
            length: 2,
        });
        assert!(matches!(
            WindowAbstractor::from_calibration(&trace, 1, SynthesisConfig::default(), &[]),
            Err(LearnError::WindowTooSmall { .. })
        ));
        assert!(matches!(
            WindowAbstractor::from_calibration(&trace, 3, SynthesisConfig::default(), &[]),
            Err(LearnError::TraceTooShort { .. })
        ));
    }

    #[test]
    fn identical_windows_share_predicate_ids() {
        let trace = counter::generate(&counter::CounterConfig {
            threshold: 8,
            length: 60,
        });
        let (sequence, alphabet) = extract(&trace, 3, &[]).unwrap();
        // Far more windows than distinct predicates.
        assert!(sequence.len() > 4 * alphabet.len());
    }
}
