//! A conflict-driven clause-learning (CDCL) SAT solver.
//!
//! The implementation follows the classic MiniSat architecture:
//! two-watched-literal unit propagation, first-UIP conflict analysis with
//! clause learning and non-chronological backjumping, activity-ordered
//! (VSIDS) decision making with phase saving, and Luby-sequence restarts.
//!
//! # Memory layout
//!
//! Clauses live in a flat `u32` *arena* ([`ClauseArena`]): each clause is a
//! three-word header (length + flags, activity, LBD) followed by its literal
//! codes, all in one contiguous buffer. Clause references are arena offsets,
//! so propagation walks a single allocation instead of chasing a
//! `Vec<Vec<Lit>>` of boxed clauses. Binary clauses are specialised straight
//! into the watch lists — the watch entry itself carries the other literal —
//! and never touch the arena, which removes a dependent load from the
//! binary-propagation fast path. Watch lists are flat `Vec<Watch>` compacted
//! in place while propagating (two-pointer sweep), not rebuilt per literal.
//!
//! # Search quality
//!
//! Learnt clauses are shrunk by recursive conflict-clause minimization
//! (MiniSat's `litRedundant`) before attachment, and each one is tagged with
//! its LBD ("glue" — the number of distinct decision levels among its
//! literals). Database reduction is LBD-first: clauses with glue ≤ 2 are
//! never evicted, the rest are ranked by (glue, activity) and the worst half
//! is dropped on a geometric schedule. [`SolverStats`] exposes the LBD
//! histogram and the minimized-literal count.
//!
//! The solver is *incremental*: clauses and variables may be added between
//! solve calls ([`Solver::add_clause`], [`Solver::new_var`]), learnt clauses
//! are kept across calls (subject to database reduction), and
//! [`Solver::solve_with_assumptions`] decides the formula under a set of
//! temporary unit assumptions without permanently binding them. Resource
//! [`Limits`] are accounted *per call*: each solve call gets its own fresh
//! conflict and propagation budget, regardless of how much work earlier calls
//! on the same solver performed.

use crate::cnf::Cnf;
use crate::lit::{Lit, Var};
use crate::model::Model;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Resource limits for a single [`Solver::solve_with_limits`] call.
///
/// Budgets are measured against the work performed by *that call alone*: a
/// reused solver does not inherit the consumption of earlier calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Limits {
    /// Maximum number of conflicts before giving up with
    /// [`SatResult::Unknown`]. `None` means unlimited.
    pub max_conflicts: Option<u64>,
    /// Maximum number of unit propagations before giving up. `None` means
    /// unlimited. The budget is checked *inside* the propagation loop (every
    /// 1024 propagated literals), so a single runaway propagation pass cannot
    /// overshoot it by more than that granularity.
    pub max_propagations: Option<u64>,
}

impl Limits {
    /// No limits: the solver runs to completion.
    pub fn unlimited() -> Self {
        Limits::default()
    }

    /// Limits the number of conflicts.
    pub fn conflicts(max_conflicts: u64) -> Self {
        Limits {
            max_conflicts: Some(max_conflicts),
            max_propagations: None,
        }
    }

    /// Limits the number of unit propagations.
    pub fn propagations(max_propagations: u64) -> Self {
        Limits {
            max_conflicts: None,
            max_propagations: Some(max_propagations),
        }
    }
}

/// Outcome of a solve call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatResult {
    /// The formula is satisfiable; a witnessing assignment is attached.
    Sat(Model),
    /// The formula is unsatisfiable. For
    /// [`Solver::solve_with_assumptions`] this means unsatisfiable *under
    /// the assumptions*; [`Solver::failed_assumptions`] names the culprits.
    Unsat,
    /// The resource budget was exhausted before an answer was found.
    Unknown,
}

impl SatResult {
    /// Returns the model when satisfiable.
    pub fn model(self) -> Option<Model> {
        match self {
            SatResult::Sat(model) => Some(model),
            _ => None,
        }
    }

    /// Whether the result is `Sat`.
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }

    /// Whether the result is `Unsat`.
    pub fn is_unsat(&self) -> bool {
        matches!(self, SatResult::Unsat)
    }
}

/// Number of buckets of the learnt-clause LBD histogram in [`SolverStats`]:
/// bucket `i` counts learnt clauses with glue `i + 1`; the last bucket
/// aggregates everything at or above [`SolverStats::LBD_BUCKETS`].
pub const LBD_BUCKETS: usize = 8;

/// Counters describing the work performed by the solver.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of learnt clauses added.
    pub learnt_clauses: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of solve calls issued against this solver.
    pub solve_calls: u64,
    /// Number of learnt-clause database reductions performed.
    pub db_reductions: u64,
    /// Number of learnt clauses evicted by database reductions.
    pub removed_learnts: u64,
    /// Literals removed from learnt clauses by conflict-clause minimization
    /// before attachment.
    pub minimized_literals: u64,
    /// Histogram of learnt-clause LBD ("glue") values: bucket `i` counts the
    /// learnt clauses whose glue was `i + 1` at learn time; the final bucket
    /// aggregates glue ≥ [`LBD_BUCKETS`].
    pub lbd_histogram: [u64; LBD_BUCKETS],
}

impl SolverStats {
    /// Number of buckets of [`SolverStats::lbd_histogram`].
    pub const LBD_BUCKETS: usize = LBD_BUCKETS;

    /// Field-wise difference `self - earlier`, used for per-call accounting.
    fn since(&self, earlier: &SolverStats) -> SolverStats {
        let mut lbd_histogram = [0u64; LBD_BUCKETS];
        for (i, slot) in lbd_histogram.iter_mut().enumerate() {
            *slot = self.lbd_histogram[i] - earlier.lbd_histogram[i];
        }
        SolverStats {
            decisions: self.decisions - earlier.decisions,
            conflicts: self.conflicts - earlier.conflicts,
            propagations: self.propagations - earlier.propagations,
            learnt_clauses: self.learnt_clauses - earlier.learnt_clauses,
            restarts: self.restarts - earlier.restarts,
            solve_calls: self.solve_calls - earlier.solve_calls,
            db_reductions: self.db_reductions - earlier.db_reductions,
            removed_learnts: self.removed_learnts - earlier.removed_learnts,
            minimized_literals: self.minimized_literals - earlier.minimized_literals,
            lbd_histogram,
        }
    }

    /// Records one learnt clause's glue in the histogram.
    fn record_lbd(&mut self, lbd: u32) {
        let bucket = (lbd.max(1) as usize - 1).min(LBD_BUCKETS - 1);
        self.lbd_histogram[bucket] += 1;
    }
}

/// Words of clause metadata preceding the literals in the arena:
/// `[len | flags]`, `activity` (f32 bits), `lbd`.
const HEADER_WORDS: usize = 3;

/// Watch-entry tag: the entry is a specialised binary clause (the clause is
/// `[blocker, ¬watched]` and lives only in the two watch lists, not in the
/// arena).
const WATCH_BINARY: u32 = 1 << 31;
/// Watch-entry tag qualifying [`WATCH_BINARY`]: the binary clause is learnt.
const WATCH_BINARY_LEARNT: u32 = 1 << 30;

/// The flat clause store: every non-binary clause is a [`HEADER_WORDS`]-word
/// header followed by its literal codes, packed into one contiguous `u32`
/// buffer. A clause reference is the offset of its header.
#[derive(Debug, Clone, Default)]
struct ClauseArena {
    data: Vec<u32>,
}

impl ClauseArena {
    /// Appends a clause and returns its reference.
    fn alloc(&mut self, lits: &[Lit], learnt: bool) -> u32 {
        debug_assert!(lits.len() >= 3, "binary clauses live in the watch lists");
        // References must stay clear of the WATCH_BINARY/WATCH_BINARY_LEARNT
        // tag bits, or a large arena would have its clauses misread as
        // specialised binaries — fail hard instead of corrupting.
        assert!(
            self.data.len() < (1 << 30),
            "clause arena exceeds 2^30 words"
        );
        let cref = u32::try_from(self.data.len()).expect("arena offset fits in u32");
        let len = u32::try_from(lits.len()).expect("clause length fits in u32");
        self.data.push((len << 2) | u32::from(learnt));
        self.data.push(0f32.to_bits());
        self.data.push(0); // LBD, set by the learner of the clause
        self.data.extend(
            lits.iter()
                .map(|l| u32::try_from(l.code()).expect("literal code fits in u32")),
        );
        cref
    }

    fn len(&self, cref: u32) -> usize {
        (self.data[cref as usize] >> 2) as usize
    }

    fn is_learnt(&self, cref: u32) -> bool {
        self.data[cref as usize] & 1 != 0
    }

    fn is_marked(&self, cref: u32) -> bool {
        self.data[cref as usize] & 2 != 0
    }

    fn mark(&mut self, cref: u32) {
        self.data[cref as usize] |= 2;
    }

    fn lit(&self, cref: u32, k: usize) -> Lit {
        Lit::from_code(self.data[cref as usize + HEADER_WORDS + k] as usize)
    }

    fn swap_lits(&mut self, cref: u32, a: usize, b: usize) {
        let base = cref as usize + HEADER_WORDS;
        self.data.swap(base + a, base + b);
    }

    fn activity(&self, cref: u32) -> f32 {
        f32::from_bits(self.data[cref as usize + 1])
    }

    fn set_activity(&mut self, cref: u32, activity: f32) {
        self.data[cref as usize + 1] = activity.to_bits();
    }

    fn lbd(&self, cref: u32) -> u32 {
        self.data[cref as usize + 2]
    }

    fn set_lbd(&mut self, cref: u32, lbd: u32) {
        self.data[cref as usize + 2] = lbd;
    }
}

/// A watch-list entry. For arena clauses `cref` is the clause's offset and
/// `blocker` a literal whose truth satisfies the clause without touching the
/// arena. For specialised binary clauses (`cref & WATCH_BINARY != 0`) the
/// entry *is* the clause: `[blocker, ¬watched]`.
#[derive(Debug, Clone, Copy)]
struct Watch {
    cref: u32,
    blocker: Lit,
}

/// Why a literal is on the trail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reason {
    /// A decision, an assumption, or a top-level fact.
    None,
    /// Propagated by the arena clause at this offset (the literal is at
    /// position 0).
    Clause(u32),
    /// Propagated by a specialised binary clause `[lit, other]` where
    /// `other` is false.
    Binary(Lit),
}

/// A falsified clause, as found by propagation.
#[derive(Debug, Clone, Copy)]
enum Conflict {
    Clause(u32),
    Binary(Lit, Lit),
}

/// The CDCL solver. Construct it from a [`Cnf`] and call [`Solver::solve`].
#[derive(Debug, Clone)]
pub struct Solver {
    num_vars: usize,
    arena: ClauseArena,
    /// Arena references of the original (problem) clauses.
    clauses: Vec<u32>,
    /// Arena references of the learnt clauses (all of length ≥ 3; binary
    /// learnts are specialised into the watch lists).
    learnts: Vec<u32>,
    watches: Vec<Vec<Watch>>,
    assign: Vec<Option<bool>>,
    level: Vec<u32>,
    reason: Vec<Reason>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    phase: Vec<bool>,
    heap: VarHeap,
    seen: Vec<bool>,
    /// Scratch for conflict-clause minimization: literals whose `seen` flag
    /// must be cleared when the current conflict analysis finishes.
    to_clear: Vec<Lit>,
    /// Scratch stack of `lit_redundant`.
    min_stack: Vec<Lit>,
    /// Per-level stamp used to compute LBD without clearing a set.
    level_stamp: Vec<u64>,
    stamp: u64,
    ok: bool,
    stats: SolverStats,
    last_call: SolverStats,
    /// Learnt clauses currently attached to the database (arena learnts plus
    /// specialised binary learnts).
    live_learnts: usize,
    /// Reduce the learnt database when `live_learnts` reaches this; `0` means
    /// "pick automatically on the first solve call".
    learnt_limit: usize,
    /// Absolute propagation count at which the current call must give up.
    prop_limit: Option<u64>,
    prop_budget_hit: bool,
    failed: Vec<Lit>,
    /// Scratch buffer in which [`Solver::add_clause`] normalises a clause.
    add_buffer: Vec<Lit>,
    /// Cooperative interrupt: when the flag is raised by another thread the
    /// current solve call abandons its work with [`SatResult::Unknown`].
    interrupt: Option<Arc<AtomicBool>>,
}

impl Solver {
    /// Creates a solver over `num_vars` variables with no clauses.
    pub fn new(num_vars: usize) -> Self {
        let mut heap = VarHeap::new(num_vars);
        let initial_activity = vec![0.0; num_vars];
        for v in 0..num_vars {
            heap.insert(v, &initial_activity);
        }
        Solver {
            num_vars,
            arena: ClauseArena::default(),
            clauses: Vec::new(),
            learnts: Vec::new(),
            watches: vec![Vec::new(); num_vars * 2],
            assign: vec![None; num_vars],
            level: vec![0; num_vars],
            reason: vec![Reason::None; num_vars],
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: vec![0.0; num_vars],
            var_inc: 1.0,
            cla_inc: 1.0,
            phase: vec![false; num_vars],
            heap,
            seen: vec![false; num_vars],
            to_clear: Vec::new(),
            min_stack: Vec::new(),
            level_stamp: vec![0; num_vars + 1],
            stamp: 0,
            ok: true,
            stats: SolverStats::default(),
            last_call: SolverStats::default(),
            live_learnts: 0,
            learnt_limit: 0,
            prop_limit: None,
            prop_budget_hit: false,
            failed: Vec::new(),
            add_buffer: Vec::new(),
            interrupt: None,
        }
    }

    /// Creates a solver and loads every clause of `cnf`, in order.
    pub fn from_cnf(cnf: &Cnf) -> Self {
        let mut solver = Solver::new(cnf.num_vars());
        for clause in cnf.clauses() {
            solver.add_clause(clause.iter().copied());
        }
        solver
    }

    /// Statistics accumulated over the solver's whole lifetime.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Statistics of the most recent solve call only (per-call counters).
    pub fn last_call_stats(&self) -> SolverStats {
        self.last_call
    }

    /// Number of variables known to the solver.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of learnt clauses currently in the database — the clauses a
    /// subsequent solve call on this solver will reuse.
    pub fn num_learnts(&self) -> usize {
        self.live_learnts
    }

    /// Allocates a fresh variable and returns it. The variable participates
    /// in decisions and may appear in clauses added afterwards.
    pub fn new_var(&mut self) -> Var {
        let v = self.num_vars;
        self.num_vars += 1;
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.assign.push(None);
        self.level.push(0);
        self.reason.push(Reason::None);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.level_stamp.push(0);
        self.heap.grow();
        self.heap.insert(v, &self.activity);
        Var::new(u32::try_from(v).expect("variable count fits in u32"))
    }

    /// Sets the learnt-database size at which the next reduction triggers.
    /// The limit then grows geometrically (×1.5) after every reduction.
    pub fn set_learnt_limit(&mut self, limit: usize) {
        self.learnt_limit = limit.max(1);
    }

    /// Installs a cooperative interrupt flag, shared with other threads.
    ///
    /// The flag is polled inside [`Solver::propagate`] (with the same
    /// 1024-propagation granularity as the propagation budget) and once per
    /// conflict-loop iteration, so raising it from another thread makes an
    /// in-flight solve call give up with [`SatResult::Unknown`] promptly, so
    /// a caller on another thread can abandon a search it no longer needs.
    /// The solver itself never clears the flag; an interrupted solver
    /// remains usable and answers correctly once the flag is lowered (or
    /// [cleared](Solver::clear_interrupt)).
    pub fn set_interrupt(&mut self, flag: Arc<AtomicBool>) {
        self.interrupt = Some(flag);
    }

    /// Removes an installed interrupt flag.
    pub fn clear_interrupt(&mut self) {
        self.interrupt = None;
    }

    /// Whether an installed interrupt flag is currently raised.
    pub fn is_interrupted(&self) -> bool {
        self.interrupt
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::Relaxed))
    }

    /// The subset of the assumptions passed to the last
    /// [`Solver::solve_with_assumptions`] call that was used to derive its
    /// `Unsat` answer (the "final conflict clause" in assumption terms).
    /// Empty when the formula is unsatisfiable regardless of assumptions, or
    /// when the last call did not end in assumption failure.
    pub fn failed_assumptions(&self) -> &[Lit] {
        &self.failed
    }

    fn lit_value(&self, lit: Lit) -> Option<bool> {
        self.assign[lit.var().index()].map(|v| v == lit.is_positive())
    }

    fn current_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Adds a clause. Clauses may be added between solve calls; solving
    /// always restarts from decision level zero, so late additions are
    /// handled correctly.
    ///
    /// # Panics
    ///
    /// Panics if a literal refers to a variable outside the solver's range.
    pub fn add_clause<I>(&mut self, lits: I)
    where
        I: IntoIterator<Item = Lit>,
    {
        if !self.ok {
            return;
        }
        // Reset to decision level 0 so value checks below are top-level facts.
        self.backjump(0);
        // Normalise in the solver's scratch buffer, so loading a clause
        // allocates nothing of its own.
        let mut clause = std::mem::take(&mut self.add_buffer);
        clause.clear();
        clause.extend(lits);
        for lit in &clause {
            assert!(lit.var().index() < self.num_vars, "literal out of range");
        }
        // Equal literals are indistinguishable, so an unstable sort orders
        // the clause exactly as a stable one would.
        clause.sort_unstable();
        clause.dedup();
        // Tautologies are trivially satisfied.
        let tautology = clause.windows(2).any(|pair| pair[1] == !pair[0]);
        // Remove literals already false at top level; drop satisfied clauses.
        clause.retain(|&l| self.lit_value(l) != Some(false));
        let satisfied = tautology || clause.iter().any(|&l| self.lit_value(l) == Some(true));
        if !satisfied {
            match clause.len() {
                0 => self.ok = false,
                1 => {
                    if !self.enqueue(clause[0], Reason::None) || self.propagate().is_some() {
                        self.ok = false;
                    }
                }
                2 => self.attach_binary(clause[0], clause[1], false),
                _ => {
                    self.attach(&clause, false);
                }
            }
        }
        self.add_buffer = clause;
    }

    /// Attaches a non-binary clause to the arena and the watch lists.
    fn attach(&mut self, lits: &[Lit], learnt: bool) -> u32 {
        let cref = self.arena.alloc(lits, learnt);
        self.watches[(!lits[0]).code()].push(Watch {
            cref,
            blocker: lits[1],
        });
        self.watches[(!lits[1]).code()].push(Watch {
            cref,
            blocker: lits[0],
        });
        if learnt {
            self.live_learnts += 1;
            self.learnts.push(cref);
        } else {
            self.clauses.push(cref);
        }
        cref
    }

    /// Attaches a binary clause `[a, b]` directly into the watch lists.
    fn attach_binary(&mut self, a: Lit, b: Lit, learnt: bool) {
        let tag = WATCH_BINARY | if learnt { WATCH_BINARY_LEARNT } else { 0 };
        self.watches[(!a).code()].push(Watch {
            cref: tag,
            blocker: b,
        });
        self.watches[(!b).code()].push(Watch {
            cref: tag,
            blocker: a,
        });
        if learnt {
            self.live_learnts += 1;
        }
    }

    fn enqueue(&mut self, lit: Lit, reason: Reason) -> bool {
        match self.lit_value(lit) {
            Some(true) => true,
            Some(false) => false,
            None => {
                let v = lit.var().index();
                self.assign[v] = Some(lit.is_positive());
                self.level[v] = self.current_level();
                self.reason[v] = reason;
                self.trail.push(lit);
                true
            }
        }
    }

    fn propagate(&mut self) -> Option<Conflict> {
        while self.qhead < self.trail.len() {
            // Enforce the propagation budget and poll the interrupt flag
            // *inside* the loop (with 1024-step granularity) so a single long
            // propagation pass cannot blow past either: the solve loop only
            // regains control between conflicts.
            if self.stats.propagations & 1023 == 0 {
                if let Some(limit) = self.prop_limit {
                    if self.stats.propagations >= limit {
                        self.prop_budget_hit = true;
                        return None;
                    }
                }
                if self.is_interrupted() {
                    self.prop_budget_hit = true;
                    return None;
                }
            }
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;

            // Compact the watch list in place with a two-pointer sweep; the
            // Vec is moved out for the duration (no allocation) because the
            // loop also pushes onto *other* literals' lists.
            let mut ws = std::mem::take(&mut self.watches[p.code()]);
            let mut conflict: Option<Conflict> = None;
            let n = ws.len();
            let mut i = 0usize;
            let mut j = 0usize;
            'watches: while i < n {
                let w = ws[i];
                i += 1;
                if w.cref & WATCH_BINARY != 0 {
                    // Specialised binary clause [w.blocker, false_lit]: no
                    // arena access, the watch entry never moves.
                    ws[j] = w;
                    j += 1;
                    match self.lit_value(w.blocker) {
                        Some(true) => {}
                        Some(false) => {
                            conflict = Some(Conflict::Binary(w.blocker, false_lit));
                            break 'watches;
                        }
                        None => {
                            let enqueued = self.enqueue(w.blocker, Reason::Binary(false_lit));
                            debug_assert!(enqueued, "unit literal must be assignable");
                        }
                    }
                    continue;
                }
                if self.lit_value(w.blocker) == Some(true) {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let cref = w.cref;
                // Ensure the falsified literal is at position 1.
                if self.arena.lit(cref, 0) == false_lit {
                    self.arena.swap_lits(cref, 0, 1);
                }
                let first = self.arena.lit(cref, 0);
                if first != w.blocker && self.lit_value(first) == Some(true) {
                    ws[j] = Watch {
                        cref,
                        blocker: first,
                    };
                    j += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let len = self.arena.len(cref);
                for k in 2..len {
                    let candidate = self.arena.lit(cref, k);
                    if self.lit_value(candidate) != Some(false) {
                        self.arena.swap_lits(cref, 1, k);
                        self.watches[(!candidate).code()].push(Watch {
                            cref,
                            blocker: first,
                        });
                        continue 'watches;
                    }
                }
                // Clause is unit or conflicting under the current assignment.
                ws[j] = Watch {
                    cref,
                    blocker: first,
                };
                j += 1;
                if self.lit_value(first) == Some(false) {
                    conflict = Some(Conflict::Clause(cref));
                    break 'watches;
                }
                let enqueued = self.enqueue(first, Reason::Clause(cref));
                debug_assert!(enqueued, "unit literal must be assignable");
            }
            if conflict.is_some() {
                // Keep the watches not yet examined.
                while i < n {
                    ws[j] = ws[i];
                    j += 1;
                    i += 1;
                }
                self.qhead = self.trail.len();
            }
            ws.truncate(j);
            debug_assert!(
                self.watches[p.code()].is_empty(),
                "no watch is ever added for the literal being propagated"
            );
            self.watches[p.code()] = ws;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    fn bump_var(&mut self, var: usize) {
        self.activity[var] += self.var_inc;
        if self.activity[var] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.update(var, &self.activity);
    }

    fn bump_clause(&mut self, cref: u32) {
        if !self.arena.is_learnt(cref) {
            return;
        }
        let bumped = self.arena.activity(cref) + self.cla_inc as f32;
        self.arena.set_activity(cref, bumped);
        if bumped > 1e20 {
            for i in 0..self.learnts.len() {
                let c = self.learnts[i];
                let rescaled = self.arena.activity(c) * 1e-20;
                self.arena.set_activity(c, rescaled);
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// Views `lit`'s reason as a clause with `lit` in first position, for
    /// uniform literal iteration via [`Solver::conflict_len`] /
    /// [`Solver::conflict_lit`]. `None` for decisions, assumptions and
    /// top-level facts.
    fn reason_cause(&self, lit: Lit, reason: Reason) -> Option<Conflict> {
        match reason {
            Reason::None => None,
            Reason::Clause(cref) => Some(Conflict::Clause(cref)),
            Reason::Binary(other) => Some(Conflict::Binary(lit, other)),
        }
    }

    /// Number of literals in `cause`.
    fn conflict_len(&self, cause: Conflict) -> usize {
        match cause {
            Conflict::Clause(cref) => self.arena.len(cref),
            Conflict::Binary(..) => 2,
        }
    }

    /// The `k`-th literal of `cause`.
    fn conflict_lit(&self, cause: Conflict, k: usize) -> Lit {
        match cause {
            Conflict::Clause(cref) => self.arena.lit(cref, k),
            Conflict::Binary(a, b) => {
                if k == 0 {
                    a
                } else {
                    b
                }
            }
        }
    }

    /// First-UIP conflict analysis with recursive clause minimization.
    /// Returns the learnt clause (asserting literal first, a highest-level
    /// literal second), the backtrack level, and the clause's LBD.
    fn analyze(&mut self, conflict: Conflict) -> (Vec<Lit>, u32, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::positive(Var::new(0))]; // placeholder for the asserting literal
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let current = self.current_level();
        let mut cause = conflict;

        loop {
            if let Conflict::Clause(cref) = cause {
                self.bump_clause(cref);
            }
            let skip = usize::from(p.is_some());
            let len = self.conflict_len(cause);
            for k in skip..len {
                let q = self.conflict_lit(cause, k);
                let v = q.var().index();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump_var(v);
                    if self.level[v] >= current {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Find the next literal of the current level to resolve on.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let lit = self.trail[index];
            let v = lit.var().index();
            self.seen[v] = false;
            counter -= 1;
            p = Some(lit);
            if counter == 0 {
                break;
            }
            cause = self
                .reason_cause(lit, self.reason[v])
                .expect("non-UIP literal has a reason clause");
        }
        learnt[0] = !p.expect("analysis produced an asserting literal");

        // Conflict-clause minimization: drop every literal whose reason
        // clause resolves entirely into other learnt literals (and top-level
        // facts) — MiniSat's recursive `litRedundant`. The `seen` flags of
        // the learnt literals are still set here and serve as the "absorbed"
        // marker; `to_clear` collects every extra flag raised on the way.
        self.to_clear.clear();
        self.to_clear.extend_from_slice(&learnt[1..]);
        let mut kept = 1;
        for i in 1..learnt.len() {
            let l = learnt[i];
            let redundant =
                !matches!(self.reason[l.var().index()], Reason::None) && self.lit_redundant(l);
            if !redundant {
                learnt[kept] = l;
                kept += 1;
            }
        }
        self.stats.minimized_literals += (learnt.len() - kept) as u64;
        learnt.truncate(kept);

        // Clear the seen flags of every literal visited.
        let to_clear = std::mem::take(&mut self.to_clear);
        for &l in &to_clear {
            self.seen[l.var().index()] = false;
        }
        self.to_clear = to_clear;

        // Compute the backtrack level: the highest level among the non-asserting literals.
        let backtrack_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_idx = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_idx].var().index()] {
                    max_idx = i;
                }
            }
            learnt.swap(1, max_idx);
            self.level[learnt[1].var().index()]
        };

        // LBD ("glue"): distinct decision levels among the learnt literals,
        // counted with a per-level stamp instead of a cleared set.
        self.stamp += 1;
        let mut lbd = 0u32;
        for &l in &learnt {
            let lv = self.level[l.var().index()] as usize;
            if self.level_stamp[lv] != self.stamp {
                self.level_stamp[lv] = self.stamp;
                lbd += 1;
            }
        }
        (learnt, backtrack_level, lbd)
    }

    /// Whether `p`'s reason clause resolves entirely into literals already
    /// absorbed by the learnt clause (marked `seen`) or top-level facts —
    /// i.e. whether `p` is redundant in the learnt clause. Newly absorbed
    /// literals are marked `seen` (memoised for the rest of this conflict)
    /// and recorded in `to_clear`; on failure the marks this call added are
    /// rolled back.
    fn lit_redundant(&mut self, p: Lit) -> bool {
        let top = self.to_clear.len();
        self.min_stack.clear();
        self.min_stack.push(p);
        while let Some(q) = self.min_stack.pop() {
            let cause = self
                .reason_cause(q, self.reason[q.var().index()])
                .expect("candidate literals have reason clauses");
            for k in 1..self.conflict_len(cause) {
                let l = self.conflict_lit(cause, k);
                let v = l.var().index();
                if !self.seen[v] && self.level[v] > 0 {
                    if matches!(self.reason[v], Reason::None) {
                        // Resolves into a decision/assumption: not redundant.
                        // Roll back the marks this call made.
                        for idx in top..self.to_clear.len() {
                            self.seen[self.to_clear[idx].var().index()] = false;
                        }
                        self.to_clear.truncate(top);
                        return false;
                    }
                    self.seen[v] = true;
                    self.to_clear.push(l);
                    self.min_stack.push(l);
                }
            }
        }
        true
    }

    /// Computes the subset of assumptions responsible for forcing the
    /// assumption `p` false (MiniSat's `analyzeFinal`). The returned literals
    /// are in the caller's polarity: the set cannot be jointly assumed.
    fn analyze_final(&mut self, p: Lit) -> Vec<Lit> {
        let mut out = vec![p];
        if self.current_level() == 0 {
            return out;
        }
        self.seen[p.var().index()] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let lit = self.trail[i];
            let v = lit.var().index();
            if !self.seen[v] {
                continue;
            }
            match self.reason_cause(lit, self.reason[v]) {
                // Decisions above level 0 are exactly the assumptions.
                None => out.push(lit),
                Some(cause) => {
                    for k in 1..self.conflict_len(cause) {
                        let l = self.conflict_lit(cause, k);
                        if self.level[l.var().index()] > 0 {
                            self.seen[l.var().index()] = true;
                        }
                    }
                }
            }
            self.seen[v] = false;
        }
        self.seen[p.var().index()] = false;
        out
    }

    fn backjump(&mut self, target_level: u32) {
        if self.current_level() <= target_level {
            return;
        }
        let keep = self.trail_lim[target_level as usize];
        while self.trail.len() > keep {
            let lit = self.trail.pop().expect("trail entry");
            let v = lit.var().index();
            self.phase[v] = lit.is_positive();
            self.assign[v] = None;
            self.reason[v] = Reason::None;
            self.heap.insert(v, &self.activity);
        }
        self.trail_lim.truncate(target_level as usize);
        self.qhead = self.trail.len();
    }

    fn decide(&mut self) -> bool {
        while let Some(v) = self.heap.pop(&self.activity) {
            if self.assign[v].is_none() {
                self.stats.decisions += 1;
                self.trail_lim.push(self.trail.len());
                let lit = Lit::new(Var::new(v as u32), self.phase[v]);
                let enqueued = self.enqueue(lit, Reason::None);
                debug_assert!(enqueued);
                return true;
            }
        }
        false
    }

    /// Halves the learnt-clause database with the LBD-first policy: clauses
    /// with glue ≤ 2 are never evicted, the rest are ranked worst-first by
    /// (glue descending, activity ascending) and the worst half is dropped.
    /// Must be called at decision level 0. Reason clauses of top-level
    /// assignments and binary clauses are never evicted.
    fn reduce_db(&mut self) {
        debug_assert_eq!(self.current_level(), 0, "reduce_db runs at level 0");
        let mut locked: Vec<u32> = Vec::new();
        for v in 0..self.num_vars {
            if self.assign[v].is_some() {
                if let Reason::Clause(cref) = self.reason[v] {
                    locked.push(cref);
                }
            }
        }
        locked.sort_unstable();
        let mut candidates: Vec<u32> = self
            .learnts
            .iter()
            .copied()
            .filter(|&c| self.arena.lbd(c) > 2 && locked.binary_search(&c).is_err())
            .collect();
        // Worst first: highest glue, then lowest activity.
        candidates.sort_by(|&a, &b| {
            self.arena
                .lbd(b)
                .cmp(&self.arena.lbd(a))
                .then_with(|| {
                    self.arena
                        .activity(a)
                        .partial_cmp(&self.arena.activity(b))
                        .expect("clause activities are finite")
                })
                .then_with(|| b.cmp(&a))
        });
        candidates.truncate(candidates.len() / 2);
        if candidates.is_empty() {
            // Nothing evictable: raise the limit so the check is not retried
            // on every restart.
            self.learnt_limit += self.learnt_limit / 2 + 1;
            return;
        }
        for &cref in &candidates {
            self.arena.mark(cref);
        }
        let removed = candidates.len();
        self.remove_marked();
        self.live_learnts -= removed;
        self.stats.db_reductions += 1;
        self.stats.removed_learnts += removed as u64;
        // Geometric schedule: allow the database to grow 1.5× larger before
        // the next reduction.
        self.learnt_limit += self.learnt_limit / 2;
    }

    /// Detaches every marked arena clause and compacts the arena, remapping
    /// the clause references held by watch lists and reasons. Specialised
    /// binary watches are untouched. Marked clauses must not be the reason
    /// of any assigned variable.
    fn remove_marked(&mut self) {
        // Drop the watch entries of marked clauses.
        {
            let arena = &self.arena;
            for list in &mut self.watches {
                list.retain(|w| w.cref & WATCH_BINARY != 0 || !arena.is_marked(w.cref));
            }
        }
        // Compact the arena, leaving a forwarding pointer (the activity word)
        // at each surviving clause's old location.
        let mut new_data = Vec::with_capacity(self.arena.data.len());
        for list in [&mut self.clauses, &mut self.learnts] {
            list.retain(|&c| !self.arena.is_marked(c));
            for cref in list.iter_mut() {
                let start = *cref as usize;
                let total = HEADER_WORDS + self.arena.len(*cref);
                let new_cref = u32::try_from(new_data.len()).expect("arena offset fits in u32");
                new_data.extend_from_slice(&self.arena.data[start..start + total]);
                self.arena.data[start + 1] = new_cref;
                *cref = new_cref;
            }
        }
        let old = std::mem::replace(&mut self.arena.data, new_data);
        for list in &mut self.watches {
            for w in &mut *list {
                if w.cref & WATCH_BINARY == 0 {
                    w.cref = old[w.cref as usize + 1];
                }
            }
        }
        for reason in &mut self.reason {
            if let Reason::Clause(cref) = reason {
                *cref = old[*cref as usize + 1];
            }
        }
    }

    /// Solves the formula to completion.
    pub fn solve(&mut self) -> SatResult {
        self.solve_with_limits(Limits::unlimited())
    }

    /// Solves the formula, giving up with [`SatResult::Unknown`] when the
    /// per-call budget in `limits` is exhausted.
    pub fn solve_with_limits(&mut self, limits: Limits) -> SatResult {
        self.solve_with_assumptions(&[], limits)
    }

    /// Solves the formula under temporary unit `assumptions`.
    ///
    /// Assumptions act as forced first decisions: a `Sat` answer satisfies
    /// all of them, while `Unsat` means the formula has no model in which
    /// every assumption holds. In the latter case
    /// [`Solver::failed_assumptions`] returns the subset of assumptions the
    /// refutation actually used. Assumptions do not persist: the solver can
    /// be reused afterwards with different (or no) assumptions, and learnt
    /// clauses derived under assumptions remain valid because conflict
    /// analysis never resolves on decision literals.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit], limits: Limits) -> SatResult {
        let entry = self.stats;
        self.stats.solve_calls += 1;
        #[cfg(feature = "fault-injection")]
        {
            use tracelearn_faults::{trip, FaultSite};
            // Advance both occurrence counters every call so a plan firing on
            // the nth solve stays deterministic regardless of which site is
            // armed. Either fault surfaces exactly like the genuine path:
            // `Unknown`, which callers map to budget exhaustion.
            let budget = trip(FaultSite::SatBudget);
            let interrupt = trip(FaultSite::SatInterrupt);
            if budget || interrupt {
                self.failed.clear();
                self.last_call = self.stats.since(&entry);
                return SatResult::Unknown;
            }
        }
        self.failed.clear();
        for lit in assumptions {
            assert!(
                lit.var().index() < self.num_vars,
                "assumption literal out of range"
            );
        }
        if self.learnt_limit == 0 {
            self.learnt_limit = (self.clauses.len() / 3).max(2000);
        }
        self.prop_limit = limits
            .max_propagations
            .map(|max| entry.propagations.saturating_add(max));
        self.prop_budget_hit = false;
        let result = self.search(assumptions, limits, &entry);
        self.prop_limit = None;
        self.last_call = self.stats.since(&entry);
        result
    }

    fn search(&mut self, assumptions: &[Lit], limits: Limits, entry: &SolverStats) -> SatResult {
        if !self.ok {
            return SatResult::Unsat;
        }
        self.backjump(0);
        if self.propagate().is_some() {
            self.ok = false;
            return SatResult::Unsat;
        }
        if self.prop_budget_hit {
            return self.give_up_on_propagations();
        }
        if self.live_learnts >= self.learnt_limit {
            self.reduce_db();
        }

        // The Luby restart schedule is per call (as in MiniSat): a reused
        // solver starts each query with short restarts again instead of
        // inheriting the long intervals its history grew into.
        let mut call_restarts = 0u64;
        let mut conflicts_since_restart = 0u64;
        let mut restart_limit = 100u64 * luby(call_restarts + 1);

        loop {
            if let Some(max) = limits.max_conflicts {
                if self.stats.conflicts - entry.conflicts >= max {
                    self.backjump(0);
                    return SatResult::Unknown;
                }
            }
            if self.is_interrupted() {
                self.backjump(0);
                return SatResult::Unknown;
            }

            if let Some(conflict) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_since_restart += 1;
                if self.current_level() == 0 {
                    self.ok = false;
                    return SatResult::Unsat;
                }
                let (learnt, backtrack_level, lbd) = self.analyze(conflict);
                self.backjump(backtrack_level);
                self.stats.record_lbd(lbd);
                match learnt.len() {
                    1 => {
                        let enqueued = self.enqueue(learnt[0], Reason::None);
                        debug_assert!(enqueued);
                    }
                    2 => {
                        self.attach_binary(learnt[0], learnt[1], true);
                        self.stats.learnt_clauses += 1;
                        let enqueued = self.enqueue(learnt[0], Reason::Binary(learnt[1]));
                        debug_assert!(enqueued);
                    }
                    _ => {
                        let asserting = learnt[0];
                        let cref = self.attach(&learnt, true);
                        self.arena.set_lbd(cref, lbd);
                        self.stats.learnt_clauses += 1;
                        let enqueued = self.enqueue(asserting, Reason::Clause(cref));
                        debug_assert!(enqueued);
                    }
                }
                self.var_inc /= 0.95;
                self.cla_inc /= 0.999;
            } else {
                if self.prop_budget_hit {
                    return self.give_up_on_propagations();
                }
                if conflicts_since_restart >= restart_limit {
                    self.stats.restarts += 1;
                    call_restarts += 1;
                    conflicts_since_restart = 0;
                    restart_limit = 100 * luby(call_restarts + 1);
                    self.backjump(0);
                    if self.live_learnts >= self.learnt_limit {
                        self.reduce_db();
                    }
                    continue;
                }
                // Establish the next assumption as a pseudo-decision: level
                // `i + 1` always belongs to `assumptions[i]`.
                let next = self.current_level() as usize;
                if next < assumptions.len() {
                    let p = assumptions[next];
                    match self.lit_value(p) {
                        Some(true) => {
                            // Already implied: open an empty level for it so
                            // the level↔assumption correspondence holds.
                            self.trail_lim.push(self.trail.len());
                        }
                        Some(false) => {
                            self.failed = self.analyze_final(p);
                            self.backjump(0);
                            return SatResult::Unsat;
                        }
                        None => {
                            self.trail_lim.push(self.trail.len());
                            let enqueued = self.enqueue(p, Reason::None);
                            debug_assert!(enqueued);
                        }
                    }
                    continue;
                }
                if !self.decide() {
                    // All variables assigned: build the model.
                    let values = self
                        .assign
                        .iter()
                        .map(|v| v.unwrap_or(false))
                        .collect::<Vec<_>>();
                    let model = Model::new(values);
                    self.backjump(0);
                    return SatResult::Sat(model);
                }
            }
        }
    }

    /// Abandons the current call after the propagation budget was hit inside
    /// [`Solver::propagate`]. The propagation queue may be partially drained,
    /// so the next call re-propagates the top-level trail from scratch.
    fn give_up_on_propagations(&mut self) -> SatResult {
        self.backjump(0);
        self.qhead = 0;
        SatResult::Unknown
    }
}

/// The Luby restart sequence: 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, …
fn luby(mut i: u64) -> u64 {
    // Find the finite subsequence containing index i and its size.
    let mut k = 1u32;
    while (1u64 << k) - 1 < i {
        k += 1;
    }
    loop {
        if (1u64 << (k - 1)) - 1 == i {
            return 1u64 << (k - 1);
        }
        if i == 0 {
            return 1;
        }
        if (1u64 << k) - 1 == i {
            return 1u64 << (k - 1);
        }
        i -= (1u64 << (k - 1)) - 1;
        k = 1;
        while (1u64 << k) - 1 < i {
            k += 1;
        }
    }
}

/// An indexed binary max-heap over variables, ordered by activity.
#[derive(Debug, Clone)]
struct VarHeap {
    heap: Vec<usize>,
    position: Vec<Option<usize>>,
}

impl VarHeap {
    fn new(num_vars: usize) -> Self {
        VarHeap {
            heap: Vec::with_capacity(num_vars),
            position: vec![None; num_vars],
        }
    }

    /// Makes room for one more variable (see [`Solver::new_var`]).
    fn grow(&mut self) {
        self.position.push(None);
    }

    fn contains(&self, var: usize) -> bool {
        self.position[var].is_some()
    }

    fn insert(&mut self, var: usize, activity: &[f64]) {
        if self.contains(var) {
            return;
        }
        self.position[var] = Some(self.heap.len());
        self.heap.push(var);
        self.sift_up(self.heap.len() - 1, activity);
    }

    fn update(&mut self, var: usize, activity: &[f64]) {
        if let Some(pos) = self.position[var] {
            self.sift_up(pos, activity);
        }
    }

    fn pop(&mut self, activity: &[f64]) -> Option<usize> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        self.position[top] = None;
        let last = self.heap.pop().expect("heap non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.position[last] = Some(0);
            self.sift_down(0, activity);
        }
        Some(top)
    }

    fn sift_up(&mut self, mut pos: usize, activity: &[f64]) {
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if activity[self.heap[pos]] > activity[self.heap[parent]] {
                self.swap(pos, parent);
                pos = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut pos: usize, activity: &[f64]) {
        loop {
            let left = 2 * pos + 1;
            let right = 2 * pos + 2;
            let mut largest = pos;
            if left < self.heap.len() && activity[self.heap[left]] > activity[self.heap[largest]] {
                largest = left;
            }
            if right < self.heap.len() && activity[self.heap[right]] > activity[self.heap[largest]]
            {
                largest = right;
            }
            if largest == pos {
                break;
            }
            self.swap(pos, largest);
            pos = largest;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.position[self.heap[a]] = Some(a);
        self.position[self.heap[b]] = Some(b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: usize, positive: bool) -> Lit {
        Lit::new(Var::new(v as u32), positive)
    }

    /// Brute-force satisfiability check for cross-validation.
    fn brute_force_sat(num_vars: usize, clauses: &[Vec<Lit>]) -> bool {
        assert!(num_vars <= 20, "brute force only for small formulas");
        'outer: for assignment in 0u32..(1 << num_vars) {
            for clause in clauses {
                let satisfied = clause.iter().any(|l| {
                    let bit = (assignment >> l.var().index()) & 1 == 1;
                    bit == l.is_positive()
                });
                if !satisfied {
                    continue 'outer;
                }
            }
            return true;
        }
        false
    }

    fn solve_clauses(num_vars: usize, clauses: &[Vec<Lit>]) -> SatResult {
        let mut solver = Solver::new(num_vars);
        for clause in clauses {
            solver.add_clause(clause.iter().copied());
        }
        solver.solve()
    }

    fn pigeonhole_clauses(pigeons: usize, holes: usize) -> (usize, Vec<Vec<Lit>>) {
        let var = |pigeon: usize, hole: usize| lit(pigeon * holes + hole, true);
        let mut clauses = Vec::new();
        for p in 0..pigeons {
            clauses.push((0..holes).map(|h| var(p, h)).collect::<Vec<_>>());
        }
        for h in 0..holes {
            for a in 0..pigeons {
                for b in (a + 1)..pigeons {
                    clauses.push(vec![!var(a, h), !var(b, h)]);
                }
            }
        }
        (pigeons * holes, clauses)
    }

    /// Snapshot of every learnt clause currently attached: arena learnts plus
    /// the specialised binary learnts reconstructed from the watch lists.
    fn learnt_clauses(solver: &Solver) -> Vec<Vec<Lit>> {
        let mut out = Vec::new();
        for &cref in &solver.learnts {
            out.push(
                (0..solver.arena.len(cref))
                    .map(|k| solver.arena.lit(cref, k))
                    .collect(),
            );
        }
        for (code, list) in solver.watches.iter().enumerate() {
            let watched = Lit::from_code(code);
            for w in list {
                if w.cref & WATCH_BINARY != 0 && w.cref & WATCH_BINARY_LEARNT != 0 {
                    // Each binary clause has two entries; keep one canonically.
                    if w.blocker.code() < (!watched).code() {
                        out.push(vec![w.blocker, !watched]);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn empty_formula_is_sat() {
        assert!(solve_clauses(3, &[]).is_sat());
    }

    #[test]
    fn unit_clauses_propagate() {
        let clauses = vec![vec![lit(0, true)], vec![lit(0, false), lit(1, true)]];
        match solve_clauses(2, &clauses) {
            SatResult::Sat(model) => {
                assert!(model.value(Var::new(0)));
                assert!(model.value(Var::new(1)));
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn contradictory_units_are_unsat() {
        let clauses = vec![vec![lit(0, true)], vec![lit(0, false)]];
        assert!(solve_clauses(1, &clauses).is_unsat());
    }

    #[test]
    fn pigeonhole_three_into_two_is_unsat() {
        let (num_vars, clauses) = pigeonhole_clauses(3, 2);
        assert!(solve_clauses(num_vars, &clauses).is_unsat());
    }

    #[test]
    fn simple_backtracking_formula() {
        // (a ∨ b) ∧ (¬a ∨ c) ∧ (¬b ∨ c) ∧ (¬c ∨ d) ∧ (¬d ∨ ¬a)
        let clauses = vec![
            vec![lit(0, true), lit(1, true)],
            vec![lit(0, false), lit(2, true)],
            vec![lit(1, false), lit(2, true)],
            vec![lit(2, false), lit(3, true)],
            vec![lit(3, false), lit(0, false)],
        ];
        match solve_clauses(4, &clauses) {
            SatResult::Sat(model) => {
                assert!(model.satisfies(&clauses));
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn model_always_satisfies_formula() {
        let clauses = vec![
            vec![lit(0, true), lit(1, false), lit(2, true)],
            vec![lit(1, true), lit(2, false)],
            vec![lit(0, false), lit(3, true)],
            vec![lit(3, false), lit(4, true), lit(1, true)],
            vec![lit(4, false), lit(0, true)],
        ];
        match solve_clauses(5, &clauses) {
            SatResult::Sat(model) => assert!(model.satisfies(&clauses)),
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn tautological_clauses_are_ignored() {
        let clauses = vec![vec![lit(0, true), lit(0, false)], vec![lit(1, true)]];
        assert!(solve_clauses(2, &clauses).is_sat());
    }

    #[test]
    fn limits_return_unknown() {
        // A hard pigeonhole instance with a tiny conflict budget.
        let (num_vars, clauses) = pigeonhole_clauses(6, 5);
        let mut solver = Solver::new(num_vars);
        for clause in &clauses {
            solver.add_clause(clause.iter().copied());
        }
        let result = solver.solve_with_limits(Limits::conflicts(3));
        assert_eq!(result, SatResult::Unknown);
        // And without limits the instance is UNSAT.
        let mut solver = Solver::new(num_vars);
        for clause in &clauses {
            solver.add_clause(clause.iter().copied());
        }
        assert!(solver.solve().is_unsat());
        assert!(solver.stats().conflicts > 0);
    }

    /// Regression test for cumulative-budget accounting: a second call on a
    /// reused solver must get its own conflict budget instead of being
    /// charged for the lifetime total.
    #[test]
    fn limits_are_per_call_on_a_reused_solver() {
        // Pigeonhole 6-into-5 with a relaxation literal r added to every
        // capacity clause: under the assumption ¬r the instance is the hard
        // UNSAT pigeonhole (burning many conflicts), without assumptions it
        // is trivially SAT by setting r.
        let (pigeons, holes) = (6usize, 5usize);
        let var = |pigeon: usize, hole: usize| lit(pigeon * holes + hole, true);
        let relax = lit(pigeons * holes, true);
        let mut solver = Solver::new(pigeons * holes + 1);
        for p in 0..pigeons {
            solver.add_clause((0..holes).map(|h| var(p, h)));
        }
        for h in 0..holes {
            for a in 0..pigeons {
                for b in (a + 1)..pigeons {
                    solver.add_clause([!var(a, h), !var(b, h), relax]);
                }
            }
        }
        let first = solver.solve_with_assumptions(&[!relax], Limits::unlimited());
        assert!(first.is_unsat());
        let lifetime_conflicts = solver.stats().conflicts;
        assert!(
            lifetime_conflicts >= 1,
            "the refutation must cost conflicts"
        );

        // Second call with a conflict budget no larger than the lifetime
        // total: under the old cumulative accounting this returned Unknown
        // immediately even though the call itself did no work yet.
        let result = solver.solve_with_limits(Limits::conflicts(lifetime_conflicts));
        assert!(
            result.is_sat(),
            "second call spuriously hit a budget it never consumed: {result:?}"
        );
        assert_eq!(solver.last_call_stats().solve_calls, 1);
        assert!(solver.last_call_stats().conflicts <= lifetime_conflicts);
    }

    #[test]
    fn propagation_budget_is_enforced_inside_propagate() {
        // A long implication chain: one decision triggers ~n propagations in
        // a single propagate() pass.
        let n = 8192;
        let mut solver = Solver::new(n);
        // x_{i+1} → x_i: the first decision (¬x0, phases default to false)
        // collapses the whole chain in one propagate() pass.
        for i in 0..(n - 1) {
            solver.add_clause([lit(i, true), lit(i + 1, false)]);
        }
        let result = solver.solve_with_limits(Limits::propagations(2048));
        assert_eq!(
            result,
            SatResult::Unknown,
            "a single propagation pass must respect the budget"
        );
        // The overshoot is bounded by the 1024-step check granularity.
        assert!(solver.last_call_stats().propagations <= 2048 + 1024);
        // The same solver still answers correctly without limits.
        assert!(solver.solve().is_sat());
    }

    #[test]
    fn new_var_grows_a_live_solver() {
        let mut solver = Solver::new(1);
        solver.add_clause([lit(0, true)]);
        assert!(solver.solve().is_sat());
        let v = solver.new_var();
        assert_eq!(solver.num_vars(), 2);
        solver.add_clause([Lit::negative(v)]);
        match solver.solve() {
            SatResult::Sat(model) => {
                assert!(model.value(Var::new(0)));
                assert!(!model.value(v));
            }
            other => panic!("expected SAT, got {other:?}"),
        }
        solver.add_clause([Lit::positive(v)]);
        assert!(solver.solve().is_unsat());
    }

    #[test]
    fn assumptions_are_temporary() {
        // (a ∨ b) with assumption ¬a forces b; without assumptions a is free.
        let mut solver = Solver::new(2);
        solver.add_clause([lit(0, true), lit(1, true)]);
        match solver.solve_with_assumptions(&[lit(0, false)], Limits::unlimited()) {
            SatResult::Sat(model) => {
                assert!(!model.value(Var::new(0)));
                assert!(model.value(Var::new(1)));
            }
            other => panic!("expected SAT, got {other:?}"),
        }
        // The assumption must not have been burned in.
        match solver.solve_with_assumptions(&[lit(0, true), lit(1, false)], Limits::unlimited()) {
            SatResult::Sat(model) => {
                assert!(model.value(Var::new(0)));
                assert!(!model.value(Var::new(1)));
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn failed_assumptions_name_the_culprits() {
        // a → b, b → c; assuming a and ¬c is contradictory, assuming d is not.
        let mut solver = Solver::new(4);
        solver.add_clause([lit(0, false), lit(1, true)]);
        solver.add_clause([lit(1, false), lit(2, true)]);
        let assumptions = [lit(3, true), lit(0, true), lit(2, false)];
        let result = solver.solve_with_assumptions(&assumptions, Limits::unlimited());
        assert!(result.is_unsat());
        let failed = solver.failed_assumptions().to_vec();
        assert!(!failed.is_empty());
        // Every reported literal is one of the assumptions…
        for l in &failed {
            assert!(assumptions.contains(l), "{l} is not an assumption");
        }
        // …and the irrelevant assumption d is not blamed.
        assert!(!failed.contains(&lit(3, true)));
        // The sub-formula remains satisfiable without assumptions.
        assert!(solver.solve().is_sat());
    }

    #[test]
    fn unsat_without_assumptions_reports_no_failed_set() {
        let mut solver = Solver::new(1);
        solver.add_clause([lit(0, true)]);
        solver.add_clause([lit(0, false)]);
        let result = solver.solve_with_assumptions(&[], Limits::unlimited());
        assert!(result.is_unsat());
        assert!(solver.failed_assumptions().is_empty());
    }

    #[test]
    fn assumption_false_at_top_level_fails_alone() {
        let mut solver = Solver::new(2);
        solver.add_clause([lit(0, false)]);
        let result =
            solver.solve_with_assumptions(&[lit(1, true), lit(0, true)], Limits::unlimited());
        assert!(result.is_unsat());
        assert_eq!(solver.failed_assumptions(), &[lit(0, true)]);
    }

    #[test]
    fn learnt_database_reduction_keeps_answers_correct() {
        let (num_vars, clauses) = pigeonhole_clauses(8, 7);
        let mut solver = Solver::new(num_vars);
        for clause in &clauses {
            solver.add_clause(clause.iter().copied());
        }
        solver.set_learnt_limit(50);
        assert!(solver.solve().is_unsat());
        let stats = solver.stats();
        assert!(stats.db_reductions > 0, "no reduction triggered: {stats:?}");
        assert!(stats.removed_learnts > 0);
    }

    #[test]
    fn incremental_solving_reuses_learnt_clauses() {
        let (num_vars, clauses) = pigeonhole_clauses(7, 7);
        let mut solver = Solver::new(num_vars);
        for clause in &clauses {
            solver.add_clause(clause.iter().copied());
        }
        assert!(solver.solve().is_sat());
        let learnts = solver.num_learnts();
        // Strengthen the formula and solve again on the same solver.
        solver.add_clause([lit(0, false)]);
        assert!(solver.solve().is_sat());
        assert!(
            solver.num_learnts() >= learnts,
            "learnt clauses must be carried across calls"
        );
        assert_eq!(solver.stats().solve_calls, 2);
    }

    #[test]
    fn interrupt_raised_before_solving_returns_unknown() {
        let (num_vars, clauses) = pigeonhole_clauses(6, 5);
        let mut solver = Solver::new(num_vars);
        for clause in &clauses {
            solver.add_clause(clause.iter().copied());
        }
        let flag = Arc::new(AtomicBool::new(true));
        solver.set_interrupt(Arc::clone(&flag));
        assert!(solver.is_interrupted());
        assert_eq!(solver.solve(), SatResult::Unknown);
        // Lowering the flag restores full functionality on the same solver.
        flag.store(false, Ordering::Relaxed);
        assert!(!solver.is_interrupted());
        assert!(solver.solve().is_unsat());
    }

    #[test]
    fn interrupt_from_another_thread_stops_a_long_solve_promptly() {
        // Pigeonhole 10-into-9 takes far longer than the test budget; the
        // interrupt must cut the solve short from a concurrent thread.
        let (num_vars, clauses) = pigeonhole_clauses(10, 9);
        let mut solver = Solver::new(num_vars);
        for clause in &clauses {
            solver.add_clause(clause.iter().copied());
        }
        let flag = Arc::new(AtomicBool::new(false));
        solver.set_interrupt(Arc::clone(&flag));
        let result = std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(50));
                flag.store(true, Ordering::Relaxed);
            });
            let start = std::time::Instant::now();
            let result = solver.solve();
            assert!(
                start.elapsed() < std::time::Duration::from_secs(20),
                "interrupt was not honoured promptly"
            );
            result
        });
        assert_eq!(result, SatResult::Unknown);
        // The interrupted solver answers a small query once cleared.
        solver.clear_interrupt();
        assert!(!solver.is_interrupted());
        let mut small = Solver::new(1);
        small.add_clause([lit(0, true)]);
        assert!(small.solve().is_sat());
    }

    #[test]
    fn luby_sequence_prefix() {
        let expected = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let actual: Vec<u64> = (1..=15).map(luby).collect();
        assert_eq!(actual, expected);
    }

    #[test]
    fn agrees_with_brute_force_on_fixed_formulas() {
        let formulas: Vec<(usize, Vec<Vec<Lit>>)> = vec![
            (
                3,
                vec![vec![lit(0, true)], vec![lit(1, true), lit(2, false)]],
            ),
            (
                3,
                vec![
                    vec![lit(0, true), lit(1, true)],
                    vec![lit(0, false), lit(1, false)],
                    vec![lit(1, true), lit(2, true)],
                    vec![lit(1, false), lit(2, false)],
                    vec![lit(0, true), lit(2, true)],
                    vec![lit(0, false), lit(2, false)],
                ],
            ),
        ];
        for (num_vars, clauses) in formulas {
            let expected = brute_force_sat(num_vars, &clauses);
            let actual = solve_clauses(num_vars, &clauses).is_sat();
            assert_eq!(actual, expected);
        }
    }

    /// New in this PR — (a) of the solver test checklist: every learnt
    /// clause surviving conflict-clause minimization must still be implied
    /// by the original formula (asserting its negation yields UNSAT).
    #[test]
    fn minimized_learnt_clauses_are_implied_by_the_formula() {
        let (num_vars, clauses) = pigeonhole_clauses(6, 5);
        let mut solver = Solver::new(num_vars);
        for clause in &clauses {
            solver.add_clause(clause.iter().copied());
        }
        // Budget the refutation so a learnt database is left standing.
        let _ = solver.solve_with_limits(Limits::conflicts(120));
        let learnts = learnt_clauses(&solver);
        assert!(!learnts.is_empty(), "the run must learn clauses");
        assert!(
            solver.stats().minimized_literals > 0,
            "pigeonhole conflicts must trigger minimization"
        );
        for learnt in learnts.iter().take(60) {
            let mut check = Solver::new(num_vars);
            for clause in &clauses {
                check.add_clause(clause.iter().copied());
            }
            for &l in learnt {
                check.add_clause([!l]);
            }
            assert!(
                check.solve().is_unsat(),
                "learnt clause {learnt:?} is not implied"
            );
        }
    }

    /// New in this PR — (b): the arena layout survives `new_var` and
    /// `add_clause` growth after solving (and after database reductions
    /// compacted the arena).
    #[test]
    fn arena_survives_growth_after_solving_and_reduction() {
        let (num_vars, clauses) = pigeonhole_clauses(7, 7);
        let mut solver = Solver::new(num_vars);
        for clause in &clauses {
            solver.add_clause(clause.iter().copied());
        }
        solver.set_learnt_limit(20);
        assert!(solver.solve().is_sat());
        // Grow the formula: a fresh variable bridging old clauses.
        let v = solver.new_var();
        solver.add_clause([Lit::positive(v), lit(0, true), lit(1, true)]);
        solver.add_clause([Lit::negative(v), lit(2, true)]);
        assert!(solver.solve().is_sat());
        // Force the pigeonhole to be re-derived after the growth.
        solver.add_clause([lit(0, false)]);
        assert!(solver.solve().is_sat());
        // Arena bookkeeping is intact: every stored clause reads back with a
        // sane length and in-range literals.
        for &cref in solver.clauses.iter().chain(solver.learnts.iter()) {
            let len = solver.arena.len(cref);
            assert!(len >= 3, "arena clauses are at least ternary");
            for k in 0..len {
                assert!(solver.arena.lit(cref, k).var().index() < solver.num_vars());
            }
        }
    }

    /// New in this PR — (d): LBD-first reduction never evicts glue ≤ 2
    /// clauses.
    #[test]
    fn lbd_first_reduction_protects_low_glue_clauses() {
        let (num_vars, clauses) = pigeonhole_clauses(9, 8);
        let mut solver = Solver::new(num_vars);
        for clause in &clauses {
            solver.add_clause(clause.iter().copied());
        }
        // Burn conflicts without finishing so a big database accumulates.
        let _ = solver.solve_with_limits(Limits::conflicts(800));
        let glue_low: Vec<Vec<Lit>> = solver
            .learnts
            .iter()
            .filter(|&&c| solver.arena.lbd(c) <= 2)
            .map(|&c| {
                (0..solver.arena.len(c))
                    .map(|k| solver.arena.lit(c, k))
                    .collect()
            })
            .collect();
        let before = solver.learnts.len();
        solver.backjump(0);
        solver.reduce_db();
        assert!(
            solver.learnts.len() < before,
            "the reduction must evict something"
        );
        let survivors: std::collections::BTreeSet<Vec<Lit>> = solver
            .learnts
            .iter()
            .map(|&c| {
                let mut lits: Vec<Lit> = (0..solver.arena.len(c))
                    .map(|k| solver.arena.lit(c, k))
                    .collect();
                lits.sort();
                lits
            })
            .collect();
        for clause in glue_low {
            let mut sorted = clause.clone();
            sorted.sort();
            assert!(
                survivors.contains(&sorted),
                "glue ≤ 2 clause {clause:?} was evicted"
            );
        }
        // The reduced solver still refutes the instance.
        assert!(solver.solve().is_unsat());
    }

    #[test]
    fn lbd_histogram_accounts_for_every_learnt_clause() {
        let (num_vars, clauses) = pigeonhole_clauses(7, 6);
        let mut solver = Solver::new(num_vars);
        for clause in &clauses {
            solver.add_clause(clause.iter().copied());
        }
        assert!(solver.solve().is_unsat());
        let stats = solver.stats();
        let histogram_total: u64 = stats.lbd_histogram.iter().sum();
        // Every analyzed conflict records its glue (unit learnts included);
        // only the terminal level-0 conflict returns without analysis.
        assert!(histogram_total >= stats.learnt_clauses);
        assert!(stats.conflicts - histogram_total <= 1);
        assert!(stats.lbd_histogram[0] + stats.lbd_histogram[1] > 0);
        assert_eq!(solver.last_call_stats().lbd_histogram, stats.lbd_histogram);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        fn clause_strategy(num_vars: usize) -> impl Strategy<Value = Vec<Lit>> {
            proptest::collection::vec(
                (0..num_vars, proptest::bool::ANY).prop_map(|(v, s)| lit(v, s)),
                1..4,
            )
        }

        proptest! {
            /// On random small 3-CNF formulas the CDCL solver agrees with
            /// exhaustive enumeration, and SAT answers carry genuine models.
            #[test]
            fn cdcl_matches_brute_force(
                clauses in proptest::collection::vec(clause_strategy(8), 0..40)
            ) {
                let expected = brute_force_sat(8, &clauses);
                match solve_clauses(8, &clauses) {
                    SatResult::Sat(model) => {
                        prop_assert!(expected);
                        prop_assert!(model.satisfies(&clauses));
                    }
                    SatResult::Unsat => prop_assert!(!expected),
                    SatResult::Unknown => prop_assert!(false, "no limits were set"),
                }
            }

            /// Incremental solving (solve, add clauses, solve again on the
            /// same solver) agrees with a from-scratch solver on the combined
            /// formula — learnt-clause reuse must not change answers.
            #[test]
            fn incremental_agrees_with_from_scratch(
                base in proptest::collection::vec(clause_strategy(8), 0..25),
                extra in proptest::collection::vec(clause_strategy(8), 0..25)
            ) {
                let mut incremental = Solver::new(8);
                for clause in &base {
                    incremental.add_clause(clause.iter().copied());
                }
                let first = incremental.solve();
                prop_assert_eq!(first.is_sat(), brute_force_sat(8, &base));
                for clause in &extra {
                    incremental.add_clause(clause.iter().copied());
                }
                let second = incremental.solve();

                let mut combined: Vec<Vec<Lit>> = base.clone();
                combined.extend(extra.iter().cloned());
                let expected = brute_force_sat(8, &combined);
                match second {
                    SatResult::Sat(model) => {
                        prop_assert!(expected);
                        prop_assert!(model.satisfies(&combined));
                    }
                    SatResult::Unsat => prop_assert!(!expected),
                    SatResult::Unknown => prop_assert!(false, "no limits were set"),
                }
            }

            /// Solving under assumptions agrees with burning the assumptions
            /// in as unit clauses on a fresh solver.
            #[test]
            fn assumptions_agree_with_unit_clauses(
                clauses in proptest::collection::vec(clause_strategy(6), 0..20),
                assumed in proptest::collection::vec(
                    (0..6usize, proptest::bool::ANY).prop_map(|(v, s)| lit(v, s)), 0..3)
            ) {
                let mut solver = Solver::new(6);
                for clause in &clauses {
                    solver.add_clause(clause.iter().copied());
                }
                let under_assumptions = solver
                    .solve_with_assumptions(&assumed, Limits::unlimited())
                    .is_sat();

                let mut burned: Vec<Vec<Lit>> = clauses.clone();
                for &a in &assumed {
                    burned.push(vec![a]);
                }
                prop_assert_eq!(under_assumptions, brute_force_sat(6, &burned));
            }
        }
    }
}
