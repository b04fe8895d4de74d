//! The efficient instantiation over sensitive K-relations (paper Sec. 5).
//!
//! For a nonnegative linear query `q` over a sensitive K-relation `(P, R)`
//! the sequences are defined through the relaxation `φ`:
//!
//! * `H_i = min_{f ∈ [0,1]^P, |f| = i} Σ_t q(t)·φ_{R(t)}(f)` (Eq. 16)
//! * `G_i = 2·min_{f ∈ [0,1]^P, |f| = i} max_p Σ_t q(t)·φ_{R(t)}(f)·S_{R(t),p}`
//!   (Eq. 19)
//!
//! `H` is a recursive sequence with `H_{|P|} = q(supp(R))` (Theorem 3) and
//! `G` is a 2-bounding sequence of `H` (Theorem 4). Both minimisations are
//! convex piecewise-linear programs and are encoded as LPs with `O(L)`
//! variables (Sec. 5.3):
//!
//! * every participant gets a variable `f_p ∈ [0,1]` and a single equality
//!   `Σ_p f_p = i` ties the mass to the index;
//! * every `∧` node becomes an epigraph variable `v ≥ Σ(children) − (n−1)`,
//!   `v ≥ 0` — one row per conjunction thanks to the flattened n-ary form
//!   (`φ_{∧(x₁..x_n)} = max(0, Σφ_{x_i} − (n−1))`), which is what keeps
//!   subgraph-counting LPs at one row per matched subgraph;
//! * every `∨` node becomes `v ≥ φ(child)` for each child;
//! * for `G_i` an extra variable `z` dominates the weighted per-participant
//!   sums and the objective is `2z`.
//!
//! Because the objective only ever pushes epigraph variables down and all
//! weights are nonnegative, the LP optimum equals the exact minimum of the
//! relaxed objective — no approximation is introduced.
//!
//! ## The reduced LP
//!
//! The chains solve a smaller LP with exactly the same optimum, by two
//! identities:
//!
//! * **Equal annotations merge.** Terms whose annotations are structurally
//!   equal become one term with the summed weight, in first-occurrence
//!   order. Proof: `w·φ_e + w'·φ_e = (w+w')·φ_e`, and in `G` both terms
//!   carry the same `S_{e,p}`, so every row they enter changes by the same
//!   sum.
//! * **Idle participants drop.** Only the `|P_named|` participants some
//!   term names get a mass variable, and the chain steps
//!   `j = 0..=|P_named|`; with `k = |P| − |P_named|` idle participants the
//!   table is `H_i = H'_{max(0, i−k)}` (and likewise `G`). Proof: `φ` is
//!   monotone, so an idle participant absorbs up to one unit of mass at
//!   zero cost, and the reduced optimum `H'_j` is non-decreasing in `j`.
//!
//! So a query pays one epigraph row per distinct annotation and
//! `2(|P_named|+1)` LPs per table. [`EfficientSequences::entry_model`]
//! stays the paper's unreduced LP — every raw term, every participant — so
//! its cold solve is an independent oracle of the reduction.
//!
//! ## Warm-started chains
//!
//! Within a family, consecutive entries differ **only** in the right-hand
//! side of the mass-tie equality, so the family is standardized once into a
//! [`rmdp_lp::PreparedLp`] (the mass row is always constraint 0) and walked
//! as one chain from `j = 0`: step `j+1` re-enters from step `j`'s optimal
//! basis ([`rmdp_lp::PreparedLp::solve_warm`]), which is still dual
//! feasible, so the dual simplex re-optimises it in a few pivots with no
//! composite phase 1. A chain cut at `j` would restart cold there, and a
//! cold start costs about as much as walking the chain from 0 to `j`, so no
//! finer split pays: the H chain and the G chain are the two units of
//! parallel work. [`EfficientSequences::solve_table`] runs both and returns
//! the complete [`FrozenSequences`] table the driver releases from; because
//! each chain runs the same solves on whichever thread it lands, the table,
//! the releases and even the pivot counters are bit-identical for every
//! [`Parallelism`] setting.
//!
//! ## Refresh after a delta
//!
//! A [`RefreshSeed`] keeps only the query's terms fingerprint. A refresh
//! republishes the frozen values when the post-delta query has the same
//! fingerprint and otherwise rebuilds them exactly as a cold compute does.
//! There is no warm middle tier: a basis parked from the previous data could
//! seed only the trivial `H_0` entry of a whole-family chain, and every later
//! entry re-enters through the dual simplex either way.

use crate::cache::FrozenSequences;
use crate::error::{MechanismError, SequenceFamily};
use crate::krelation_query::SensitiveKRelation;
use rmdp_krelation::fingerprint::{Fingerprint, FingerprintHasher};
use rmdp_krelation::hash::{FxHashMap, FxHashSet};
use rmdp_krelation::participant::ParticipantId;
use rmdp_krelation::phi::phi_sensitivities;
use rmdp_krelation::Expr;
use rmdp_lp::{Basis, Model, Sense, SimplexOptions, SolveStats, Var};
use rmdp_runtime::{par_try_map_indexed, Parallelism};
use std::collections::hash_map::Entry;

/// Cumulative counters describing the LP work of one table solve.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LpWorkStats {
    /// Number of LPs solved for `H` entries.
    pub h_solves: usize,
    /// Number of LPs solved for `G` entries.
    pub g_solves: usize,
    /// Total simplex pivots across all solves.
    pub total_pivots: usize,
    /// Pivots spent restoring primal feasibility through the composite
    /// phase 1. Warm-started chain entries re-enter through the dual simplex
    /// instead and contribute 0 here.
    pub phase1_pivots: usize,
    /// Dual simplex pivots spent re-optimising warm-started entries after
    /// the mass-row step (part of `total_pivots`).
    pub dual_pivots: usize,
    /// Pivots spent optimising from a feasible basis (phase 2).
    pub phase2_pivots: usize,
    /// Solves that re-entered from the previous entry's optimal basis
    /// instead of a cold start.
    pub warm_start_hits: usize,
    /// Basis-inverse refactorizations across all solves.
    pub refactorizations: usize,
    /// Basis updates (one per true pivot).
    pub basis_updates: usize,
    /// Peak stored nonzeros of any one solve's LU factorization (factors
    /// plus their updates). A *maximum*, not a sum: it bounds the basis
    /// memory any single solve needed.
    pub fill_in_nnz: usize,
}

impl LpWorkStats {
    /// Folds another counter set into this one. Deterministic regardless of
    /// fold order (plain integer sums), but callers fold by input index so
    /// intermediate states are reproducible too.
    pub fn absorb(&mut self, other: &LpWorkStats) {
        self.h_solves += other.h_solves;
        self.g_solves += other.g_solves;
        self.total_pivots += other.total_pivots;
        self.phase1_pivots += other.phase1_pivots;
        self.dual_pivots += other.dual_pivots;
        self.phase2_pivots += other.phase2_pivots;
        self.warm_start_hits += other.warm_start_hits;
        self.refactorizations += other.refactorizations;
        self.basis_updates += other.basis_updates;
        self.fill_in_nnz = self.fill_in_nnz.max(other.fill_in_nnz);
    }

    /// The counters as the primitive `u64` mirror used by release traces.
    pub fn to_summary(&self) -> rmdp_observe::LpSummary {
        rmdp_observe::LpSummary {
            h_solves: self.h_solves as u64,
            g_solves: self.g_solves as u64,
            total_pivots: self.total_pivots as u64,
            phase1_pivots: self.phase1_pivots as u64,
            dual_pivots: self.dual_pivots as u64,
            phase2_pivots: self.phase2_pivots as u64,
            warm_start_hits: self.warm_start_hits as u64,
            refactorizations: self.refactorizations as u64,
            basis_updates: self.basis_updates as u64,
            fill_in_nnz: self.fill_in_nnz as u64,
        }
    }

    fn absorb_solve(&mut self, family: SequenceFamily, stats: &SolveStats) {
        match family {
            SequenceFamily::H => self.h_solves += 1,
            SequenceFamily::G => self.g_solves += 1,
        }
        self.total_pivots += stats.total_iterations();
        self.phase1_pivots += stats.phase1_iterations;
        self.dual_pivots += stats.dual_iterations;
        self.phase2_pivots += stats.phase2_iterations;
        self.refactorizations += stats.refactorizations;
        self.basis_updates += stats.basis_updates;
        self.fill_in_nnz = self.fill_in_nnz.max(stats.fill_in_nnz);
        if stats.warm_started {
            self.warm_start_hits += 1;
        }
    }
}

/// What a later *refresh* needs to tell whether a data delta changed this
/// instantiation at all: the structural identity of the query its values
/// came from.
///
/// The seed is captured by [`EfficientSequences::refresh_seed`] and consumed
/// by [`FrozenSequences::refresh`](crate::cache::FrozenSequences::refresh),
/// which republishes the frozen values when the post-delta query has the
/// same fingerprint and rebuilds them cold otherwise (see [`RefreshTier`]).
#[derive(Clone, Debug)]
pub struct RefreshSeed {
    /// Fingerprint of (participants, terms): the full structural identity of
    /// the query the frozen values were computed from.
    pub(crate) terms_fingerprint: Fingerprint,
}

impl RefreshSeed {
    /// The tier a refresh to `query` takes: [`RefreshTier::Unchanged`] when
    /// `query` is structurally identical to the seeded one,
    /// [`RefreshTier::ColdRebuild`] otherwise.
    pub fn tier_for(&self, query: &SensitiveKRelation) -> RefreshTier {
        if query_terms_fingerprint(query) == self.terms_fingerprint {
            RefreshTier::Unchanged
        } else {
            RefreshTier::ColdRebuild
        }
    }
}

/// Which re-derivation tier a
/// [`FrozenSequences::refresh`](crate::cache::FrozenSequences::refresh)
/// took. Both tiers a refresh returns release bit-identically to a cold
/// recompute on the post-delta query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefreshTier {
    /// The post-delta query is structurally identical (same participants,
    /// same terms), so the frozen values are republished untouched — zero LP
    /// work. This happens when a delta touches a scanned table without
    /// changing what the query derives from it (e.g. every appended row is
    /// filtered out).
    Unchanged,
    /// No refresh returns this tier. It named a warm re-entry of the H
    /// chains from bases parked with the seed, which cost as many pivots as
    /// a cold rebuild once each family became one dual-simplex chain; it is
    /// kept only so code matching on the tier still compiles.
    WarmChain,
    /// Anything changed: everything was re-derived through the standard
    /// chains, exactly as a cold compute would.
    ColdRebuild,
}

/// The outcome of one refresh: the tier taken plus the LP work it cost.
#[derive(Clone, Copy, Debug)]
pub struct RefreshStats {
    /// The re-derivation tier taken.
    pub tier: RefreshTier,
    /// LP work the refresh performed ([`LpWorkStats::default`] for
    /// [`RefreshTier::Unchanged`]).
    pub lp: LpWorkStats,
}

/// Appends `expr` to `hasher` under an injective, structure-tagged encoding.
fn write_expr(hasher: &mut FingerprintHasher, expr: &Expr) {
    match expr {
        Expr::False => hasher.write_tag(0),
        Expr::True => hasher.write_tag(1),
        Expr::Var(p) => {
            hasher.write_tag(2);
            hasher.write_u64(p.index() as u64);
        }
        Expr::And(children) => {
            hasher.write_tag(3);
            hasher.write_u64(children.len() as u64);
            for c in children {
                write_expr(hasher, c);
            }
        }
        Expr::Or(children) => {
            hasher.write_tag(4);
            hasher.write_u64(children.len() as u64);
            for c in children {
                write_expr(hasher, c);
            }
        }
    }
}

/// Fingerprint of the full structural identity of `query`: the participant
/// list plus every (annotation, weight) term in order. Equal fingerprints ⇒
/// bit-identical sequence values (the whole pipeline is deterministic in
/// this data).
fn query_terms_fingerprint(query: &SensitiveKRelation) -> Fingerprint {
    let mut hasher = FingerprintHasher::new();
    hasher.write_u64(query.participants().len() as u64);
    for p in query.participants() {
        hasher.write_u64(p.index() as u64);
    }
    hasher.write_u64(query.terms().len() as u64);
    for (expr, weight) in query.terms() {
        write_expr(&mut hasher, expr);
        hasher.write_f64(*weight);
    }
    hasher.finish()
}

/// The LP-based instantiation of the recursive mechanism over a sensitive
/// K-relation: a producer of the complete `H`/`G` table.
///
/// The struct is the immutable LP-construction view — the query plus its
/// precomputed φ-sensitivities and solver options. Every chain builds its
/// own [`rmdp_lp::PreparedLp`] from this shared data (`&self` only), so the
/// struct is `Sync` and the H and G chains can run on two workers at once.
pub struct EfficientSequences {
    query: SensitiveKRelation,
    /// The participants some term names, in universe order: the mass
    /// variables of the reduced chains.
    named: Vec<ParticipantId>,
    /// The query's terms with structurally equal annotations merged into one
    /// term of summed weight, in first-occurrence order.
    distinct_terms: Vec<(Expr, f64)>,
    /// Solver options every entry LP is solved with.
    options: SimplexOptions,
}

/// Either a constant or an LP variable — the value of an encoded
/// sub-expression.
#[derive(Clone, Copy, Debug)]
enum Operand {
    Const(f64),
    Variable(Var),
}

impl EfficientSequences {
    /// Wraps a sensitive K-relation and derives the reduced LP's data: the
    /// distinct annotations with their summed weights, and the participants
    /// they name.
    pub fn new(query: SensitiveKRelation) -> Self {
        let mut slots: FxHashMap<&Expr, usize> = FxHashMap::default();
        let mut distinct_terms: Vec<(Expr, f64)> = Vec::new();
        for (expr, weight) in query.terms() {
            match slots.entry(expr) {
                Entry::Occupied(slot) => distinct_terms[*slot.get()].1 += weight,
                Entry::Vacant(slot) => {
                    slot.insert(distinct_terms.len());
                    distinct_terms.push((expr.clone(), *weight));
                }
            }
        }
        let mut used = FxHashSet::default();
        for (expr, _) in &distinct_terms {
            expr.collect_variables(&mut used);
        }
        let named = query
            .participants()
            .iter()
            .copied()
            .filter(|p| used.contains(p))
            .collect();
        EfficientSequences {
            query,
            named,
            distinct_terms,
            options: SimplexOptions::default(),
        }
    }

    /// Sets the LP solver options every entry is solved with.
    pub fn with_solver_options(mut self, options: SimplexOptions) -> Self {
        self.options = options;
        self
    }

    /// Captures a [`RefreshSeed`] for later delta refreshes: the query's
    /// structural fingerprint.
    pub fn refresh_seed(&self) -> RefreshSeed {
        RefreshSeed {
            terms_fingerprint: query_terms_fingerprint(&self.query),
        }
    }

    /// The wrapped query.
    pub fn query(&self) -> &SensitiveKRelation {
        &self.query
    }

    /// Solves the H chain and the G chain — on up to two workers of
    /// `parallelism`; serially H then G on the calling thread — and returns
    /// the complete table together with the LP work it cost.
    ///
    /// Each chain runs the same solves wherever it runs, so the table and
    /// the counters are bit-identical for every [`Parallelism`]. A failing
    /// step surfaces as [`MechanismError::SequenceLp`] naming the table
    /// entry it fills (`H_0` for `j = 0`, else `H_{j+k}` with `k` idle
    /// participants); when both chains fail, the `H` error is reported.
    pub fn solve_table(
        &self,
        parallelism: Parallelism,
    ) -> Result<(FrozenSequences, LpWorkStats), MechanismError> {
        let families = [SequenceFamily::H, SequenceFamily::G];
        let mut chains = par_try_map_indexed(parallelism, families.len(), |k| {
            self.solve_chain(families[k])
        })?;
        let (g, g_stats) = chains.pop().expect("two chains");
        let (h, mut stats) = chains.pop().expect("two chains");
        stats.absorb(&g_stats);
        Ok((FrozenSequences::from_entries(h, g, 2.0), stats))
    }

    /// The paper's **unreduced** LP of entry `i` of `family` — every raw
    /// term, every participant — as a fresh model, with the constant
    /// objective offset to add to its optimum (`H` terms whose annotation
    /// encodes to a constant; 0 for `G`). Solving it cold is the oracle the
    /// reduced chain is checked against.
    pub fn entry_model(&self, family: SequenceFamily, i: usize) -> (Model, f64) {
        Self::family_model(family, self.query.participants(), self.query.terms(), i)
    }

    /// The `family` LP at mass `i` over `participants` and `terms`, with its
    /// constant objective offset.
    fn family_model(
        family: SequenceFamily,
        participants: &[ParticipantId],
        terms: &[(Expr, f64)],
        i: usize,
    ) -> (Model, f64) {
        match family {
            SequenceFamily::H => Self::build_h_model(participants, terms, i),
            SequenceFamily::G => (Self::build_g_model(participants, terms, i), 0.0),
        }
    }

    /// Creates the per-participant variables `f_p ∈ [0,1]` and the mass
    /// constraint `Σ_p f_p = i`. The mass row is always the **first**
    /// constraint of the model (row 0), which is what lets a chain step the
    /// index with a single `set_rhs(0, i)`.
    fn add_participant_vars(
        participants: &[ParticipantId],
        model: &mut Model,
        i: usize,
    ) -> FxHashMap<ParticipantId, Var> {
        let mut f_vars = FxHashMap::default();
        for &p in participants {
            f_vars.insert(p, model.add_var(0.0, 1.0, 0.0));
        }
        if !f_vars.is_empty() {
            model.add_eq(f_vars.values().map(|&v| (v, 1.0)), i as f64);
        }
        f_vars
    }

    /// Recursively encodes `φ_expr` into the model, returning the operand
    /// holding its value.
    fn encode_expr(
        expr: &Expr,
        model: &mut Model,
        f_vars: &FxHashMap<ParticipantId, Var>,
    ) -> Operand {
        match expr {
            Expr::False => Operand::Const(0.0),
            Expr::True => Operand::Const(1.0),
            Expr::Var(p) => Operand::Variable(f_vars[p]),
            Expr::And(children) => {
                let mut const_sum = 0.0;
                let mut var_terms: Vec<Var> = Vec::with_capacity(children.len());
                for child in children {
                    match Self::encode_expr(child, model, f_vars) {
                        Operand::Const(c) => {
                            if c <= 0.0 {
                                return Operand::Const(0.0);
                            }
                            const_sum += c;
                        }
                        Operand::Variable(v) => var_terms.push(v),
                    }
                }
                let slack = children.len() as f64 - 1.0;
                if var_terms.is_empty() {
                    return Operand::Const((const_sum - slack).max(0.0));
                }
                // v ≥ Σ children − (n−1), v ≥ 0 — written as
                // Σ children − v ≤ (n−1) − const_sum so the row's slack can
                // serve as the initial basic variable (the all-slack cold
                // start stays feasible, keeping phase 1 small).
                let v = model.add_var(0.0, f64::INFINITY, 0.0);
                let mut terms: Vec<(Var, f64)> = Vec::with_capacity(var_terms.len() + 1);
                terms.push((v, -1.0));
                for x in var_terms {
                    terms.push((x, 1.0));
                }
                model.add_le(terms, slack - const_sum);
                Operand::Variable(v)
            }
            Expr::Or(children) => {
                let mut max_const = 0.0f64;
                let mut var_terms: Vec<Var> = Vec::with_capacity(children.len());
                for child in children {
                    match Self::encode_expr(child, model, f_vars) {
                        Operand::Const(c) => {
                            if c >= 1.0 {
                                return Operand::Const(1.0);
                            }
                            max_const = max_const.max(c);
                        }
                        Operand::Variable(v) => var_terms.push(v),
                    }
                }
                if var_terms.is_empty() {
                    return Operand::Const(max_const);
                }
                // v ≥ each child (written as child − v ≤ 0 so the slack forms
                // the initial basis); a nonzero constant child becomes the
                // lower bound of v.
                let v = model.add_var(max_const, f64::INFINITY, 0.0);
                for x in var_terms {
                    model.add_le([(x, 1.0), (v, -1.0)], 0.0);
                }
                Operand::Variable(v)
            }
        }
    }

    /// Builds the `H_i` family model at mass `i`, returning the model and
    /// the constant objective offset (terms whose annotation encodes to a
    /// constant). The offset is independent of `i`.
    fn build_h_model(
        participants: &[ParticipantId],
        terms: &[(Expr, f64)],
        i: usize,
    ) -> (Model, f64) {
        let mut model = Model::new(Sense::Minimize);
        let f_vars = Self::add_participant_vars(participants, &mut model, i);

        let mut constant_offset = 0.0;
        let mut objective_weights: FxHashMap<Var, f64> = FxHashMap::default();
        for (expr, weight) in terms {
            match Self::encode_expr(expr, &mut model, &f_vars) {
                Operand::Const(c) => constant_offset += weight * c,
                Operand::Variable(v) => *objective_weights.entry(v).or_insert(0.0) += weight,
            }
        }
        for (v, w) in objective_weights {
            model.set_objective(v, w);
        }
        (model, constant_offset)
    }

    /// Builds the `G_i` family model at mass `i`.
    fn build_g_model(participants: &[ParticipantId], terms: &[(Expr, f64)], i: usize) -> Model {
        let mut model = Model::new(Sense::Minimize);
        let f_vars = Self::add_participant_vars(participants, &mut model, i);

        // Encode every annotation once; remember its root operand.
        let roots: Vec<Operand> = terms
            .iter()
            .map(|(expr, _)| Self::encode_expr(expr, &mut model, &f_vars))
            .collect();

        // z dominates the weighted sums for every participant; objective 2z.
        let z = model.add_var(0.0, f64::INFINITY, 2.0);

        // Group the per-participant rows: z ≥ Σ_t q_t·S_{t,p}·φ_t.
        let mut per_participant: FxHashMap<ParticipantId, (Vec<(Var, f64)>, f64)> =
            FxHashMap::default();
        for (root, (expr, weight)) in roots.iter().zip(terms) {
            for (p, s) in phi_sensitivities(expr) {
                if s == 0.0 {
                    continue;
                }
                let coeff = weight * s;
                let entry = per_participant
                    .entry(p)
                    .or_insert_with(|| (Vec::new(), 0.0));
                match root {
                    Operand::Const(c) => entry.1 += coeff * c,
                    Operand::Variable(v) => entry.0.push((*v, coeff)),
                }
            }
        }
        for (_, (terms, constant)) in per_participant {
            // Σ coeff·v + constant ≤ z  ⇔  Σ coeff·v − z ≤ −constant.
            let mut row = terms;
            row.push((z, -1.0));
            model.add_le(row, -constant);
        }
        model
    }

    /// Solves one whole family on the reduced LP as a warm-started chain:
    /// the family is standardized once, each later step moves the mass row
    /// with `set_rhs(0, j)` and re-enters from the previous optimal basis,
    /// for `j = 0..=|P_named|`. Step `j` fills table entry `H_0 … H_k` (for
    /// `j = 0`) or `H_{j+k}`, where `k` participants are idle; a failure
    /// discards the chain and names the first entry the failing step fills.
    fn solve_chain(
        &self,
        family: SequenceFamily,
    ) -> Result<(Vec<f64>, LpWorkStats), MechanismError> {
        let idle = self.query.num_participants() - self.named.len();
        let (model, offset) = Self::family_model(family, &self.named, &self.distinct_terms, 0);
        let has_mass_row = !self.named.is_empty();
        let mut prepared = model
            .prepare()
            .map_err(|e| MechanismError::sequence_lp(family, 0, e))?;

        let mut values = Vec::with_capacity(self.query.num_participants() + 1);
        let mut stats = LpWorkStats::default();
        let mut basis: Option<Basis> = None;
        for j in 0..=self.named.len() {
            let (entry, copies) = if j == 0 { (0, idle + 1) } else { (j + idle, 1) };
            if has_mass_row {
                prepared.set_rhs(0, j as f64);
            }
            let solved = match &basis {
                None => prepared.solve(&self.options),
                Some(b) => prepared.solve_warm(b, &self.options),
            }
            .map_err(|e| MechanismError::sequence_lp(family, entry, e))?;
            values.extend(std::iter::repeat_n(
                solved.solution.objective + offset,
                copies,
            ));
            stats.absorb_solve(family, &solved.solution.stats);
            basis = Some(solved.basis);
        }
        Ok((values, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CachedSequences;
    use crate::general::GeneralSequences;
    use crate::mechanism::RecursiveMechanism;
    use crate::params::MechanismParams;
    use crate::sequences::{
        validate_bounding_property, validate_convexity, validate_monotone_start_at_zero,
        validate_recursive_monotonicity,
    };
    use crate::subgraph::{PrivacyUnit, SubgraphCounter};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rmdp_graph::{generators, Pattern};
    use rmdp_krelation::{KRelation, Tuple};

    fn p(i: u32) -> ParticipantId {
        ParticipantId(i)
    }

    /// The triangle K-relation of Fig. 2(a) under node privacy: triangles
    /// abc, bcd, cde over participants a..e (= 0..4).
    fn fig2a() -> SensitiveKRelation {
        let mut r = KRelation::new(["t"]);
        r.insert(
            Tuple::new([("t", "abc")]),
            Expr::conjunction_of_vars([p(0), p(1), p(2)]),
        );
        r.insert(
            Tuple::new([("t", "bcd")]),
            Expr::conjunction_of_vars([p(1), p(2), p(3)]),
        );
        r.insert(
            Tuple::new([("t", "cde")]),
            Expr::conjunction_of_vars([p(2), p(3), p(4)]),
        );
        SensitiveKRelation::counting(&r)
    }

    /// The number of participants some term of `query` names.
    fn named_participants(query: &SensitiveKRelation) -> usize {
        let mut used = FxHashSet::default();
        for (expr, _) in query.terms() {
            expr.collect_variables(&mut used);
        }
        used.len()
    }

    /// The serial table and its LP work.
    fn solve(query: SensitiveKRelation) -> (FrozenSequences, LpWorkStats) {
        EfficientSequences::new(query)
            .solve_table(Parallelism::Serial)
            .unwrap()
    }

    #[test]
    fn h_endpoints_match_the_definition() {
        let (table, _) = solve(fig2a());
        let h = table.h_entries();
        assert!((h[0] - 0.0).abs() < 1e-7);
        assert!((h[5] - 3.0).abs() < 1e-7, "H_|P| must be the true answer");
        assert_eq!(table.num_participants(), 5);
        assert_eq!(table.bounding_factor(), 2.0);
    }

    #[test]
    fn h_matches_hand_computed_values_on_fig2a() {
        let (table, _) = solve(fig2a());
        let h = table.h_entries();
        // Dropping node c (f_c = 0, all others 1) kills every triangle.
        assert!((h[4] - 0.0).abs() < 1e-7);
        assert!(h[4] <= h[5]);
        // Fractional relaxation can only lower the subset-based minimum.
        let general = GeneralSequences::build(&fig2a()).unwrap();
        for (i, (&relaxed, &subset_min)) in h.iter().zip(general.h_entries()).enumerate() {
            assert!(
                relaxed <= subset_min + 1e-7,
                "H_{i}: relaxed {relaxed} > subset minimum {subset_min}"
            );
        }
    }

    #[test]
    fn sequences_satisfy_defining_properties_on_fig2a() {
        let (table, _) = solve(fig2a());
        validate_monotone_start_at_zero(table.h_entries()).unwrap();
        validate_monotone_start_at_zero(table.g_entries()).unwrap();
        validate_convexity(table.h_entries()).unwrap();
        validate_bounding_property(&table).unwrap();
    }

    #[test]
    fn g_full_is_bounded_by_twice_s_times_universal_sensitivity() {
        let query = fig2a();
        let bound = 2.0 * query.max_phi_sensitivity() * query.universal_sensitivity();
        let (table, _) = solve(query);
        let g_full = table.g_entries()[5];
        assert!(
            g_full <= bound + 1e-7,
            "G_|P| = {g_full} exceeds 2·S·ŨS = {bound}"
        );
        assert!(g_full > 0.0);
    }

    #[test]
    fn recursive_monotonicity_across_neighbouring_krelations() {
        // The neighbour without participant e (p4): annotations restricted
        // with p4 → False, support loses the cde triangle.
        let larger = fig2a();
        let mut smaller_terms = Vec::new();
        for (e, w) in larger.terms() {
            let restricted = e.restrict(p(4), false);
            smaller_terms.push((restricted, *w));
        }
        let smaller = SensitiveKRelation::from_terms((0..4).map(p).collect(), smaller_terms);
        assert_eq!(smaller.true_answer(), 2.0);

        let (small, _) = solve(smaller);
        let (large, _) = solve(larger);
        validate_recursive_monotonicity(&small, &large).unwrap();
    }

    #[test]
    fn or_annotations_are_encoded_correctly() {
        // Two participants can each independently support the same tuple:
        // R(t) = p0 ∨ p1, plus a second tuple requiring both.
        let terms = vec![
            (Expr::or2(Expr::var(p(0)), Expr::var(p(1))), 1.0),
            (Expr::conjunction_of_vars([p(0), p(1)]), 1.0),
        ];
        let query = SensitiveKRelation::from_terms(vec![p(0), p(1)], terms);
        let (table, _) = solve(query);
        let h = table.h_entries();
        // |f| = 1: the minimiser splits 0.5/0.5: φ_or = 0.5, φ_and = 0 ⇒ 0.5.
        assert!((h[1] - 0.5).abs() < 1e-7);
        assert!((h[2] - 2.0).abs() < 1e-7);
        assert!((h[0] - 0.0).abs() < 1e-7);
    }

    #[test]
    fn cnf_annotations_have_larger_phi_sensitivity_and_valid_sequences() {
        // (p0 ∨ p1) ∧ (p0 ∨ p2): S_{k,p0} = 2.
        let terms = vec![(
            Expr::and2(
                Expr::or2(Expr::var(p(0)), Expr::var(p(1))),
                Expr::or2(Expr::var(p(0)), Expr::var(p(2))),
            ),
            1.0,
        )];
        let query = SensitiveKRelation::from_terms((0..3).map(p).collect(), terms);
        assert_eq!(query.max_phi_sensitivity(), 2.0);
        let (table, _) = solve(query);
        assert!((table.h_entries()[3] - 1.0).abs() < 1e-7);
        validate_monotone_start_at_zero(table.h_entries()).unwrap();
        validate_bounding_property(&table).unwrap();
    }

    #[test]
    fn constant_true_annotations_contribute_a_constant_offset() {
        let terms = vec![(Expr::True, 2.5), (Expr::var(p(0)), 1.0)];
        let query = SensitiveKRelation::from_terms(vec![p(0)], terms);
        let (table, _) = solve(query);
        assert!((table.h_entries()[0] - 2.5).abs() < 1e-7);
        assert!((table.h_entries()[1] - 3.5).abs() < 1e-7);
        // A True annotation depends on no participant, so G stays 1·2 at most
        // (driven only by the p0 tuple).
        assert!(table.g_entries()[1] <= 2.0 + 1e-7);
    }

    #[test]
    fn end_to_end_release_on_fig2a() {
        let (table, _) = solve(fig2a());
        let mut mech =
            RecursiveMechanism::new(table.into(), MechanismParams::paper_node_privacy(1.0))
                .unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let releases = mech.release_many(30, &mut rng).unwrap();
        for r in &releases {
            assert_eq!(r.true_answer, 3.0);
            assert!(r.x <= 3.0 + 1e-7, "X must never exceed the true answer");
            assert!(r.noisy_answer.is_finite());
        }
        // Δ is determined by G and the ladder; for this tiny relation it is
        // a small constant ≥ θ = 1.
        let delta = mech.delta();
        assert!((1.0..20.0).contains(&delta), "Δ = {delta}");
    }

    #[test]
    fn parallel_tables_are_bit_identical_to_serial() {
        let (serial, serial_stats) = solve(fig2a());
        assert_eq!(serial_stats.h_solves, 6);
        assert_eq!(serial_stats.g_solves, 6);
        // More workers than chains included: the extra ones stay idle.
        for workers in [2usize, 3, 8] {
            let (parallel, stats) = EfficientSequences::new(fig2a())
                .solve_table(Parallelism::Threads(workers))
                .unwrap();
            // Bitwise equality, not tolerance: both paths run the exact same
            // deterministic chains.
            assert_eq!(parallel, serial, "{workers} workers");
            assert_eq!(stats, serial_stats, "{workers} workers");
        }
    }

    #[test]
    fn parallel_params_release_matches_serial_release_bit_for_bit() {
        let serial_params = MechanismParams::paper_node_privacy(1.0);
        let parallel_params = serial_params.with_parallelism(Parallelism::Threads(4));
        let mechanism = |params: MechanismParams| {
            let (table, _) = EfficientSequences::new(fig2a())
                .solve_table(params.parallelism)
                .unwrap();
            RecursiveMechanism::new(CachedSequences::from(table), params).unwrap()
        };
        let a = mechanism(serial_params)
            .release_many(5, &mut StdRng::seed_from_u64(42))
            .unwrap();
        let b = mechanism(parallel_params)
            .release_many(5, &mut StdRng::seed_from_u64(42))
            .unwrap();
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.noisy_answer, rb.noisy_answer);
            assert_eq!(ra.delta, rb.delta);
            assert_eq!(ra.delta_hat, rb.delta_hat);
            assert_eq!(ra.x, rb.x);
            assert_eq!(ra.argmin_index, rb.argmin_index);
        }
    }

    #[test]
    fn general_and_efficient_agree_on_the_true_answer_and_h0() {
        let query = fig2a();
        let (eff, _) = solve(query.clone());
        let gen = GeneralSequences::build(&query).unwrap();
        assert!((eff.h_entries()[5] - gen.h_entries()[5]).abs() < 1e-7);
        assert!((eff.h_entries()[0] - gen.h_entries()[0]).abs() < 1e-7);
    }

    /// The fig-4 workload shapes at unit-test scale: triangles and 2-stars
    /// under node privacy on a small G(n, p) graph.
    fn fig4_relation(pattern: Pattern) -> SensitiveKRelation {
        let mut rng = StdRng::seed_from_u64(31);
        let graph = generators::gnp_average_degree(16, 5.0, &mut rng);
        SubgraphCounter::new(
            pattern,
            PrivacyUnit::Node,
            MechanismParams::paper_node_privacy(1.0),
        )
        .build_sensitive_relation(&graph)
    }

    #[test]
    fn warm_chains_match_the_dense_oracle_on_fig4_entry_models() {
        // Differential test on the *real* sequence models: every H_i/G_i
        // value produced by the warm-started revised chain must match a cold
        // dense-tableau solve of the same entry model.
        for pattern in [Pattern::triangle(), Pattern::k_star(2)] {
            let seq = EfficientSequences::new(fig4_relation(pattern));
            let (table, _) = seq.solve_table(Parallelism::Serial).unwrap();
            for family in [SequenceFamily::H, SequenceFamily::G] {
                let chain = match family {
                    SequenceFamily::H => table.h_entries(),
                    SequenceFamily::G => table.g_entries(),
                };
                for (i, &value) in chain.iter().enumerate() {
                    let (model, offset) = seq.entry_model(family, i);
                    let dense = rmdp_lp::simplex::solve_dense(&model, &SimplexOptions::default())
                        .unwrap()
                        .objective
                        + offset;
                    assert!(
                        (value - dense).abs() < 1e-6,
                        "{family}_{i}: chain {value} vs dense {dense}"
                    );
                }
            }
        }
    }

    #[test]
    fn warm_chains_solve_the_full_family_with_fewer_pivots_than_cold() {
        for pattern in [Pattern::triangle(), Pattern::k_star(2)] {
            let seq = EfficientSequences::new(fig4_relation(pattern.clone()));
            let (table, chained) = seq.solve_table(Parallelism::Serial).unwrap();
            let mut cold_pivots = 0;
            for family in [SequenceFamily::H, SequenceFamily::G] {
                let chain = match family {
                    SequenceFamily::H => table.h_entries(),
                    SequenceFamily::G => table.g_entries(),
                };
                for (i, &value) in chain.iter().enumerate() {
                    let (model, offset) = seq.entry_model(family, i);
                    let cold = model
                        .prepare()
                        .unwrap()
                        .solve(&SimplexOptions::default())
                        .unwrap()
                        .solution;
                    assert!(!cold.stats.warm_started);
                    assert!((value - (cold.objective + offset)).abs() < 1e-6);
                    cold_pivots += cold.stats.total_iterations();
                }
            }
            assert!(chained.warm_start_hits > 0);
            assert!(
                chained.total_pivots < cold_pivots,
                "{}: chain {} pivots vs cold {cold_pivots}",
                pattern.name(),
                chained.total_pivots,
            );
        }
    }

    #[test]
    fn whole_family_chains_reenter_through_the_dual_simplex() {
        for pattern in [Pattern::triangle(), Pattern::k_star(2)] {
            let query = fig4_relation(pattern.clone());
            let named = named_participants(&query);
            let (_, stats) = solve(query);
            // One chain per family over the named participants: only the two
            // `j = 0` steps start cold.
            assert_eq!(stats.warm_start_hits, 2 * named, "{}", pattern.name());
            assert_eq!(stats.phase1_pivots, 0, "{}", pattern.name());
            assert!(stats.dual_pivots > 0, "{}", pattern.name());
            // The dual keeps every basis dual feasible, so a warm entry
            // is optimal the moment it is primal feasible; the cold
            // `i = 0` entries start optimal too.
            assert_eq!(stats.phase2_pivots, 0, "{}", pattern.name());
            assert_eq!(
                stats.total_pivots,
                stats.phase1_pivots + stats.dual_pivots + stats.phase2_pivots
            );
        }
    }

    /// Fig. 2(a) over a universe with `idle` extra participants that no
    /// term names.
    fn fig2a_with_idle(idle: u32) -> SensitiveKRelation {
        SensitiveKRelation::from_terms((0..5 + idle).map(p).collect(), fig2a().terms().to_vec())
    }

    #[test]
    fn an_all_idle_relation_is_one_lp_per_chain() {
        // No term names a participant, so both chains are the single j = 0
        // step, copied across all |P| + 1 entries.
        let terms = vec![(Expr::True, 2.0), (Expr::True, 0.5)];
        let query = SensitiveKRelation::from_terms((0..4).map(p).collect(), terms);
        let (table, stats) = solve(query);
        assert_eq!(table.h_entries(), &[2.5; 5]);
        assert_eq!(table.g_entries(), &[0.0; 5]);
        assert_eq!((stats.h_solves, stats.g_solves), (1, 1));
    }

    #[test]
    fn idle_participants_shift_the_table_by_their_count() {
        let (base, base_stats) = solve(fig2a());
        for idle in [1u32, 3] {
            let k = idle as usize;
            let (table, stats) = solve(fig2a_with_idle(idle));
            assert_eq!(table.num_participants(), 5 + k);
            // The same reduced chains run, so the table is the base table
            // with H_0/G_0 repeated k more times — bit for bit.
            assert_eq!(stats, base_stats, "{idle} idle");
            for i in 0..=5 + k {
                let j = i.saturating_sub(k);
                assert_eq!(table.h_entries()[i], base.h_entries()[j], "H_{i}");
                assert_eq!(table.g_entries()[i], base.g_entries()[j], "G_{i}");
            }
        }
    }

    #[test]
    fn chain_failures_name_the_failing_entry() {
        let failure = |query: SensitiveKRelation, max_iterations: usize, parallelism| {
            let seq = EfficientSequences::new(query).with_solver_options(SimplexOptions {
                max_iterations,
                ..SimplexOptions::default()
            });
            match seq.solve_table(parallelism) {
                Err(MechanismError::SequenceLp { family, index, .. }) => (family, index),
                other => panic!("expected a named SequenceLp error, got {other:?}"),
            }
        };
        for parallelism in [Parallelism::Serial, Parallelism::Threads(2)] {
            // An unsatisfiable iteration budget fails the j = 0 step of both
            // chains; the table reports the H chain's, as `H_0`, however
            // many entries that step fills.
            for idle in [0u32, 2] {
                assert_eq!(
                    failure(fig2a_with_idle(idle), 0, parallelism),
                    (SequenceFamily::H, 0),
                    "{idle} idle"
                );
            }
            // A one-pivot budget fails a later step j of the same reduced
            // chain, which fills entry j + k when k participants are idle.
            let (family, j) = failure(fig2a(), 1, parallelism);
            assert!(j >= 1, "the j = 0 steps need no pivot");
            for idle in [1u32, 3] {
                assert_eq!(
                    failure(fig2a_with_idle(idle), 1, parallelism),
                    (family, j + idle as usize),
                    "{idle} idle"
                );
            }
        }
    }
}
