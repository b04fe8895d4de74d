//! K-relations: relations whose tuples carry positive Boolean annotations.
//!
//! A K-relation over attribute set `U` is a function `R : U-Tup → K` with
//! finite support (paper Sec. 2.4). Here `K` is the set of positive Boolean
//! expressions over participant variables, so `R(t)` states under which
//! participant subsets the tuple `t` is present — exactly the c-table special
//! case the paper builds its efficient mechanism on.

use crate::expr::Expr;
use crate::hash::{FxHashMap, FxHashSet};
use crate::participant::ParticipantId;
use crate::tuple::{Attr, Tuple};
use std::collections::hash_map::Entry;
use std::collections::BTreeSet;
use std::fmt;

/// A relation annotated with positive Boolean provenance expressions.
///
/// Tuples annotated with `False` are not stored: the support
/// `supp(R) = {t | R(t) ≠ False}` is exactly the stored tuple set.
#[derive(Clone, Default)]
pub struct KRelation {
    schema: BTreeSet<Attr>,
    tuples: FxHashMap<Tuple, Expr>,
}

impl KRelation {
    /// An empty relation over the given schema.
    pub fn new<I, A>(schema: I) -> Self
    where
        I: IntoIterator<Item = A>,
        A: Into<Attr>,
    {
        KRelation {
            schema: schema.into_iter().map(Into::into).collect(),
            tuples: FxHashMap::default(),
        }
    }

    /// An empty relation with an empty schema (useful as a unit for joins).
    pub fn empty() -> Self {
        KRelation::default()
    }

    /// The schema (attribute set `U`).
    pub fn schema(&self) -> &BTreeSet<Attr> {
        &self.schema
    }

    /// Inserts a tuple with an annotation. If the tuple is already present the
    /// annotations are combined with `∨` (the semiring `+` of the Boolean
    /// expression semiring), matching the union/projection semantics of
    /// positive relational algebra.
    pub fn insert(&mut self, tuple: Tuple, annotation: Expr) {
        if annotation.is_false() {
            return;
        }
        for a in tuple.attrs() {
            if !self.schema.contains(a) {
                self.schema.insert(a.clone());
            }
        }
        match self.tuples.entry(tuple) {
            Entry::Occupied(mut slot) => {
                let existing = slot.get_mut();
                *existing = Expr::or2(std::mem::replace(existing, Expr::False), annotation);
            }
            Entry::Vacant(slot) => {
                slot.insert(annotation);
            }
        }
    }

    /// Inserts a tuple whose presence is unconditional.
    pub fn insert_certain(&mut self, tuple: Tuple) {
        self.insert(tuple, Expr::True);
    }

    /// The annotation `R(t)`; `False` when the tuple is not in the support.
    pub fn annotation(&self, tuple: &Tuple) -> Expr {
        self.tuples.get(tuple).cloned().unwrap_or(Expr::False)
    }

    /// Whether the tuple is in the support.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.tuples.contains_key(tuple)
    }

    /// Size of the support `|supp(R)|`.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the support is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Iterates over `(tuple, annotation)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, &Expr)> + '_ {
        self.tuples.iter()
    }

    /// Iterates over the support tuples.
    pub fn support(&self) -> impl Iterator<Item = &Tuple> + '_ {
        self.tuples.keys()
    }

    /// The annotations in unspecified order.
    pub fn annotations(&self) -> impl Iterator<Item = &Expr> + '_ {
        self.tuples.values()
    }

    /// All participants mentioned by any annotation.
    pub fn participants(&self) -> FxHashSet<ParticipantId> {
        let mut out = FxHashSet::default();
        for e in self.tuples.values() {
            e.collect_variables(&mut out);
        }
        out
    }

    /// Total length `L` of all annotations (number of variable occurrences),
    /// the size parameter of the paper's complexity bounds (Sec. 5.3).
    pub fn total_annotation_length(&self) -> usize {
        self.tuples.values().map(Expr::len).sum()
    }

    /// The relation obtained when participant `p` withdraws: every annotation
    /// is restricted with `p → False`; tuples whose annotation collapses to
    /// `False` drop out of the support.
    pub fn without_participant(&self, p: ParticipantId) -> KRelation {
        let mut out = KRelation::new(self.schema.iter().cloned());
        for (t, e) in &self.tuples {
            let restricted = e.restrict(p, false);
            if !restricted.is_false() {
                out.insert(t.clone(), restricted);
            }
        }
        out
    }

    /// The content of the relation when exactly the participants in `present`
    /// contribute: annotations are evaluated as Boolean expressions, tuples
    /// evaluating to `False` are dropped, the rest become certain.
    pub fn instantiate(&self, present: &FxHashSet<ParticipantId>) -> KRelation {
        let mut out = KRelation::new(self.schema.iter().cloned());
        for (t, e) in &self.tuples {
            if e.evaluate(&|p| present.contains(&p)) {
                out.insert_certain(t.clone());
            }
        }
        out
    }

    /// The tuples whose annotation mentions participant `p` in a way that is
    /// not removable, i.e. `R(t)` is not φ-equivalent to `R(t)|_{p→False}`.
    ///
    /// This is the *impact* of `p` at `R` (Def. 15). The φ-equivalence test is
    /// conservative and syntactic: an annotation counts as impacted when `p`
    /// occurs in it and the restriction changes the expression. For the
    /// annotations produced by positive relational algebra and subgraph
    /// counting this coincides with the definition.
    pub fn impact(&self, p: ParticipantId) -> Vec<&Tuple> {
        self.tuples
            .iter()
            .filter(|(_, e)| {
                if !e.contains_var(p) {
                    return false;
                }
                e.restrict(p, false) != **e
            })
            .map(|(t, _)| t)
            .collect()
    }
}

impl fmt::Debug for KRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "KRelation({} tuples) {{", self.tuples.len())?;
        let mut rows: Vec<String> = self
            .tuples
            .iter()
            .map(|(t, e)| format!("  {t} ↦ {e}"))
            .collect();
        rows.sort();
        for row in rows {
            writeln!(f, "{row}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<(Tuple, Expr)> for KRelation {
    fn from_iter<I: IntoIterator<Item = (Tuple, Expr)>>(iter: I) -> Self {
        let mut r = KRelation::empty();
        for (t, e) in iter {
            r.insert(t, e);
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ParticipantId {
        ParticipantId(i)
    }

    fn tup(name: &str) -> Tuple {
        Tuple::new([("t", name)])
    }

    #[test]
    fn insert_merges_duplicate_tuples_with_or() {
        let mut r = KRelation::new(["t"]);
        r.insert(tup("x"), Expr::var(p(0)));
        r.insert(tup("x"), Expr::var(p(1)));
        assert_eq!(r.len(), 1);
        assert_eq!(
            r.annotation(&tup("x")),
            Expr::or2(Expr::var(p(0)), Expr::var(p(1)))
        );
    }

    #[test]
    fn false_annotations_are_not_stored() {
        let mut r = KRelation::new(["t"]);
        r.insert(tup("x"), Expr::False);
        assert!(r.is_empty());
        assert_eq!(r.annotation(&tup("x")), Expr::False);
    }

    #[test]
    fn participants_and_length_are_collected() {
        let mut r = KRelation::new(["t"]);
        r.insert(tup("x"), Expr::conjunction_of_vars([p(0), p(1), p(2)]));
        r.insert(tup("y"), Expr::conjunction_of_vars([p(1), p(2), p(3)]));
        assert_eq!(r.participants().len(), 4);
        assert_eq!(r.total_annotation_length(), 6);
    }

    #[test]
    fn without_participant_drops_dependent_tuples() {
        let mut r = KRelation::new(["t"]);
        r.insert(tup("abc"), Expr::conjunction_of_vars([p(0), p(1), p(2)]));
        r.insert(tup("bcd"), Expr::conjunction_of_vars([p(1), p(2), p(3)]));
        let without_a = r.without_participant(p(0));
        assert_eq!(without_a.len(), 1);
        assert!(without_a.contains(&tup("bcd")));
    }

    #[test]
    fn instantiate_evaluates_annotations() {
        let mut r = KRelation::new(["t"]);
        r.insert(tup("ab"), Expr::conjunction_of_vars([p(0), p(1)]));
        r.insert(
            tup("bc"),
            Expr::and(vec![
                Expr::var(p(1)),
                Expr::var(p(2)),
                Expr::or2(Expr::var(p(0)), Expr::var(p(3))),
            ]),
        );
        let present: FxHashSet<ParticipantId> = [p(1), p(2), p(3)].into_iter().collect();
        let inst = r.instantiate(&present);
        assert_eq!(inst.len(), 1);
        assert!(inst.contains(&tup("bc")));
        assert!(inst.annotation(&tup("bc")).is_true());
    }

    #[test]
    fn impact_counts_tuples_mentioning_participant() {
        let mut r = KRelation::new(["t"]);
        r.insert(tup("abc"), Expr::conjunction_of_vars([p(0), p(1), p(2)]));
        r.insert(tup("bcd"), Expr::conjunction_of_vars([p(1), p(2), p(3)]));
        r.insert(tup("cde"), Expr::conjunction_of_vars([p(2), p(3), p(4)]));
        assert_eq!(r.impact(p(0)).len(), 1);
        assert_eq!(r.impact(p(2)).len(), 3);
        assert_eq!(r.impact(p(9)).len(), 0);
    }

    #[test]
    fn schema_grows_with_inserted_tuples() {
        let mut r = KRelation::empty();
        r.insert(Tuple::new([("a", 1i64), ("b", 2i64)]), Expr::True);
        assert_eq!(r.schema().len(), 2);
        assert!(r.schema().contains(&Attr::new("a")));
    }

    #[test]
    fn from_iterator_collects() {
        let r: KRelation = [
            (tup("x"), Expr::var(p(0))),
            (tup("y"), Expr::var(p(1))),
            (tup("x"), Expr::var(p(2))),
        ]
        .into_iter()
        .collect();
        assert_eq!(r.len(), 2);
    }
}
