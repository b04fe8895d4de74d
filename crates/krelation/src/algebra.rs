//! Positive relational algebra over K-relations.
//!
//! The operations follow Green, Karvounarakis and Tannen's provenance
//! semirings (paper Sec. 2.4), specialised to the semiring of positive
//! Boolean expressions where `+` is `∨` and `·` is `∧`:
//!
//! * union: `(R₁ ∪ R₂)(t) = R₁(t) ∨ R₂(t)`
//! * projection: `(π_V R)(t) = ∨ { R(t') | t' agrees with t on V }`
//! * selection: `(σ_P R)(t) = R(t) ∧ P(t)` with `P(t) ∈ {⊥, ⊤}`
//! * natural join: `(R₁ ⋈ R₂)(t) = R₁(t|U₁) ∧ R₂(t|U₂)`
//! * renaming: `(ρ_β R)(t) = R(t ∘ β)`
//!
//! Cartesian product and intersection are the disjoint-schema and
//! equal-schema special cases of the natural join. Difference is *not*
//! provided: it is not part of positive relational algebra and would break
//! the monotonicity the mechanism relies on.
//!
//! These operators are the reason the mechanism supports **unrestricted
//! joins**: a join multiplies annotations, so a single participant's variable
//! can end up in arbitrarily many output annotations — the empirical
//! sensitivity machinery of the mechanism absorbs exactly this.

use crate::expr::Expr;
use crate::relation::KRelation;
use crate::tuple::{Attr, Tuple};
use std::collections::BTreeSet;

/// Union of two K-relations (annotations combined with `∨`).
pub fn union(r1: &KRelation, r2: &KRelation) -> KRelation {
    let mut schema: BTreeSet<Attr> = r1.schema().clone();
    schema.extend(r2.schema().iter().cloned());
    let mut out = KRelation::new(schema);
    for (t, e) in r1.iter().chain(r2.iter()) {
        out.insert(t.clone(), e.clone());
    }
    out
}

/// Projection of a K-relation onto attribute set `attrs` (annotations of
/// tuples with the same image are combined with `∨`).
pub fn project<'a, I>(r: &KRelation, attrs: I) -> KRelation
where
    I: IntoIterator<Item = &'a Attr>,
{
    let keep: BTreeSet<Attr> = attrs.into_iter().cloned().collect();
    let mut out = KRelation::new(keep.iter().cloned());
    for (t, e) in r.iter() {
        out.insert(t.project(keep.iter()), e.clone());
    }
    out
}

/// Selection by a tuple predicate (annotation kept iff the predicate holds).
pub fn select<F>(r: &KRelation, predicate: F) -> KRelation
where
    F: Fn(&Tuple) -> bool,
{
    let mut out = KRelation::new(r.schema().iter().cloned());
    for (t, e) in r.iter() {
        if predicate(t) {
            out.insert(t.clone(), e.clone());
        }
    }
    out
}

/// Natural join of two K-relations (annotations combined with `∧`).
///
/// Tuples join when they agree on all shared attributes. A hash join on the
/// shared attributes keeps the cost close to the output size.
pub fn natural_join(r1: &KRelation, r2: &KRelation) -> KRelation {
    use crate::hash::FxHashMap;

    let shared: Vec<Attr> = r1.schema().intersection(r2.schema()).cloned().collect();

    let mut schema: BTreeSet<Attr> = r1.schema().clone();
    schema.extend(r2.schema().iter().cloned());
    let mut out = KRelation::new(schema);

    // Build side: index r2 by its key on the shared attributes.
    let mut index: FxHashMap<Tuple, Vec<(&Tuple, &Expr)>> = FxHashMap::default();
    for (t, e) in r2.iter() {
        index
            .entry(t.project(shared.iter()))
            .or_default()
            .push((t, e));
    }

    for (t1, e1) in r1.iter() {
        let key = t1.project(shared.iter());
        if let Some(matches) = index.get(&key) {
            for (t2, e2) in matches {
                if let Some(joined) = t1.join(t2) {
                    out.insert(joined, Expr::and2(e1.clone(), (*e2).clone()));
                }
            }
        }
    }
    out
}

/// Cartesian product (natural join of relations with disjoint schemas).
pub fn product(r1: &KRelation, r2: &KRelation) -> KRelation {
    natural_join(r1, r2)
}

/// Intersection (natural join of relations with identical schemas).
pub fn intersect(r1: &KRelation, r2: &KRelation) -> KRelation {
    natural_join(r1, r2)
}

/// Equi-join on explicit attribute pairs (annotations combined with `∧`).
///
/// `on` lists `(left, right)` attribute pairs; a tuple of `r1` joins a tuple
/// of `r2` when `t1[left] = t2[right]` for every pair. Unlike
/// [`natural_join`] the joined attributes keep their distinct names, so
/// callers (e.g. a SQL planner joining `v1.person = r1.person` over aliased
/// scans) do not have to rename both sides into a shared name first. Shared
/// attribute names outside `on` must still agree for tuples to merge.
pub fn equi_join_on(r1: &KRelation, r2: &KRelation, on: &[(Attr, Attr)]) -> KRelation {
    theta_join(r1, r2, on, |_| true)
}

/// Theta-join: an [`equi_join_on`] hash join followed by an arbitrary
/// residual predicate over the merged tuple (annotation kept iff the
/// predicate holds — the `σ_P(R₁ ⋈ R₂)` composition done in one pass).
///
/// Tuples lacking one of the `on` attributes never join. With `on` empty this
/// degenerates to a filtered Cartesian product over distinct schemas.
pub fn theta_join<F>(r1: &KRelation, r2: &KRelation, on: &[(Attr, Attr)], residual: F) -> KRelation
where
    F: Fn(&Tuple) -> bool,
{
    use crate::hash::FxHashMap;
    use crate::tuple::Value;

    let mut schema: BTreeSet<Attr> = r1.schema().clone();
    schema.extend(r2.schema().iter().cloned());
    let mut out = KRelation::new(schema);

    // Build side: index r2 by its values on the right-hand join attributes.
    let mut index: FxHashMap<Vec<Value>, Vec<(&Tuple, &Expr)>> = FxHashMap::default();
    for (t, e) in r2.iter() {
        let key: Option<Vec<Value>> = on.iter().map(|(_, b)| t.get(b).cloned()).collect();
        if let Some(key) = key {
            index.entry(key).or_default().push((t, e));
        }
    }

    // Probe side: one key buffer, refilled per left tuple.
    let mut key: Vec<Value> = Vec::with_capacity(on.len());
    'probe: for (t1, e1) in r1.iter() {
        key.clear();
        for (a, _) in on {
            match t1.get(a) {
                Some(v) => key.push(v.clone()),
                None => continue 'probe,
            }
        }
        if let Some(matches) = index.get(key.as_slice()) {
            for (t2, e2) in matches {
                if let Some(joined) = t1.join(t2) {
                    if residual(&joined) {
                        out.insert(joined, Expr::and2(e1.clone(), (*e2).clone()));
                    }
                }
            }
        }
    }
    out
}

/// Renaming of attributes. `mapping(a)` gives the new name of attribute `a`;
/// unmapped attributes keep their names. The mapping must stay injective on
/// the schema.
pub fn rename<F>(r: &KRelation, mapping: F) -> KRelation
where
    F: Fn(&Attr) -> Attr,
{
    let mut out = KRelation::new(r.schema().iter().map(&mapping));
    for (t, e) in r.iter() {
        out.insert(t.rename(&mapping), e.clone());
    }
    out
}

/// Renames a single attribute, a common convenience for self-joins.
pub fn rename_attr(r: &KRelation, from: &str, to: &str) -> KRelation {
    let from = Attr::new(from);
    let to = Attr::new(to);
    rename(r, |a| if *a == from { to.clone() } else { a.clone() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::participant::ParticipantId;
    use crate::tuple::Value;

    fn p(i: u32) -> ParticipantId {
        ParticipantId(i)
    }

    /// An edge relation E(src, dst) over a small directed graph, each edge
    /// annotated with the conjunction of its endpoint participants.
    fn edge_relation(edges: &[(u32, u32)]) -> KRelation {
        let mut r = KRelation::new(["src", "dst"]);
        for &(u, v) in edges {
            r.insert(
                Tuple::new([("src", u), ("dst", v)]),
                Expr::conjunction_of_vars([p(u), p(v)]),
            );
        }
        r
    }

    #[test]
    fn union_merges_annotations() {
        let mut r1 = KRelation::new(["x"]);
        r1.insert(Tuple::new([("x", 1i64)]), Expr::var(p(0)));
        let mut r2 = KRelation::new(["x"]);
        r2.insert(Tuple::new([("x", 1i64)]), Expr::var(p(1)));
        r2.insert(Tuple::new([("x", 2i64)]), Expr::var(p(2)));

        let u = union(&r1, &r2);
        assert_eq!(u.len(), 2);
        assert_eq!(
            u.annotation(&Tuple::new([("x", 1i64)])),
            Expr::or2(Expr::var(p(0)), Expr::var(p(1)))
        );
    }

    #[test]
    fn projection_ors_annotations_of_merged_tuples() {
        let mut r = KRelation::new(["x", "y"]);
        r.insert(Tuple::new([("x", 1i64), ("y", 1i64)]), Expr::var(p(0)));
        r.insert(Tuple::new([("x", 1i64), ("y", 2i64)]), Expr::var(p(1)));
        let attrs = [Attr::new("x")];
        let proj = project(&r, attrs.iter());
        assert_eq!(proj.len(), 1);
        // Merge order depends on hash iteration order; accept either operand
        // order of the disjunction.
        let ann = proj.annotation(&Tuple::new([("x", 1i64)]));
        let expected_ab = Expr::or2(Expr::var(p(0)), Expr::var(p(1)));
        let expected_ba = Expr::or2(Expr::var(p(1)), Expr::var(p(0)));
        assert!(ann == expected_ab || ann == expected_ba, "got {ann}");
    }

    #[test]
    fn selection_filters_tuples() {
        let r = edge_relation(&[(0, 1), (1, 2), (2, 0)]);
        let sel = select(&r, |t| t.get_named("src").unwrap().as_int() == Some(1));
        assert_eq!(sel.len(), 1);
        assert!(sel.contains(&Tuple::new([("src", 1u32), ("dst", 2u32)])));
    }

    #[test]
    fn natural_join_multiplies_annotations() {
        // Path of length 2: E(a,b) ⋈ ρ(E)(b,c).
        let e = edge_relation(&[(0, 1), (1, 2)]);
        let e1 = rename(&e, |a| {
            if a.name() == "src" {
                Attr::new("a")
            } else {
                Attr::new("b")
            }
        });
        let e2 = rename(&e, |a| {
            if a.name() == "src" {
                Attr::new("b")
            } else {
                Attr::new("c")
            }
        });
        let paths = natural_join(&e1, &e2);
        assert_eq!(paths.len(), 1);
        let t = Tuple::new([("a", 0u32), ("b", 1u32), ("c", 2u32)]);
        let ann = paths.annotation(&t);
        // (p0 ∧ p1) ∧ (p1 ∧ p2) — note p1 occurs twice; the join must NOT
        // collapse it, because idempotence is not φ-invariant.
        assert_eq!(ann.len(), 4);
        assert!(ann.contains_var(p(0)));
        assert!(ann.contains_var(p(1)));
        assert!(ann.contains_var(p(2)));
    }

    #[test]
    fn join_respects_shared_attribute_values() {
        let mut r1 = KRelation::new(["k", "v1"]);
        r1.insert(Tuple::new([("k", 1i64), ("v1", 10i64)]), Expr::True);
        r1.insert(Tuple::new([("k", 2i64), ("v1", 20i64)]), Expr::True);
        let mut r2 = KRelation::new(["k", "v2"]);
        r2.insert(Tuple::new([("k", 1i64), ("v2", 100i64)]), Expr::True);

        let j = natural_join(&r1, &r2);
        assert_eq!(j.len(), 1);
        assert!(j.contains(&Tuple::new([("k", 1i64), ("v1", 10i64), ("v2", 100i64)])));
    }

    #[test]
    fn product_of_disjoint_schemas() {
        let mut r1 = KRelation::new(["a"]);
        r1.insert(Tuple::new([("a", 1i64)]), Expr::var(p(0)));
        r1.insert(Tuple::new([("a", 2i64)]), Expr::var(p(1)));
        let mut r2 = KRelation::new(["b"]);
        r2.insert(Tuple::new([("b", 7i64)]), Expr::var(p(2)));

        let prod = product(&r1, &r2);
        assert_eq!(prod.len(), 2);
        assert_eq!(
            prod.annotation(&Tuple::new([("a", 1i64), ("b", 7i64)])),
            Expr::and2(Expr::var(p(0)), Expr::var(p(2)))
        );
    }

    #[test]
    fn intersection_of_equal_schemas() {
        let mut r1 = KRelation::new(["x"]);
        r1.insert(Tuple::new([("x", 1i64)]), Expr::var(p(0)));
        r1.insert(Tuple::new([("x", 2i64)]), Expr::var(p(1)));
        let mut r2 = KRelation::new(["x"]);
        r2.insert(Tuple::new([("x", 2i64)]), Expr::var(p(2)));

        let i = intersect(&r1, &r2);
        assert_eq!(i.len(), 1);
        assert_eq!(
            i.annotation(&Tuple::new([("x", 2i64)])),
            Expr::and2(Expr::var(p(1)), Expr::var(p(2)))
        );
    }

    #[test]
    fn equi_join_on_matches_renamed_natural_join() {
        // Joining Visits(person, place) with itself on place, via explicit
        // pairs, must agree with the rename-into-natural-join encoding.
        let mut v1 = KRelation::new(["p1", "place1"]);
        let mut v2 = KRelation::new(["p2", "place2"]);
        let data = [("ada", "museum"), ("bo", "museum"), ("cy", "cafe")];
        for (i, (person, place)) in data.iter().enumerate() {
            let ann = Expr::var(p(i as u32));
            v1.insert(
                Tuple::new([("p1", Value::str(person)), ("place1", Value::str(place))]),
                ann.clone(),
            );
            v2.insert(
                Tuple::new([("p2", Value::str(person)), ("place2", Value::str(place))]),
                ann,
            );
        }
        let joined = equi_join_on(&v1, &v2, &[(Attr::new("place1"), Attr::new("place2"))]);
        // museum×museum gives 4 pairs, cafe×cafe gives 1.
        assert_eq!(joined.len(), 5);
        let ada_bo = Tuple::new([
            ("p1", Value::str("ada")),
            ("place1", Value::str("museum")),
            ("p2", Value::str("bo")),
            ("place2", Value::str("museum")),
        ]);
        assert_eq!(
            joined.annotation(&ada_bo),
            Expr::and2(Expr::var(p(0)), Expr::var(p(1)))
        );
    }

    #[test]
    fn theta_join_applies_the_residual_predicate() {
        let mut l = KRelation::new(["a"]);
        l.insert(Tuple::new([("a", 1i64)]), Expr::var(p(0)));
        l.insert(Tuple::new([("a", 2i64)]), Expr::var(p(1)));
        let mut r = KRelation::new(["b"]);
        r.insert(Tuple::new([("b", 1i64)]), Expr::var(p(2)));
        r.insert(Tuple::new([("b", 3i64)]), Expr::var(p(3)));

        // No equi pairs: filtered Cartesian product a < b.
        let lt = theta_join(&l, &r, &[], |t| {
            t.get_named("a").unwrap().as_int() < t.get_named("b").unwrap().as_int()
        });
        assert_eq!(lt.len(), 2);
        assert!(lt.contains(&Tuple::new([("a", 1i64), ("b", 3i64)])));
        assert!(lt.contains(&Tuple::new([("a", 2i64), ("b", 3i64)])));
        assert!(!lt.contains(&Tuple::new([("a", 1i64), ("b", 1i64)])));
    }

    #[test]
    fn theta_join_skips_tuples_missing_a_join_attribute() {
        let mut l = KRelation::new(["k"]);
        l.insert(Tuple::new([("k", 1i64)]), Expr::True);
        let r = KRelation::new(["k2"]); // empty, and no "k2" values anywhere
        let j = theta_join(&l, &r, &[(Attr::new("k"), Attr::new("k2"))], |_| true);
        assert!(j.is_empty());
        // Missing left attribute: pair on an attribute l does not have.
        let mut r2 = KRelation::new(["z"]);
        r2.insert(Tuple::new([("z", 1i64)]), Expr::True);
        let j2 = theta_join(&l, &r2, &[(Attr::new("nope"), Attr::new("z"))], |_| true);
        assert!(j2.is_empty());
    }

    #[test]
    fn set_semantics_recovered_when_all_annotations_are_true() {
        // With every annotation True, the K-relation algebra must agree with
        // ordinary set-semantics relational algebra.
        let mut users = KRelation::new(["uid", "city"]);
        users.insert(
            Tuple::new([("uid", Value::Int(1)), ("city", Value::str("rome"))]),
            Expr::True,
        );
        users.insert(
            Tuple::new([("uid", Value::Int(2)), ("city", Value::str("oslo"))]),
            Expr::True,
        );
        let mut visits = KRelation::new(["uid", "place"]);
        visits.insert(
            Tuple::new([("uid", Value::Int(1)), ("place", Value::str("museum"))]),
            Expr::True,
        );
        visits.insert(
            Tuple::new([("uid", Value::Int(1)), ("place", Value::str("park"))]),
            Expr::True,
        );
        visits.insert(
            Tuple::new([("uid", Value::Int(2)), ("place", Value::str("park"))]),
            Expr::True,
        );

        let joined = natural_join(&users, &visits);
        assert_eq!(joined.len(), 3);
        for (_, e) in joined.iter() {
            assert!(e.is_true());
        }
        let attrs = [Attr::new("city")];
        let cities = project(&joined, attrs.iter());
        assert_eq!(cities.len(), 2);
    }

    #[test]
    fn triangle_query_via_three_way_self_join_matches_paper_example() {
        // Figure 2(a): triangles of the 6-node graph a-b-c-d-e(-f isolated)
        // under node annotations. Build an undirected edge relation and join
        // E(x,y) ⋈ E(y,z) ⋈ E(x,z) with x < y < z to enumerate each triangle
        // once.
        let undirected = [(0u32, 1u32), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)];
        // store both directions so the self-join can follow either orientation
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for &(u, v) in &undirected {
            edges.push((u, v));
            edges.push((v, u));
        }
        // Node-privacy annotation: an edge exists iff both endpoints opt in.
        let mut e_xy = KRelation::new(["x", "y"]);
        for &(u, v) in &edges {
            e_xy.insert(
                Tuple::new([("x", u), ("y", v)]),
                Expr::conjunction_of_vars([p(u), p(v)]),
            );
        }
        let e_yz = rename(&rename_attr(&e_xy, "x", "y0"), |a| match a.name() {
            "y0" => Attr::new("y"),
            "y" => Attr::new("z"),
            other => Attr::new(other),
        });
        let e_xz = rename(&rename_attr(&e_xy, "y", "z"), |a| a.clone());

        let two_path = natural_join(&e_xy, &e_yz);
        let triangles = natural_join(&two_path, &e_xz);
        let ordered = select(&triangles, |t| {
            let x = t.get_named("x").unwrap().as_int().unwrap();
            let y = t.get_named("y").unwrap().as_int().unwrap();
            let z = t.get_named("z").unwrap().as_int().unwrap();
            x < y && y < z
        });
        // The graph has triangles {a,b,c}, {b,c,d}, {c,d,e} (paper Fig. 2a).
        assert_eq!(ordered.len(), 3);
        let abc = Tuple::new([("x", 0u32), ("y", 1u32), ("z", 2u32)]);
        let ann = ordered.annotation(&abc);
        // Every participant of the triangle must appear; the join-produced
        // expression mentions them with multiplicity (it is not collapsed).
        for q in [p(0), p(1), p(2)] {
            assert!(ann.contains_var(q));
        }
        assert!(!ann.contains_var(p(3)));
    }
}
