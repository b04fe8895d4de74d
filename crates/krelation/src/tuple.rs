//! Attributes, values and tuples.
//!
//! A tuple is a function `t : U → C` from a finite attribute set `U` to a
//! domain of constants `C` (paper Sec. 2.4). Tuples are stored as sorted
//! attribute/value pairs so they hash and compare cheaply and deterministically.

use std::fmt;
use std::sync::Arc;

/// An attribute name. Cloning is cheap (shared string).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Attr(Arc<str>);

impl Attr {
    /// Creates an attribute from a name.
    pub fn new(name: &str) -> Self {
        Attr(Arc::from(name))
    }

    /// The attribute name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Debug for Attr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for Attr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for Attr {
    fn from(s: &str) -> Self {
        Attr::new(s)
    }
}

impl From<String> for Attr {
    fn from(s: String) -> Self {
        Attr(Arc::from(s.as_str()))
    }
}

/// A constant value of the tuple domain `C`.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// An integer constant.
    Int(i64),
    /// A string constant.
    Str(Arc<str>),
    /// A Boolean constant.
    Bool(bool),
}

impl Value {
    /// A string value.
    pub fn str(s: &str) -> Self {
        Value::Str(Arc::from(s))
    }

    /// Returns the integer payload, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(i64::from(v))
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// A tuple: a finite map from attributes to values, stored sorted by
/// attribute.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Tuple {
    entries: Vec<(Attr, Value)>,
}

impl Tuple {
    /// The empty tuple (over the empty attribute set).
    pub fn empty() -> Self {
        Tuple::default()
    }

    /// Builds a tuple from attribute/value pairs. Later duplicates of an
    /// attribute overwrite earlier ones.
    pub fn new<I, A, V>(entries: I) -> Self
    where
        I: IntoIterator<Item = (A, V)>,
        A: Into<Attr>,
        V: Into<Value>,
    {
        let mut t = Tuple::empty();
        for (a, v) in entries {
            t.set(a.into(), v.into());
        }
        t
    }

    /// Sets (or overwrites) an attribute.
    pub fn set(&mut self, attr: Attr, value: Value) {
        match self.entries.binary_search_by(|(a, _)| a.cmp(&attr)) {
            Ok(i) => self.entries[i].1 = value,
            Err(i) => self.entries.insert(i, (attr, value)),
        }
    }

    /// The value of an attribute, if present.
    pub fn get(&self, attr: &Attr) -> Option<&Value> {
        self.entries
            .binary_search_by(|(a, _)| a.cmp(attr))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Convenience lookup by attribute name.
    pub fn get_named(&self, name: &str) -> Option<&Value> {
        self.get(&Attr::new(name))
    }

    /// The attributes of the tuple, in sorted order.
    pub fn attrs(&self) -> impl Iterator<Item = &Attr> + '_ {
        self.entries.iter().map(|(a, _)| a)
    }

    /// Iterates over `(attribute, value)` pairs in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (&Attr, &Value)> + '_ {
        self.entries.iter().map(|(a, v)| (a, v))
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.entries.len()
    }

    /// Whether the tuple is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Projection of the tuple onto a set of attributes. Attributes absent
    /// from the tuple are silently ignored.
    pub fn project<'a, I>(&self, attrs: I) -> Tuple
    where
        I: IntoIterator<Item = &'a Attr>,
    {
        let mut t = Tuple::empty();
        for a in attrs {
            if let Some(v) = self.get(a) {
                t.set(a.clone(), v.clone());
            }
        }
        t
    }

    /// Renames attributes according to `rename`; attributes not mentioned are
    /// kept unchanged.
    pub fn rename<F>(&self, rename: F) -> Tuple
    where
        F: Fn(&Attr) -> Attr,
    {
        let mut t = Tuple::empty();
        for (a, v) in &self.entries {
            t.set(rename(a), v.clone());
        }
        t
    }

    /// Merges two tuples with compatible shared attributes (natural-join
    /// semantics). Returns `None` when a shared attribute disagrees.
    pub fn join(&self, other: &Tuple) -> Option<Tuple> {
        // Both entry lists are sorted by attribute: merge them in one pass.
        let (left, right) = (&self.entries, &other.entries);
        let mut entries = Vec::with_capacity(left.len() + right.len());
        let (mut i, mut j) = (0, 0);
        while i < left.len() && j < right.len() {
            match left[i].0.cmp(&right[j].0) {
                std::cmp::Ordering::Less => {
                    entries.push(left[i].clone());
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    entries.push(right[j].clone());
                    j += 1;
                }
                std::cmp::Ordering::Equal if left[i].1 != right[j].1 => return None,
                std::cmp::Ordering::Equal => {
                    entries.push(left[i].clone());
                    i += 1;
                    j += 1;
                }
            }
        }
        entries.extend_from_slice(&left[i..]);
        entries.extend_from_slice(&right[j..]);
        Some(Tuple { entries })
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, (a, v)) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}={v:?}")?;
        }
        write!(f, "⟩")
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_get_roundtrip() {
        let mut t = Tuple::empty();
        t.set("b".into(), 2i64.into());
        t.set("a".into(), 1i64.into());
        t.set("b".into(), 3i64.into());
        assert_eq!(t.arity(), 2);
        assert_eq!(t.get_named("a"), Some(&Value::Int(1)));
        assert_eq!(t.get_named("b"), Some(&Value::Int(3)));
        assert_eq!(t.get_named("c"), None);
    }

    #[test]
    fn tuples_with_same_content_are_equal_regardless_of_insertion_order() {
        let t1 = Tuple::new([("x", 1i64), ("y", 2i64)]);
        let t2 = Tuple::new([("y", 2i64), ("x", 1i64)]);
        assert_eq!(t1, t2);
    }

    #[test]
    fn projection_keeps_only_requested_attributes() {
        let t = Tuple::new([("a", 1i64), ("b", 2i64), ("c", 3i64)]);
        let attrs = [Attr::new("a"), Attr::new("c"), Attr::new("zzz")];
        let proj = t.project(attrs.iter());
        assert_eq!(proj, Tuple::new([("a", 1i64), ("c", 3i64)]));
    }

    #[test]
    fn join_agrees_on_shared_attributes() {
        let t1 = Tuple::new([("a", 1i64), ("b", 2i64)]);
        let t2 = Tuple::new([("b", 2i64), ("c", 3i64)]);
        let joined = t1.join(&t2).unwrap();
        assert_eq!(joined, Tuple::new([("a", 1i64), ("b", 2i64), ("c", 3i64)]));
        let t3 = Tuple::new([("b", 9i64), ("c", 3i64)]);
        assert_eq!(t1.join(&t3), None);
    }

    #[test]
    fn rename_changes_attribute_names() {
        let t = Tuple::new([("a", 1i64), ("b", 2i64)]);
        let renamed = t.rename(|a| {
            if a.name() == "a" {
                Attr::new("x")
            } else {
                a.clone()
            }
        });
        assert_eq!(renamed, Tuple::new([("x", 1i64), ("b", 2i64)]));
    }

    #[test]
    fn mixed_value_types() {
        let t = Tuple::new::<_, Attr, Value>([
            (Attr::new("id"), Value::Int(7)),
            (Attr::new("name"), Value::str("alice")),
            (Attr::new("active"), Value::Bool(true)),
        ]);
        assert_eq!(t.get_named("name").unwrap().as_str(), Some("alice"));
        assert_eq!(t.get_named("id").unwrap().as_int(), Some(7));
        assert_eq!(format!("{t}"), "⟨active=true, id=7, name=\"alice\"⟩");
    }
}
