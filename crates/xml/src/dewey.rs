//! Dewey ordinal node identifiers.
//!
//! A Dewey id is the sequence of 1-based child ordinals on the path from
//! the document root to a node; the root itself has the empty id. Dewey ids
//! are *stable under fragmentation*: a vertical fragment records the Dewey
//! id of its projected root in the source document, and the reconstruction
//! join re-nests fragments by prefix containment (paper Sec. 3.3).

use std::cmp::Ordering;
use std::fmt;

/// A Dewey ordinal identifier, e.g. `1.3.2`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Dewey {
    components: Vec<u32>,
}

impl Dewey {
    /// The root identifier (empty component list).
    pub fn root() -> Dewey {
        Dewey { components: Vec::new() }
    }

    pub fn from_vec(components: Vec<u32>) -> Dewey {
        Dewey { components }
    }

    pub fn components(&self) -> &[u32] {
        &self.components
    }

    pub fn depth(&self) -> usize {
        self.components.len()
    }

    /// The identifier of this node's parent; `None` for the root.
    pub fn parent(&self) -> Option<Dewey> {
        if self.components.is_empty() {
            None
        } else {
            Some(Dewey { components: self.components[..self.components.len() - 1].to_vec() })
        }
    }

    /// Extend with one more child ordinal.
    pub fn child(&self, ordinal: u32) -> Dewey {
        let mut components = self.components.clone();
        components.push(ordinal);
        Dewey { components }
    }

    /// True iff `self` is `other` or an ancestor of it.
    pub fn is_prefix_of(&self, other: &Dewey) -> bool {
        self.components.len() <= other.components.len()
            && other.components[..self.components.len()] == self.components[..]
    }

    /// The suffix of `other` relative to `self`, if `self` is a prefix.
    ///
    /// `relative(1.2, 1.2.3.1) == Some(3.1)` — used to re-address nodes
    /// when a vertical fragment is joined back into its source position.
    pub fn relative(&self, other: &Dewey) -> Option<Dewey> {
        if self.is_prefix_of(other) {
            Some(Dewey { components: other.components[self.components.len()..].to_vec() })
        } else {
            None
        }
    }

    /// Concatenate: the absolute id of `suffix` interpreted under `self`.
    pub fn join(&self, suffix: &Dewey) -> Dewey {
        let mut components = self.components.clone();
        components.extend_from_slice(&suffix.components);
        Dewey { components }
    }

    /// Parse from dotted form (`"1.3.2"`, or `""` for the root).
    pub fn parse(s: &str) -> Option<Dewey> {
        if s.is_empty() {
            return Some(Dewey::root());
        }
        let mut components = Vec::new();
        for part in s.split('.') {
            let n: u32 = part.parse().ok()?;
            if n == 0 {
                return None;
            }
            components.push(n);
        }
        Some(Dewey { components })
    }
}

impl fmt::Display for Dewey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.components.iter().enumerate() {
            if i > 0 {
                f.write_str(".")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

impl PartialOrd for Dewey {
    fn partial_cmp(&self, other: &Dewey) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Dewey {
    /// Document order: lexicographic on components, ancestors before
    /// descendants.
    fn cmp(&self, other: &Dewey) -> Ordering {
        self.components.cmp(&other.components)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_parse_roundtrip() {
        for s in ["", "1", "1.3.2", "42.1"] {
            let d = Dewey::parse(s).unwrap();
            assert_eq!(d.to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_zero_and_junk() {
        assert_eq!(Dewey::parse("0"), None);
        assert_eq!(Dewey::parse("1.0"), None);
        assert_eq!(Dewey::parse("a.b"), None);
        assert_eq!(Dewey::parse("1..2"), None);
    }

    #[test]
    fn ancestor_relations() {
        let root = Dewey::root();
        let a = Dewey::parse("1.2").unwrap();
        let b = Dewey::parse("1.2.3").unwrap();
        let c = Dewey::parse("1.3").unwrap();
        assert!(root.is_prefix_of(&a));
        assert!(a.is_prefix_of(&b));
        assert!(a.is_prefix_of(&a));
        assert!(!a.is_prefix_of(&c));
        assert!(!b.is_prefix_of(&a));
    }

    #[test]
    fn relative_and_join_are_inverse() {
        let base = Dewey::parse("1.2").unwrap();
        let abs = Dewey::parse("1.2.3.1").unwrap();
        let rel = base.relative(&abs).unwrap();
        assert_eq!(rel.to_string(), "3.1");
        assert_eq!(base.join(&rel), abs);
        assert_eq!(base.relative(&Dewey::parse("2.1").unwrap()), None);
    }

    #[test]
    fn document_order() {
        let mut ids: Vec<Dewey> = ["1.2", "1", "1.10", "1.2.1", "2", ""]
            .iter()
            .map(|s| Dewey::parse(s).unwrap())
            .collect();
        ids.sort();
        let strs: Vec<String> = ids.iter().map(|d| d.to_string()).collect();
        assert_eq!(strs, ["", "1", "1.2", "1.2.1", "1.10", "2"]);
    }

    #[test]
    fn parent_child() {
        let d = Dewey::parse("1.2").unwrap();
        assert_eq!(d.child(5).to_string(), "1.2.5");
        assert_eq!(d.parent().unwrap().to_string(), "1");
        assert_eq!(Dewey::root().parent(), None);
    }
}
