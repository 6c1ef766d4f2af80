//! Schema declarations: element trees with cardinalities.

use partix_path::{Axis, NodeTest, PathExpr};
use std::fmt;

/// Occurrence bounds, the paper's `min..max` annotations (`max = None`
/// renders as `n`, i.e. unbounded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Occurs {
    pub min: u32,
    pub max: Option<u32>,
}

impl Occurs {
    /// Exactly one (the paper's default when the annotation is omitted).
    pub const ONE: Occurs = Occurs { min: 1, max: Some(1) };
    /// `0..1`
    pub const OPTIONAL: Occurs = Occurs { min: 0, max: Some(1) };
    /// `1..n`
    pub const MANY: Occurs = Occurs { min: 1, max: None };
    /// `0..n`
    pub const ANY: Occurs = Occurs { min: 0, max: None };

    /// Does `count` occurrences satisfy these bounds?
    pub fn admits(self, count: u32) -> bool {
        count >= self.min && self.max.is_none_or(|max| count <= max)
    }

    /// At most one occurrence possible?
    pub fn at_most_one(self) -> bool {
        self.max == Some(1) || self.max == Some(0)
    }
}

impl fmt::Display for Occurs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.max {
            Some(max) => write!(f, "{}..{}", self.min, max),
            None => write!(f, "{}..n", self.min),
        }
    }
}

/// An attribute declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrDecl {
    pub name: String,
    pub required: bool,
}

/// Declaration of an element type: its name, whether it may carry text
/// content, its attributes, and its child element types with bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElementDecl {
    pub name: String,
    /// May the element contain character data? (Leaf types in the paper's
    /// schemas map to the value domain `D`.)
    pub text: bool,
    pub attributes: Vec<AttrDecl>,
    pub children: Vec<(ElementDecl, Occurs)>,
}

impl ElementDecl {
    /// A leaf element holding a text value.
    pub fn leaf(name: &str) -> ElementDecl {
        ElementDecl { name: name.to_owned(), text: true, attributes: Vec::new(), children: Vec::new() }
    }

    /// A structural element (no text of its own).
    pub fn complex(name: &str, children: Vec<(ElementDecl, Occurs)>) -> ElementDecl {
        ElementDecl { name: name.to_owned(), text: false, attributes: Vec::new(), children }
    }

    pub fn with_attr(mut self, name: &str, required: bool) -> ElementDecl {
        self.attributes.push(AttrDecl { name: name.to_owned(), required });
        self
    }

    /// Is `path`, whose first step names this element, guaranteed to
    /// select at most one node per such element?
    ///
    /// True iff the path is wildcard-free, resolvable against this
    /// declaration, and every step after the first either has `max ≤ 1`
    /// cardinality or a positional filter (`e[i]` pins one occurrence).
    /// Unresolvable or wildcard paths conservatively return `false`.
    pub fn is_single_valued(&self, path: &PathExpr) -> bool {
        if !path.absolute || path.steps.is_empty() {
            return false;
        }
        let mut steps = path.steps.iter();
        let first = steps.next().expect("non-empty");
        if first.axis != Axis::Child {
            return false;
        }
        let mut current = match &first.test {
            NodeTest::Name(n) if *n == self.name => self,
            _ => return false,
        };
        for step in steps {
            if step.axis != Axis::Child {
                return false;
            }
            match &step.test {
                NodeTest::Name(n) => {
                    let Some((decl, occurs)) =
                        current.children.iter().find(|(c, _)| c.name == *n).map(|(c, o)| (c, *o))
                    else {
                        return false;
                    };
                    if !occurs.at_most_one() && step.position.is_none() {
                        return false;
                    }
                    current = decl;
                }
                NodeTest::Attribute(a) => {
                    // attributes are single-valued when declared
                    return current.attributes.iter().any(|ad| ad.name == *a);
                }
                NodeTest::AnyElement => return false,
            }
        }
        true
    }

    /// Find the declaration of a direct child element by name.
    pub fn child(&self, name: &str) -> Option<(&ElementDecl, Occurs)> {
        self.children
            .iter()
            .find(|(c, _)| c.name == name)
            .map(|(c, o)| (c, *o))
    }
}

/// A named schema: a tree of element declarations rooted at one type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    pub name: String,
    pub root: ElementDecl,
}

impl Schema {
    pub fn new(name: &str, root: ElementDecl) -> Schema {
        Schema { name: name.to_owned(), root }
    }

    /// Resolve a wildcard-free, child-axis-only absolute path to its
    /// element declaration. Attribute-final paths resolve to the owning
    /// element's declaration if the attribute is declared.
    pub fn resolve(&self, path: &PathExpr) -> Option<&ElementDecl> {
        if !path.absolute {
            return None;
        }
        let mut steps = path.steps.iter();
        let first = steps.next()?;
        if first.axis != Axis::Child {
            return None;
        }
        let mut current = match &first.test {
            NodeTest::Name(n) if *n == self.root.name => &self.root,
            _ => return None,
        };
        for step in steps {
            if step.axis != Axis::Child {
                return None;
            }
            match &step.test {
                NodeTest::Name(n) => {
                    current = current.children.iter().find(|(c, _)| c.name == *n).map(|(c, _)| c)?;
                }
                NodeTest::Attribute(a) => {
                    // must be final (enforced by the path parser); resolves
                    // iff declared on the current element
                    return if current.attributes.iter().any(|ad| ad.name == *a) {
                        Some(current)
                    } else {
                        None
                    };
                }
                NodeTest::AnyElement => return None,
            }
        }
        Some(current)
    }

    /// A new schema rooted at the declaration `path` resolves to.
    ///
    /// This is how an MD collection like `C_items := ⟨S_virtual_store,
    /// /Store/Items/Item⟩` obtains the *document-level* schema its
    /// `Item`-rooted documents satisfy.
    pub fn subschema(&self, path: &PathExpr) -> Option<Schema> {
        let decl = self.resolve(path)?;
        if path.targets_attribute() {
            return None;
        }
        Some(Schema { name: format!("{}@{}", self.name, path), root: decl.clone() })
    }

    /// Is `path` guaranteed to select at most one node per document?
    /// See [`ElementDecl::is_single_valued`].
    pub fn is_single_valued(&self, path: &PathExpr) -> bool {
        self.root.is_single_valued(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin::virtual_store;

    fn p(s: &str) -> PathExpr {
        PathExpr::parse(s).unwrap()
    }

    #[test]
    fn occurs_admits() {
        assert!(Occurs::ONE.admits(1));
        assert!(!Occurs::ONE.admits(0));
        assert!(!Occurs::ONE.admits(2));
        assert!(Occurs::OPTIONAL.admits(0));
        assert!(Occurs::MANY.admits(99));
        assert!(!Occurs::MANY.admits(0));
        assert!(Occurs::ANY.admits(0));
    }

    #[test]
    fn occurs_display() {
        assert_eq!(Occurs::ONE.to_string(), "1..1");
        assert_eq!(Occurs::MANY.to_string(), "1..n");
        assert_eq!(Occurs::OPTIONAL.to_string(), "0..1");
    }

    #[test]
    fn resolve_paper_paths() {
        let s = virtual_store();
        assert_eq!(s.resolve(&p("/Store")).unwrap().name, "Store");
        assert_eq!(s.resolve(&p("/Store/Items/Item")).unwrap().name, "Item");
        assert_eq!(
            s.resolve(&p("/Store/Items/Item/PictureList/Picture")).unwrap().name,
            "Picture"
        );
        assert!(s.resolve(&p("/Store/Nope")).is_none());
        assert!(s.resolve(&p("/Wrong")).is_none());
        assert!(s.resolve(&p("//Item")).is_none()); // wildcards unresolvable
    }

    #[test]
    fn single_valuedness_follows_cardinalities() {
        let s = virtual_store();
        // Sections is 1..1, Section is 1..n
        assert!(s.is_single_valued(&p("/Store/Sections")));
        assert!(!s.is_single_valued(&p("/Store/Sections/Section")));
        assert!(s.is_single_valued(&p("/Store/Sections/Section[1]")));
        assert!(!s.is_single_valued(&p("/Store/Items/Item")));
        // within one Item document-rooted path — Section leaf is 1..1
        assert!(!s.is_single_valued(&p("//Section")));
    }

    #[test]
    fn attribute_paths() {
        let root = ElementDecl::complex(
            "a",
            vec![(ElementDecl::leaf("b"), Occurs::ONE)],
        )
        .with_attr("id", true);
        let s = Schema::new("t", root);
        assert!(s.is_single_valued(&p("/a/@id")));
        assert!(!s.is_single_valued(&p("/a/@missing")));
        assert!(s.resolve(&p("/a/@id")).is_some());
        assert!(s.resolve(&p("/a/@missing")).is_none());
    }
}
