//! Evaluation of path expressions over data trees.
//!
//! One step matcher serves every reader of a path — [`eval_path`] /
//! [`eval_path_from`], [`Predicate::eval`](crate::Predicate::eval) and the
//! query evaluator: [`Matcher::resolve`] turns a path's label strings into
//! the document's symbols **once per document** (a label the document does
//! not contain means the path selects nothing there, found without
//! touching a node), and the walk then tests nodes by symbol id and hands
//! each selected node to a callback that may stop it.
//!
//! Selected nodes arrive in document order without duplicates. Child
//! steps stream — nested loops, no intermediate vector — and so does a
//! final descendant step. Only what *follows* a descendant step is
//! evaluated a set at a time with a sort and a dedup between steps: the
//! matches of `//a` may nest, so a further step could reach a node twice
//! or out of order.

use crate::ast::{Axis, NodeTest, PathExpr, Step};
use partix_xml::{Document, NodeId, NodeKind, NodeRef, Sym};
use std::ops::ControlFlow;

/// A node test resolved against one document.
#[derive(Debug, Clone, Copy)]
enum Test {
    Element(Sym),
    AnyElement,
    Attribute(Sym),
}

impl Test {
    fn resolve(doc: &Document, test: &NodeTest) -> Option<Test> {
        Some(match test {
            NodeTest::Name(name) => Test::Element(doc.sym(name)?),
            NodeTest::AnyElement => Test::AnyElement,
            NodeTest::Attribute(name) => Test::Attribute(doc.sym(name)?),
        })
    }

    #[inline]
    fn matches(self, node: NodeRef<'_>) -> bool {
        match self {
            Test::Element(label) => node.is(NodeKind::Element, label),
            Test::AnyElement => node.kind() == NodeKind::Element,
            Test::Attribute(label) => node.is(NodeKind::Attribute, label),
        }
    }
}

/// A path's steps and the buffer they resolve into; see the module docs.
/// One matcher serves document after document: [`Matcher::resolve`]
/// reuses the buffer, so resolving allocates once per matcher, not once
/// per document.
#[derive(Debug)]
pub struct Matcher<'p> {
    steps: &'p [Step],
    tests: Vec<Test>,
}

impl<'p> Matcher<'p> {
    pub fn new(steps: &'p [Step]) -> Matcher<'p> {
        Matcher { steps, tests: Vec::new() }
    }

    /// Resolve the steps against `doc`. `None` when a step names a label
    /// no node of `doc` carries: the path selects nothing there.
    pub fn resolve(&mut self, doc: &Document) -> Option<Resolved<'_>> {
        self.tests.clear();
        for step in self.steps {
            self.tests.push(Test::resolve(doc, &step.test)?);
        }
        Some(Resolved { steps: self.steps, tests: &self.tests })
    }
}

/// A path resolved against one document, ready to walk it.
#[derive(Debug, Clone, Copy)]
pub struct Resolved<'m> {
    steps: &'m [Step],
    /// `tests[i]` is the node test of `steps[i]`.
    tests: &'m [Test],
}

impl Resolved<'_> {
    /// Walk the steps from `ctx` (the first step matches its children or
    /// descendants), handing every selected node to `emit`.
    pub fn walk<B>(
        &self,
        ctx: NodeRef<'_>,
        emit: &mut impl FnMut(NodeId) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        self.steps_from(ctx, 0, emit)
    }

    /// Walk the steps as an absolute path: the first step is matched
    /// against the root element itself (document node → root element).
    pub fn walk_absolute<B>(
        &self,
        doc: &Document,
        emit: &mut impl FnMut(NodeId) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        let Some(first) = self.steps.first() else {
            return emit(NodeId::ROOT);
        };
        let root = doc.root();
        match first.axis {
            Axis::Child => {
                if self.tests[0].matches(root) && first.position.unwrap_or(1) == 1 {
                    self.steps_from(root, 1, emit)
                } else {
                    ControlFlow::Continue(())
                }
            }
            Axis::Descendant => self.through_descendants(root.descendants_or_self(), 0, emit),
        }
    }

    /// Steps `at..` from one context node. Recursion is one level per
    /// child step (both parsers bound a path's length).
    fn steps_from<B>(
        &self,
        ctx: NodeRef<'_>,
        at: usize,
        emit: &mut impl FnMut(NodeId) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        let Some(step) = self.steps.get(at) else {
            return emit(ctx.id());
        };
        match step.axis {
            // the children of one node are distinct and in order: stream
            Axis::Child => {
                self.child_step(ctx, at, &mut |child| self.steps_from(child, at + 1, emit))
            }
            Axis::Descendant => {
                self.through_descendants(ctx.descendants_or_self().skip(1), at, emit)
            }
        }
    }

    /// Step `at`, a descendant step over `candidates` (one subtree in
    /// document order), then the steps after it.
    fn through_descendants<'d, B>(
        &self,
        candidates: impl Iterator<Item = NodeRef<'d>>,
        at: usize,
        emit: &mut impl FnMut(NodeId) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        if at + 1 == self.steps.len() {
            return self.descendant_step(candidates, at, &mut |node| emit(node.id()));
        }
        // the matches may nest, so a further step could reach a node
        // twice or out of order: the rest runs a set at a time
        let mut current = Vec::new();
        let mut collect = |node: NodeRef<'d>| {
            current.push(node);
            ControlFlow::<()>::Continue(())
        };
        let _ = self.descendant_step(candidates, at, &mut collect);
        for at in at + 1..self.steps.len() {
            let mut next = Vec::new();
            let mut collect = |node: NodeRef<'d>| {
                next.push(node);
                ControlFlow::<()>::Continue(())
            };
            for &ctx in &current {
                let _ = match self.steps[at].axis {
                    Axis::Child => self.child_step(ctx, at, &mut collect),
                    Axis::Descendant => {
                        self.descendant_step(ctx.descendants_or_self().skip(1), at, &mut collect)
                    }
                };
            }
            next.sort_unstable_by_key(|node| node.id());
            next.dedup_by_key(|node| node.id());
            current = next;
        }
        current.into_iter().try_for_each(|node| emit(node.id()))
    }

    /// The children of `ctx` step `at` selects.
    fn child_step<'d, B>(
        &self,
        ctx: NodeRef<'d>,
        at: usize,
        emit: &mut impl FnMut(NodeRef<'d>) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        let (test, position) = (self.tests[at], self.steps[at].position);
        let mut ordinal = 0u32;
        for child in ctx.children() {
            if !test.matches(child) {
                continue;
            }
            ordinal += 1;
            match position {
                None => emit(child)?,
                Some(p) if p == ordinal => return emit(child),
                Some(_) => {}
            }
        }
        ControlFlow::Continue(())
    }

    /// The nodes among `candidates` step `at` selects; a positional
    /// descendant step counts per parent.
    fn descendant_step<'d, B>(
        &self,
        mut candidates: impl Iterator<Item = NodeRef<'d>>,
        at: usize,
        emit: &mut impl FnMut(NodeRef<'d>) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        let (test, position) = (self.tests[at], self.steps[at].position);
        candidates.try_for_each(|node| {
            if test.matches(node) && position.is_none_or(|p| sibling_ordinal(node, test) == p) {
                emit(node)
            } else {
                ControlFlow::Continue(())
            }
        })
    }
}

/// 1-based position of `node` among the siblings passing `test`.
fn sibling_ordinal(node: NodeRef<'_>, test: Test) -> u32 {
    let Some(parent) = node.parent() else {
        return 1;
    };
    let mut ordinal = 0u32;
    for sibling in parent.children() {
        if test.matches(sibling) {
            ordinal += 1;
            if sibling.id() == node.id() {
                break;
            }
        }
    }
    ordinal
}

/// Evaluate `path` against a whole document.
///
/// Absolute paths match from the root: `/Store` selects the root iff its
/// label is `Store`. Relative paths are evaluated with the root as the
/// context node (first step matches the root's children).
pub fn eval_path(doc: &Document, path: &PathExpr) -> Vec<NodeId> {
    if !path.absolute {
        return eval_path_from(doc, &[NodeId::ROOT], path);
    }
    let mut out = Vec::new();
    if let Some(resolved) = Matcher::new(&path.steps).resolve(doc) {
        let _ = resolved.walk_absolute(doc, &mut |id| {
            out.push(id);
            ControlFlow::<()>::Continue(())
        });
    }
    out
}

/// Evaluate a (relative) path from the given context nodes.
pub fn eval_path_from(doc: &Document, context: &[NodeId], path: &PathExpr) -> Vec<NodeId> {
    if path.steps.is_empty() {
        return context.to_vec();
    }
    let mut out = Vec::new();
    if let Some(resolved) = Matcher::new(&path.steps).resolve(doc) {
        for &ctx in context {
            let ctx = doc.get(ctx).expect("context node belongs to doc");
            let _ = resolved.walk(ctx, &mut |id| {
                out.push(id);
                ControlFlow::<()>::Continue(())
            });
        }
    }
    if context.len() > 1 {
        // walks from different context nodes may overlap or interleave
        out.sort_unstable();
        out.dedup();
    }
    out
}

/// The *string value* of a node selected by a path: text content for
/// elements, the value for attributes and text nodes
/// ([`NodeRef::string_value`], owned).
pub fn string_value(doc: &Document, id: NodeId) -> String {
    doc.get(id).expect("node belongs to doc").string_value().into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use partix_xml::parse;

    fn item_doc() -> Document {
        parse(
            r#"<Item id="7">
                 <Name>Animals</Name>
                 <Section>CD</Section>
                 <PictureList>
                   <Picture><OriginalPath>/p/1.jpg</OriginalPath></Picture>
                   <Picture><OriginalPath>/p/2.jpg</OriginalPath></Picture>
                 </PictureList>
                 <Characteristics><Description>very good album</Description></Characteristics>
               </Item>"#,
        )
        .unwrap()
    }

    fn texts(doc: &Document, path: &str) -> Vec<String> {
        let p = PathExpr::parse(path).unwrap();
        eval_path(doc, &p)
            .into_iter()
            .map(|id| string_value(doc, id))
            .collect()
    }

    #[test]
    fn absolute_child_steps() {
        let doc = item_doc();
        assert_eq!(texts(&doc, "/Item/Section"), ["CD"]);
        assert_eq!(texts(&doc, "/Item/Name"), ["Animals"]);
        assert!(texts(&doc, "/Other/Name").is_empty());
    }

    #[test]
    fn root_label_must_match() {
        let doc = item_doc();
        assert_eq!(texts(&doc, "/Item").len(), 1);
        assert!(texts(&doc, "/Store").is_empty());
    }

    #[test]
    fn attribute_step() {
        let doc = item_doc();
        assert_eq!(texts(&doc, "/Item/@id"), ["7"]);
        assert!(texts(&doc, "/Item/@missing").is_empty());
    }

    #[test]
    fn descendant_axis() {
        let doc = item_doc();
        assert_eq!(texts(&doc, "//Description"), ["very good album"]);
        assert_eq!(texts(&doc, "//OriginalPath").len(), 2);
        assert_eq!(texts(&doc, "/Item//OriginalPath").len(), 2);
    }

    #[test]
    fn leading_descendant_can_match_root() {
        let doc = item_doc();
        assert_eq!(texts(&doc, "//Item").len(), 1);
    }

    #[test]
    fn wildcard_step() {
        let doc = item_doc();
        // all element children of Item
        assert_eq!(texts(&doc, "/Item/*").len(), 4);
    }

    #[test]
    fn positional_step() {
        let doc = item_doc();
        assert_eq!(
            texts(&doc, "/Item/PictureList/Picture[1]/OriginalPath"),
            ["/p/1.jpg"]
        );
        assert_eq!(
            texts(&doc, "/Item/PictureList/Picture[2]/OriginalPath"),
            ["/p/2.jpg"]
        );
        assert!(texts(&doc, "/Item/PictureList/Picture[3]").is_empty());
    }

    #[test]
    fn positional_descendant_step() {
        let doc = item_doc();
        assert_eq!(texts(&doc, "//Picture[2]/OriginalPath"), ["/p/2.jpg"]);
    }

    #[test]
    fn results_in_document_order_no_duplicates() {
        let doc = parse("<a><b><c/><b><c/></b></b><b><c/></b></a>").unwrap();
        let p = PathExpr::parse("//b//c").unwrap();
        let hits = eval_path(&doc, &p);
        assert_eq!(hits.len(), 3);
        let mut sorted = hits.clone();
        sorted.sort_unstable();
        assert_eq!(hits, sorted);
    }

    #[test]
    fn relative_path_from_context() {
        let doc = item_doc();
        let pictures = eval_path(&doc, &PathExpr::parse("/Item/PictureList/Picture").unwrap());
        let rel = PathExpr::parse("OriginalPath").unwrap();
        let hits = eval_path_from(&doc, &pictures, &rel);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn one_matcher_serves_document_after_document() {
        let path = PathExpr::parse("/Item/PictureList/Picture/OriginalPath").unwrap();
        let count = |matcher: &mut Matcher<'_>, doc: &Document| {
            let mut hits = 0;
            if let Some(resolved) = matcher.resolve(doc) {
                let _ = resolved.walk_absolute(doc, &mut |_| {
                    hits += 1;
                    ControlFlow::<()>::Continue(())
                });
            }
            hits
        };
        let (with, without) = (item_doc(), parse("<Item><Name>x</Name></Item>").unwrap());
        let mut matcher = Matcher::new(&path.steps);
        assert_eq!(count(&mut matcher, &with), 2);
        // a label the document lacks: unresolved, and the next one is unaffected
        assert!(matcher.resolve(&without).is_none());
        assert_eq!(count(&mut matcher, &with), 2);
    }

    #[test]
    fn empty_absolute_path_selects_root() {
        let doc = item_doc();
        let p = PathExpr { absolute: true, steps: vec![] };
        assert_eq!(eval_path(&doc, &p), vec![NodeId::ROOT]);
    }

    #[test]
    fn string_value_of_element_concatenates() {
        let doc = item_doc();
        let p = PathExpr::parse("/Item/PictureList").unwrap();
        let hits = eval_path(&doc, &p);
        assert_eq!(string_value(&doc, hits[0]), "/p/1.jpg/p/2.jpg");
    }
}
