//! Step-at-a-time path evaluation as the reference interpreter used it:
//! one vector per step, label strings compared per node, sort and dedup
//! after every step.

use partix_path::{Axis, NodeTest, PathExpr, Step};
use partix_xml::{Document, NodeId, NodeKind, NodeRef};

/// Evaluate `path` against a whole document.
///
/// Absolute paths match from the root: `/Store` selects the root iff its
/// label is `Store`. Relative paths are evaluated with the root as the
/// context node (first step matches the root's children).
pub fn eval_path(doc: &Document, path: &PathExpr) -> Vec<NodeId> {
    if path.absolute {
        let Some(first) = path.steps.first() else {
            return vec![NodeId::ROOT];
        };
        // First step of an absolute path is matched against the root
        // element itself (document node → root element).
        let mut roots = Vec::new();
        match first.axis {
            Axis::Child => {
                if test_matches(doc.root(), &first.test) && first.position.unwrap_or(1) == 1 {
                    roots.push(NodeId::ROOT);
                }
            }
            Axis::Descendant => {
                collect_descendant_matches(doc.root(), first, &mut roots);
            }
        }
        eval_steps(doc, &roots, &path.steps[1..])
    } else {
        eval_path_from(doc, &[NodeId::ROOT], path)
    }
}

/// Evaluate a (relative) path from the given context nodes.
pub fn eval_path_from(doc: &Document, context: &[NodeId], path: &PathExpr) -> Vec<NodeId> {
    eval_steps(doc, context, &path.steps)
}

fn eval_steps(doc: &Document, context: &[NodeId], steps: &[Step]) -> Vec<NodeId> {
    let mut current: Vec<NodeId> = context.to_vec();
    for step in steps {
        let mut next = Vec::new();
        for &ctx in &current {
            let node = doc.get(ctx).expect("context node belongs to doc");
            match step.axis {
                Axis::Child => {
                    let mut ordinal = 0u32;
                    for child in node.children() {
                        if test_matches(child, &step.test) {
                            ordinal += 1;
                            match step.position {
                                Some(p) if p != ordinal => continue,
                                _ => next.push(child.id()),
                            }
                        }
                    }
                }
                Axis::Descendant => {
                    for desc in node.descendants_or_self().skip(1) {
                        if test_matches(desc, &step.test) {
                            // positional descendant steps count per-parent
                            if let Some(p) = step.position {
                                let ord = sibling_ordinal(doc, desc, &step.test);
                                if ord != p {
                                    continue;
                                }
                            }
                            next.push(desc.id());
                        }
                    }
                }
            }
        }
        next.sort_unstable();
        next.dedup();
        current = next;
        if current.is_empty() {
            break;
        }
    }
    current
}

fn collect_descendant_matches(root: NodeRef<'_>, step: &Step, out: &mut Vec<NodeId>) {
    for desc in root.descendants_or_self() {
        if test_matches(desc, &step.test) {
            if let Some(p) = step.position {
                if sibling_ordinal(desc.document(), desc, &step.test) != p {
                    continue;
                }
            }
            out.push(desc.id());
        }
    }
}

/// 1-based position of `node` among siblings matching the same test.
fn sibling_ordinal(doc: &Document, node: NodeRef<'_>, test: &NodeTest) -> u32 {
    let Some(parent) = node.parent() else { return 1 };
    let mut ord = 0u32;
    for sib in parent.children() {
        if test_matches(sib, test) {
            ord += 1;
            if sib.id() == node.id() {
                return ord;
            }
        }
    }
    let _ = doc;
    ord.max(1)
}

fn test_matches(node: NodeRef<'_>, test: &NodeTest) -> bool {
    match test {
        NodeTest::Name(name) => node.kind() == NodeKind::Element && node.label() == name,
        NodeTest::AnyElement => node.kind() == NodeKind::Element,
        NodeTest::Attribute(name) => node.kind() == NodeKind::Attribute && node.label() == name,
    }
}
