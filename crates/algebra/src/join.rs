//! The reconstruction join for vertical fragmentation.
//!
//! Each vertically projected fragment carries an [`Origin`](partix_xml::Origin): the name of
//! its source document and the Dewey id of the projected subtree's root
//! within that source. That pair is an identity that survives
//! fragmentation: pieces of one source document are matched, and
//! re-nested, without their siblings being present. Reconstruction groups
//! the pieces by source, sorts each group by Dewey id — document order,
//! the base piece first — and copies the base piece once, in document
//! order, splicing every other piece in at the position its Dewey id
//! names. A child ordinal counts the children *before* it, so a piece
//! lands where it was cut as long as everything cut before it under the
//! same parent is back in place; what is known about that is the caller's
//! to say ([`Coverage`]).

use partix_xml::{Dewey, Document, NodeId, NodeKind};
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::fmt;
use std::iter::Peekable;

/// Failure to reconstruct a source document from fragments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReconstructError {
    /// A fragment document has no `Origin` metadata.
    MissingOrigin { doc: String },
    /// No fragment provides the subtree containing the source root — the
    /// fragmentation is incomplete.
    NoBasePiece { source: String },
    /// Two fragments claim the same subtree — the fragmentation is not
    /// disjoint.
    OverlappingPieces { source: String, dewey: String },
    /// A piece's Dewey position cannot be reached in the merged document:
    /// the piece it hangs under, or — when every fragment was read — a
    /// sibling piece earlier in document order, is missing.
    UnreachablePosition { source: String, dewey: String },
}

impl fmt::Display for ReconstructError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReconstructError::MissingOrigin { doc } => {
                write!(f, "fragment document {doc:?} has no origin metadata")
            }
            ReconstructError::NoBasePiece { source } => {
                write!(f, "no fragment contains the root subtree of source {source:?}")
            }
            ReconstructError::OverlappingPieces { source, dewey } => {
                write!(f, "two fragments of {source:?} both contain subtree {dewey}")
            }
            ReconstructError::UnreachablePosition { source, dewey } => {
                write!(
                    f,
                    "cannot place subtree {dewey} of {source:?}: an earlier sibling piece is missing"
                )
            }
        }
    }
}

impl std::error::Error for ReconstructError {}

/// What the caller knows about the pieces it hands to [`reconstruct`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Coverage {
    /// Every fragment of the design was read. A piece that finds fewer
    /// siblings before it than its ordinal counts has lost one: that is
    /// [`ReconstructError::UnreachablePosition`], not a document.
    Complete,
    /// Some fragments were deliberately not read. Their pieces leave
    /// holes, so a piece whose ordinal lies past the children present is
    /// appended after them, and the result is the source document minus
    /// the subtrees not read. The caller vouches that nothing it then does
    /// with the documents can tell: it reads no path into those subtrees
    /// and no ordinal among the siblings around a hole.
    Partial,
}

/// ⋈ — reconstruct the source documents from vertically projected
/// fragments.
///
/// `pieces` is the concatenation of the fragment collections' contents,
/// owned, borrowed or shared. Returns the reconstructed documents sorted
/// by source name, node ids in document order. Pieces whose Dewey ids nest
/// (one piece's root lies inside another's subtree *slot*) are spliced
/// innermost-last, so arbitrarily deep prune/project chains reassemble
/// correctly.
pub fn reconstruct<D: Borrow<Document>>(
    pieces: &[D],
    coverage: Coverage,
) -> Result<Vec<Document>, ReconstructError> {
    // group pieces by source document
    let mut by_source: BTreeMap<&str, Vec<Piece<'_>>> = BTreeMap::new();
    for piece in pieces {
        let doc: &Document = piece.borrow();
        let origin = doc.origin.as_ref().ok_or_else(|| ReconstructError::MissingOrigin {
            doc: doc.name.clone().unwrap_or_default(),
        })?;
        by_source
            .entry(&origin.source_doc)
            .or_default()
            .push(Piece { doc, at: origin.dewey.components() });
    }
    by_source
        .into_iter()
        .map(|(source, pieces)| Merge { source, coverage }.run(pieces))
        .collect()
}

/// One fragment document and the Dewey id of its root in the source.
#[derive(Clone, Copy)]
struct Piece<'a> {
    doc: &'a Document,
    at: &'a [u32],
}

type Pending<'a> = Peekable<std::vec::IntoIter<Piece<'a>>>;

/// The rebuild of one source document.
struct Merge<'a> {
    source: &'a str,
    coverage: Coverage,
}

impl Merge<'_> {
    fn run(&self, mut pieces: Vec<Piece<'_>>) -> Result<Document, ReconstructError> {
        // ascending document order of dewey ids; the base piece (shortest
        // prefix of everything, normally the root itself) comes first
        pieces.sort_by(|a, b| a.at.cmp(b.at));
        if let Some(twice) = pieces.windows(2).find(|w| w[0].at == w[1].at) {
            return Err(ReconstructError::OverlappingPieces {
                source: self.source.to_owned(),
                dewey: dewey_text(twice[0].at),
            });
        }
        let base = pieces[0]; // a group is made by its first piece
        if pieces.iter().any(|piece| !piece.at.starts_with(base.at)) {
            return Err(ReconstructError::NoBasePiece { source: self.source.to_owned() });
        }
        let mut pending = pieces.into_iter().peekable();
        pending.next(); // the base
        let mut out = Document::new(base.doc.root_label());
        let mut at = base.at.to_vec();
        self.children(&mut out, NodeId::ROOT, base.doc, NodeId::ROOT, &mut at, &mut pending)?;
        if let Some(stranded) = pending.next() {
            // the traversal is in document order and so are the pieces:
            // one it never reached hangs under a node that is not there
            return Err(self.unreachable(stranded.at));
        }
        out.name = Some(self.source.to_owned());
        Ok(out)
    }

    /// Copy the children of `src_id` (the node at Dewey id `at` of the
    /// source) under `dst`, each piece that belongs among them at its
    /// ordinal. `at` is restored before returning.
    fn children(
        &self,
        out: &mut Document,
        dst: NodeId,
        src: &Document,
        src_id: NodeId,
        at: &mut Vec<u32>,
        pending: &mut Pending<'_>,
    ) -> Result<(), ReconstructError> {
        let depth = at.len();
        let sits_here = |piece: &Piece<'_>, at: &[u32]| {
            piece.at.len() == depth + 1 && piece.at.starts_with(at)
        };
        let mut own = src.get(src_id).and_then(|node| node.first_child());
        for ordinal in 1.. {
            at.push(ordinal);
            if let Some(piece) = pending.next_if(|piece| piece.at == &at[..]) {
                self.piece(out, dst, piece, at, pending)?;
            } else if let Some(child) = own {
                let inside = pending.peek().is_some_and(|piece| piece.at.starts_with(at));
                if inside && child.kind() == NodeKind::Element {
                    // a piece hangs somewhere below: copy node by node
                    let copy = out.add_element(dst, child.label());
                    self.children(out, copy, src, child.id(), at, pending)?;
                } else {
                    out.graft(dst, src, child.id());
                }
                own = child.next_sibling();
            } else {
                at.pop();
                break;
            }
            at.pop();
        }
        // the pieces left under this parent count more siblings before
        // them than there are
        while let Some(piece) = pending.next_if(|piece| sits_here(piece, at)) {
            if self.coverage == Coverage::Complete {
                return Err(self.unreachable(piece.at));
            }
            at.push(piece.at[depth]);
            self.piece(out, dst, piece, at, pending)?;
            at.pop();
        }
        Ok(())
    }

    /// Splice `piece` in as the last child of `dst`.
    fn piece(
        &self,
        out: &mut Document,
        dst: NodeId,
        piece: Piece<'_>,
        at: &mut Vec<u32>,
        pending: &mut Pending<'_>,
    ) -> Result<(), ReconstructError> {
        let root = out.add_element(dst, piece.doc.root_label());
        self.children(out, root, piece.doc, NodeId::ROOT, at, pending)
    }

    fn unreachable(&self, at: &[u32]) -> ReconstructError {
        ReconstructError::UnreachablePosition {
            source: self.source.to_owned(),
            dewey: dewey_text(at),
        }
    }
}

fn dewey_text(at: &[u32]) -> String {
    Dewey::from_vec(at.to_vec()).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Projection;
    use partix_path::PathExpr;
    use partix_xml::parse;

    fn named(xml: &str, name: &str) -> Document {
        let mut d = parse(xml).unwrap();
        d.name = Some(name.to_owned());
        d
    }

    fn store() -> Document {
        named(
            "<Store>\
               <Sections><Section><Name>CD</Name></Section></Sections>\
               <Items><Item><Section>CD</Section></Item><Item><Section>DVD</Section></Item></Items>\
               <Employees><Employee><Name>Ana</Name></Employee></Employees>\
             </Store>",
            "store",
        )
    }

    fn proj(p: &str, prune: &[&str]) -> Projection {
        Projection::new(
            PathExpr::parse(p).unwrap(),
            prune.iter().map(|g| PathExpr::parse(g).unwrap()).collect(),
        )
    }

    #[test]
    fn two_way_vertical_roundtrip() {
        let doc = store();
        let f1 = proj("/Store", &["/Store/Items"]).apply(&doc);
        let f2 = proj("/Store/Items", &[]).apply(&doc);
        let all: Vec<Document> = f1.into_iter().chain(f2).collect();
        let rebuilt = reconstruct(&all, Coverage::Complete).unwrap();
        assert_eq!(rebuilt.len(), 1);
        assert_eq!(rebuilt[0], doc);
        assert_eq!(rebuilt[0].name.as_deref(), Some("store"));
    }

    #[test]
    fn three_way_vertical_roundtrip() {
        // the paper's XBenchVer design: prolog / body / epilog
        let doc = named(
            "<article><prolog><title>T</title></prolog>\
             <body><abstract>A</abstract><section><heading>H</heading><p>x</p></section></body>\
             <epilog><country>BR</country></epilog></article>",
            "a1",
        );
        let f1 = proj("/article/prolog", &[]).apply(&doc);
        let f2 = proj("/article/body", &[]).apply(&doc);
        let f3 = proj("/article/epilog", &[]).apply(&doc);
        // base fragment: the article spine without the three parts
        let spine = proj(
            "/article",
            &["/article/prolog", "/article/body", "/article/epilog"],
        )
        .apply(&doc);
        let all: Vec<Document> =
            spine.into_iter().chain(f1).chain(f2).chain(f3).collect();
        let rebuilt = reconstruct(&all, Coverage::Complete).unwrap();
        assert_eq!(rebuilt[0], doc);
    }

    #[test]
    fn multiple_source_documents() {
        let d1 = store();
        let mut d2 = store();
        d2.name = Some("store2".to_owned());
        let mut frags = Vec::new();
        for d in [&d1, &d2] {
            frags.extend(proj("/Store", &["/Store/Employees"]).apply(d));
            frags.extend(proj("/Store/Employees", &[]).apply(d));
        }
        let rebuilt = reconstruct(&frags, Coverage::Complete).unwrap();
        assert_eq!(rebuilt.len(), 2);
        assert_eq!(rebuilt[0].name.as_deref(), Some("store"));
        assert_eq!(rebuilt[1].name.as_deref(), Some("store2"));
        assert_eq!(rebuilt[0], d1);
    }

    #[test]
    fn middle_position_restored() {
        // prune the MIDDLE child; reinsertion must land between siblings
        let doc = store();
        let f1 = proj("/Store", &["/Store/Items"]).apply(&doc);
        let f2 = proj("/Store/Items", &[]).apply(&doc);
        let all: Vec<Document> = f1.into_iter().chain(f2).collect();
        let rebuilt = reconstruct(&all, Coverage::Complete).unwrap();
        let labels: Vec<&str> =
            rebuilt[0].root().child_elements().map(|c| c.label()).collect();
        assert_eq!(labels, ["Sections", "Items", "Employees"]);
    }

    #[test]
    fn missing_origin_is_error() {
        let doc = store();
        assert!(matches!(
            reconstruct(&[doc], Coverage::Complete),
            Err(ReconstructError::MissingOrigin { .. })
        ));
    }

    #[test]
    fn missing_base_is_error() {
        let doc = store();
        let f2 = proj("/Store/Items", &[]).apply(&doc);
        // Items alone: its dewey (2) has no base prefix piece... it IS the
        // single piece, so it becomes the base; roundtrip then yields just
        // the Items subtree — which is legitimate (a fragment-only rebuild)
        let rebuilt = reconstruct(&f2, Coverage::Partial).unwrap();
        assert_eq!(rebuilt[0].root_label(), "Items");
    }

    #[test]
    fn overlapping_pieces_rejected() {
        let doc = store();
        let f = proj("/Store/Items", &[]).apply(&doc);
        let twice: Vec<Document> = f.iter().cloned().chain(f.iter().cloned()).collect();
        assert!(matches!(
            reconstruct(&twice, Coverage::Complete),
            Err(ReconstructError::OverlappingPieces { .. })
        ));
    }

    #[test]
    fn missing_sibling_piece_is_rejected_when_every_fragment_was_read() {
        let doc = store();
        let base = proj("/Store", &["/Store/Items", "/Store/Employees"]).apply(&doc);
        let emp = proj("/Store/Employees", &[]).apply(&doc);
        // the Items piece is gone: Employees (original ordinal 3) finds one
        // sibling where its ordinal counts two
        let all: Vec<Document> = base.into_iter().chain(emp).collect();
        assert_eq!(
            reconstruct(&all, Coverage::Complete),
            Err(ReconstructError::UnreachablePosition {
                source: "store".into(),
                dewey: "3".into()
            })
        );
    }

    #[test]
    fn fragment_declared_not_read_leaves_a_hole() {
        let doc = store();
        let base = proj("/Store", &["/Store/Items", "/Store/Employees"]).apply(&doc);
        let emp = proj("/Store/Employees", &[]).apply(&doc);
        // the same pieces, the Items fragment deliberately left out: the
        // source document minus that subtree
        let all: Vec<Document> = base.into_iter().chain(emp).collect();
        let rebuilt = reconstruct(&all, Coverage::Partial).unwrap();
        assert_ne!(rebuilt[0], doc);
        let labels: Vec<&str> =
            rebuilt[0].root().child_elements().map(|c| c.label()).collect();
        assert_eq!(labels, ["Sections", "Employees"]);
        assert_eq!(rebuilt[0].root().child_element("Employees").unwrap().text(), "Ana");
    }

    #[test]
    fn piece_without_the_piece_it_hangs_under_is_rejected() {
        // Item[2] hangs inside the Items piece; without it, and with
        // nothing else in its slot, there is no node to hang it under,
        // whatever the caller declared
        let doc = store();
        let f1 = proj("/Store", &["/Store/Items", "/Store/Employees"]).apply(&doc);
        let f3 = proj("/Store/Items/Item[2]", &[]).apply(&doc);
        let all: Vec<Document> = f1.into_iter().chain(f3).collect();
        for coverage in [Coverage::Complete, Coverage::Partial] {
            assert!(matches!(
                reconstruct(&all, coverage),
                Err(ReconstructError::UnreachablePosition { .. })
            ));
        }
    }

    #[test]
    fn borrowed_and_shared_pieces_reconstruct_alike() {
        let doc = store();
        let f1 = proj("/Store", &["/Store/Items"]).apply(&doc);
        let f2 = proj("/Store/Items", &[]).apply(&doc);
        let owned: Vec<Document> = f1.into_iter().chain(f2).collect();
        let borrowed: Vec<&Document> = owned.iter().collect();
        let shared: Vec<std::sync::Arc<Document>> =
            owned.iter().cloned().map(std::sync::Arc::new).collect();
        assert_eq!(reconstruct(&borrowed, Coverage::Complete).unwrap()[0], doc);
        assert_eq!(reconstruct(&shared, Coverage::Complete).unwrap()[0], doc);
        // node ids come out in document order: no renumbering pass
        let ids: Vec<_> = reconstruct(&owned, Coverage::Complete).unwrap()[0].ids().collect();
        assert!(ids.windows(2).all(|w| w[0].index() < w[1].index()));
    }

    #[test]
    fn deep_prune_chain() {
        // prune at two levels: Store minus Items, Items minus second Item
        let doc = store();
        let f1 = proj("/Store", &["/Store/Items"]).apply(&doc);
        let f2 = proj("/Store/Items", &["/Store/Items/Item[2]"]).apply(&doc);
        let f3 = proj("/Store/Items/Item[2]", &[]).apply(&doc);
        let all: Vec<Document> = f1.into_iter().chain(f2).chain(f3).collect();
        let rebuilt = reconstruct(&all, Coverage::Complete).unwrap();
        assert_eq!(rebuilt[0], doc);
    }
}
