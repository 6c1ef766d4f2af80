//! Automatic indexes over a collection.
//!
//! Two indexes are maintained per collection, mirroring what eXist
//! builds by default (structural + full-text; the paper: *"No other
//! indexes were created"*):
//!
//! * [`PathIndex`] — structural index keyed two ways: by node **label**
//!   and by the node's full root-to-node **label path** (its Dewey prefix
//!   spelled in labels, e.g. `Item/Characteristics/Description` or
//!   `Item/@id`). Serves existential probes (`exists(P)`): an absolute
//!   child-axis path probes its exact label path, anything else falls
//!   back to the final label.
//! * [`TextIndex`] — an inverted word index over all text content,
//!   serving `contains()` text searches. Lookup is *sound*: a
//!   `contains(needle)` probe returns every document whose vocabulary has
//!   a word containing the needle's longest token as a substring, so no
//!   qualifying document is ever missed (the evaluator re-checks exact
//!   semantics afterwards).
//!
//! All probes return **authoritative supersets**: every document that
//! could satisfy the predicate is in the candidate set, and the evaluator
//! re-checks exact semantics on the candidates.
//!
//! Indexes build from a [`Document`] through its read API, so a cold
//! collection indexes a page-backed document without decoding it.

use partix_xml::{Document, NodeKind, NodeRef};
use std::collections::{HashMap, HashSet};

/// Set of document slots (indices into the collection's slot vector).
pub type DocSet = HashSet<u32>;

/// Walk every node of `doc`, calling `visit(node, label_path)`. The label path of a node is its
/// root-to-node label sequence joined with `/`; attribute segments are
/// prefixed `@`. Text nodes are visited with their parent's path.
fn walk_paths(doc: &Document, mut visit: impl FnMut(NodeRef<'_>, &str)) {
    let mut path = String::new();
    // (node, length of the parent's label path)
    let mut stack = vec![(doc.root(), 0)];
    while let Some((node, plen)) = stack.pop() {
        path.truncate(plen);
        let kind = node.kind();
        if kind != NodeKind::Text {
            if !path.is_empty() {
                path.push('/');
            }
            if kind == NodeKind::Attribute {
                path.push('@');
            }
            path.push_str(node.label());
        }
        visit(node, &path);
        stack.extend(node.children().map(|c| (c, path.len())));
    }
}

/// Structural index: which documents contain a node with a given label,
/// and which contain a node at a given label path — eXist's automatic
/// path index, extended with the Dewey-prefix label paths that let
/// absolute child-axis probes skip documents by structure alone.
#[derive(Debug, Default, Clone)]
pub struct PathIndex {
    labels: HashMap<String, DocSet>,
    paths: HashMap<String, DocSet>,
}

impl PathIndex {
    pub fn insert(&mut self, slot: u32, doc: &Document) {
        walk_paths(doc, |node, path| {
            if node.kind() != NodeKind::Text {
                self.labels.entry(node.label().to_owned()).or_default().insert(slot);
                self.paths.entry(path.to_owned()).or_default().insert(slot);
            }
        });
    }

    /// Documents containing at least one node labelled `label`.
    pub fn lookup(&self, label: &str) -> Option<&DocSet> {
        self.labels.get(label)
    }

    /// Documents containing at least one node at label path `path`.
    pub fn lookup_path(&self, path: &str) -> Option<&DocSet> {
        self.paths.get(path)
    }

    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    pub fn path_count(&self) -> usize {
        self.paths.len()
    }
}

/// Inverted full-text index.
#[derive(Debug, Default, Clone)]
pub struct TextIndex {
    /// lower-cased word → docs.
    words: HashMap<String, DocSet>,
}

impl TextIndex {
    pub fn insert(&mut self, slot: u32, doc: &Document) {
        for node in doc.root().descendants_or_self() {
            if let Some(value) = node.value() {
                for word in tokenize(value) {
                    self.words.entry(word).or_default().insert(slot);
                }
            }
        }
    }

    /// Documents that may contain `needle` as a substring of their text.
    ///
    /// Returns `None` when the needle has no usable token (the caller
    /// must scan everything). The result is a superset of the documents
    /// whose text contains `needle`.
    pub fn lookup_contains(&self, needle: &str) -> Option<DocSet> {
        let token = longest_token(needle)?;
        let mut out = DocSet::new();
        for (word, docs) in &self.words {
            if word.contains(&token) {
                out.extend(docs.iter().copied());
            }
        }
        Some(out)
    }

    pub fn vocabulary_size(&self) -> usize {
        self.words.len()
    }
}

fn tokenize(text: &str) -> impl Iterator<Item = String> + '_ {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|w| !w.is_empty())
        .map(str::to_lowercase)
}

/// The longest alphanumeric token of a needle — the most selective probe.
fn longest_token(needle: &str) -> Option<String> {
    tokenize(needle).max_by_key(String::len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use partix_xml::parse;

    fn doc(xml: &str) -> Document {
        parse(xml).unwrap()
    }

    #[test]
    fn path_index_label_lookup() {
        let mut idx = PathIndex::default();
        idx.insert(0, &doc("<Item><Release>2005</Release></Item>"));
        idx.insert(1, &doc("<Item><Name>x</Name></Item>"));
        idx.insert(2, &doc(r#"<Item id="3"><Release>2006</Release></Item>"#));
        let hits = idx.lookup("Release").unwrap();
        assert_eq!(hits.len(), 2);
        assert!(hits.contains(&0) && hits.contains(&2));
        // attributes are indexed too
        assert!(idx.lookup("id").unwrap().contains(&2));
        assert!(idx.lookup("Nothing").is_none());
    }

    #[test]
    fn path_index_dewey_prefix_paths() {
        let mut idx = PathIndex::default();
        idx.insert(0, &doc("<Item><Release>2005</Release></Item>"));
        idx.insert(1, &doc("<Other><Item><Release>x</Release></Item></Other>"));
        let hits = idx.lookup_path("Item/Release").unwrap();
        assert_eq!(hits.len(), 1);
        assert!(hits.contains(&0));
        assert!(idx.lookup_path("Other/Item/Release").unwrap().contains(&1));
        assert!(idx.lookup_path("Release").is_none());
        assert!(idx.path_count() >= 4);
    }

    #[test]
    fn text_index_word_lookup() {
        let mut idx = TextIndex::default();
        idx.insert(0, &doc("<d>a very good record</d>"));
        idx.insert(1, &doc("<d>absolute goodness</d>"));
        idx.insert(2, &doc("<d>nothing here</d>"));
        // substring semantics: "good" must reach both "good" and "goodness"
        let hits = idx.lookup_contains("good").unwrap();
        assert!(hits.contains(&0) && hits.contains(&1));
        assert!(!hits.contains(&2));
    }

    #[test]
    fn text_index_multiword_needle() {
        let mut idx = TextIndex::default();
        idx.insert(0, &doc("<d>a very good record</d>"));
        // longest token of "good record" is "record"
        let hits = idx.lookup_contains("good record").unwrap();
        assert!(hits.contains(&0));
    }

    #[test]
    fn text_index_case_insensitive_probe() {
        let mut idx = TextIndex::default();
        idx.insert(0, &doc("<d>Good Stuff</d>"));
        assert!(idx.lookup_contains("good").unwrap().contains(&0));
    }

    #[test]
    fn empty_needle_forces_scan() {
        let idx = TextIndex::default();
        assert!(idx.lookup_contains("  --- ").is_none());
        assert!(idx.lookup_contains("").is_none());
    }

    #[test]
    fn indexes_build_identically_from_a_page_backed_document() {
        let xml = r#"<Store><Item id="1"><Section>CD</Section><D>good one</D></Item>
                     <Item id="2"><Section><b>D</b>VD</Section><D/></Item></Store>"#;
        let document = doc(xml);
        let view = Document::from_page(partix_xml::binary::encode(&document)).unwrap();

        let (mut p1, mut p2) = (PathIndex::default(), PathIndex::default());
        p1.insert(3, &document);
        p2.insert(3, &view);
        assert_eq!(p1.label_count(), p2.label_count());
        assert_eq!(p1.path_count(), p2.path_count());
        assert_eq!(p1.lookup_path("Store/Item/@id"), p2.lookup_path("Store/Item/@id"));

        let (mut t1, mut t2) = (TextIndex::default(), TextIndex::default());
        t1.insert(3, &document);
        t2.insert(3, &view);
        assert_eq!(t1.vocabulary_size(), t2.vocabulary_size());
        assert_eq!(t1.lookup_contains("good"), t2.lookup_contains("good"));
    }
}
