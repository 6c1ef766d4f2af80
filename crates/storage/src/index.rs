//! Automatic indexes over a collection.
//!
//! Three indexes are maintained per collection, mirroring what eXist
//! builds by default (full-text + structural) plus the optional value
//! index:
//!
//! * [`PathIndex`] — structural index keyed two ways: by node **label**
//!   and by the node's full root-to-node **label path** (its Dewey prefix
//!   spelled in labels, e.g. `Item/Characteristics/Description` or
//!   `Item/@id`). Serves existential probes (`exists(P)`): an absolute
//!   child-axis path probes its exact label path, anything else falls
//!   back to the final label.
//! * [`ValueIndex`] — equality index over leaf values, also keyed both by
//!   label and by label path. Serves `/Item[Section = "CD"]` without
//!   touching non-matching documents; consulted only when the value index
//!   is switched on.
//! * [`TextIndex`] — an inverted word index over all text content,
//!   serving `contains()` text searches. Lookup is *sound*: a
//!   `contains(needle)` probe returns every document whose vocabulary has
//!   a word containing the needle's longest token as a substring, so no
//!   qualifying document is ever missed (the evaluator re-checks exact
//!   semantics afterwards).
//!
//! All probes return **authoritative supersets**: every document that
//! could satisfy the predicate is in the candidate set, and the evaluator
//! re-checks exact semantics on the candidates. For the value index this
//! requires care with elements whose string value spans *multiple* text
//! nodes: a comparison like `Section = "CD"` is against the concatenated
//! subtree text, so leaf elements are indexed under their concatenated
//! text-child value (including `""` for empty elements), and elements
//! with element children are recorded in a per-key **opaque** set that is
//! unioned into every probe — those documents are re-scanned rather than
//! wrongly ruled out.
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

/// Per-key entry of the value index: exact values seen for the key, plus
/// the documents where the key occurs on an element whose string value the
/// index cannot represent (element children ⇒ value spans subtrees).
#[derive(Debug, Default, Clone)]
struct ValueSlot {
    /// value → docs containing a node with this key and exactly this value.
    values: HashMap<String, DocSet>,
    /// Docs where this key occurs opaquely; unioned into every probe.
    opaque: DocSet,
}

/// Equality index on leaf values, keyed by label and by label path.
#[derive(Debug, Default, Clone)]
pub struct ValueIndex {
    by_label: HashMap<String, ValueSlot>,
    by_path: HashMap<String, ValueSlot>,
}

impl ValueIndex {
    /// Index every attribute and element of `doc`.
    pub fn insert(&mut self, slot: u32, doc: &Document) {
        walk_paths(doc, |node, path| match node.kind() {
            NodeKind::Attribute => {
                // label-keyed probes use the bare attribute name (a final
                // `@a` test and a final `a` name test share the label
                // namespace in relative-path fallbacks); path keys carry
                // the `@` marker so `Item/@id` and `Item/id` stay distinct
                let value = node.value().unwrap_or("");
                for slot_map in [
                    self.by_label.entry(node.label().to_owned()).or_default(),
                    self.by_path.entry(path.to_owned()).or_default(),
                ] {
                    slot_map.values.entry(value.to_owned()).or_default().insert(slot);
                }
            }
            NodeKind::Element => {
                // a leaf element's string value is the concatenation of
                // its text children; an element with element children has
                // a composite string value the index does not store
                let mut concat = String::new();
                let mut composite = false;
                for c in node.children() {
                    match c.kind() {
                        NodeKind::Element => composite = true,
                        NodeKind::Text => concat.push_str(c.value().unwrap_or("")),
                        NodeKind::Attribute => {}
                    }
                }
                for slot_map in [
                    self.by_label.entry(node.label().to_owned()).or_default(),
                    self.by_path.entry(path.to_owned()).or_default(),
                ] {
                    if composite {
                        slot_map.opaque.insert(slot);
                    } else {
                        slot_map.values.entry(concat.clone()).or_default().insert(slot);
                    }
                }
            }
            NodeKind::Text => {}
        });
    }

    /// Documents that may contain a node labelled `label` whose string
    /// value equals `value`. Authoritative superset: an empty result
    /// means no document qualifies. Allocation-free on the probe path.
    pub fn candidates_by_label(&self, label: &str, value: &str) -> Vec<u32> {
        Self::candidates(self.by_label.get(label), value)
    }

    /// Documents that may contain a node at label path `path` (e.g.
    /// `Item/Section`, `Item/@id`) whose string value equals `value`.
    pub fn candidates_by_path(&self, path: &str, value: &str) -> Vec<u32> {
        Self::candidates(self.by_path.get(path), value)
    }

    fn candidates(entry: Option<&ValueSlot>, value: &str) -> Vec<u32> {
        let Some(entry) = entry else { return Vec::new() };
        let mut out: Vec<u32> = match entry.values.get(value) {
            Some(set) => set.union(&entry.opaque).copied().collect(),
            None => entry.opaque.iter().copied().collect(),
        };
        out.sort_unstable();
        out
    }

    /// Number of distinct `(label, value)` entries.
    pub fn entry_count(&self) -> usize {
        self.by_label.values().map(|s| s.values.len()).sum()
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
    fn value_index_leaf_elements() {
        let mut idx = ValueIndex::default();
        idx.insert(0, &doc("<Item><Section>CD</Section></Item>"));
        idx.insert(1, &doc("<Item><Section>DVD</Section></Item>"));
        idx.insert(2, &doc("<Item><Section>CD</Section></Item>"));
        assert_eq!(idx.candidates_by_label("Section", "CD"), [0, 2]);
        assert!(idx.candidates_by_label("Section", "BOOK").is_empty());
        assert!(idx.candidates_by_label("Name", "CD").is_empty());
    }

    #[test]
    fn value_index_path_keys() {
        let mut idx = ValueIndex::default();
        idx.insert(0, &doc("<Item><Section>CD</Section></Item>"));
        idx.insert(1, &doc("<Item><Other><Section>CD</Section></Other></Item>"));
        // the path key separates same-labelled nodes at different depths
        assert_eq!(idx.candidates_by_path("Item/Section", "CD"), [0]);
        assert_eq!(idx.candidates_by_path("Item/Other/Section", "CD"), [1]);
        // the label key still reaches both
        assert_eq!(idx.candidates_by_label("Section", "CD"), [0, 1]);
    }

    #[test]
    fn value_index_attributes() {
        let mut idx = ValueIndex::default();
        idx.insert(0, &doc(r#"<a id="7"/>"#));
        assert_eq!(idx.candidates_by_label("id", "7"), [0]);
        assert_eq!(idx.candidates_by_path("a/@id", "7"), [0]);
    }

    #[test]
    fn value_index_empty_elements_are_probeable() {
        // string value of <Section/> is "" — a probe for "" must find it
        let mut idx = ValueIndex::default();
        idx.insert(0, &doc("<Item><Section/></Item>"));
        idx.insert(1, &doc("<Item><Section>CD</Section></Item>"));
        assert_eq!(idx.candidates_by_label("Section", ""), [0]);
        assert_eq!(idx.candidates_by_path("Item/Section", ""), [0]);
    }

    #[test]
    fn value_index_composite_elements_stay_candidates() {
        // <Section><b>C</b>D</Section> has string value "CD" spanning two
        // text nodes; the index cannot prove or refute equality, so the
        // document must stay in the candidate set for ANY probed value
        let mut idx = ValueIndex::default();
        idx.insert(0, &doc("<Item><Section><b>C</b>D</Section></Item>"));
        idx.insert(1, &doc("<Item><Section>CD</Section></Item>"));
        assert_eq!(idx.candidates_by_label("Section", "CD"), [0, 1]);
        assert_eq!(idx.candidates_by_label("Section", "ZZZ"), [0]);
        assert_eq!(idx.candidates_by_path("Item/Section", "CD"), [0, 1]);
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

        let (mut v1, mut v2) = (ValueIndex::default(), ValueIndex::default());
        v1.insert(3, &document);
        v2.insert(3, &view);
        for (label, value) in
            [("Section", "CD"), ("Section", "DVD"), ("id", "2"), ("D", ""), ("D", "good one")]
        {
            assert_eq!(
                v1.candidates_by_label(label, value),
                v2.candidates_by_label(label, value),
                "label probe {label}={value}"
            );
        }
        assert_eq!(
            v1.candidates_by_path("Store/Item/Section", "CD"),
            v2.candidates_by_path("Store/Item/Section", "CD"),
        );

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
