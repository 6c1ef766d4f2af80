//! Automatic indexes over a collection, as eXist builds by default
//! (structural + full-text; the paper: *"No other indexes were
//! created"*), on one postings type: an interned key → the ascending
//! slots of the documents holding it ([`Postings`]).
//!
//! * [`PathIndex`] — node **labels** and root-to-node **label paths**
//!   (`Item/Characteristics/Description`, `Item/@id`), for `exists(P)`.
//! * [`TextIndex`] — for `contains` / `starts-with`: the words of every
//!   text and attribute value (runs of alphanumerics, lowercased char by
//!   char), the pairs of consecutive words within one value, and the
//!   labels of elements with two or more text descendants. A one-word
//!   needle lies inside a word; each two consecutive needle words
//!   (t, t′) lie in a pair (W, W′), W ending in t and W′ starting with
//!   t′ — unless the match crosses text nodes, which only such an
//!   element allows.
//!
//! A probe returns a superset of the documents that satisfy the predicate
//! (the evaluator re-checks), ascending, tombstones included. Indexes
//! read a [`Document`] through its read API, so a cold collection is
//! indexed without decoding.

use partix_path::NodeTest;
use partix_xml::{Document, NodeKind};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// rustc's FxHash, one multiply per eight bytes: the index hashes every
/// word it reads twice (the word, then its pair), and SipHash doubled that.
#[derive(Debug, Default, Clone, Copy)]
struct Fx(u64);

impl Hasher for Fx {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0 = (self.0.rotate_left(5) ^ u64::from_le_bytes(word))
                .wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Interned keys, each with the ascending slots of the documents holding
/// it. A collection inserts in slot order (compaction re-inserts the
/// survivors in order), so a list only ever appends.
#[derive(Debug, Default, Clone)]
pub struct Postings<K> {
    ids: HashMap<K, u32, BuildHasherDefault<Fx>>,
    lists: Vec<Vec<u32>>,
}

impl<K: Hash + Eq> Postings<K> {
    /// Record that document `slot` holds `key`; the key's id. Only a key
    /// seen for the first time is copied.
    fn add<Q>(&mut self, key: &Q, slot: u32) -> u32
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ToOwned<Owned = K> + ?Sized,
    {
        let id = self.ids.get(key).copied().unwrap_or_else(|| {
            self.lists.push(Vec::new());
            *self.ids.entry(key.to_owned()).or_insert(self.lists.len() as u32 - 1)
        });
        let list = &mut self.lists[id as usize];
        if list.last() != Some(&slot) {
            list.push(slot);
        }
        id
    }

    /// The slots of the keys `ids` names, ascending.
    fn union(&self, ids: Vec<u32>) -> Vec<u32> {
        sorted_set(ids.into_iter().flat_map(|id| &self.lists[id as usize]).copied().collect())
    }

    /// The ids of the keys `keep` accepts, ascending.
    fn ids_where(&self, keep: impl Fn(&K) -> bool) -> Vec<u32> {
        sorted_set(self.ids.iter().filter(|(k, _)| keep(k)).map(|(_, &id)| id).collect())
    }
}

impl Postings<String> {
    /// The slots holding `key`, ascending.
    pub fn get(&self, key: &str) -> &[u32] {
        self.ids.get(key).map_or(&[], |&id| &self.lists[id as usize])
    }
}

/// Structural index: which documents contain a node with a given label,
/// and which contain a node at a given label path — eXist's automatic
/// path index, extended with the Dewey-prefix label paths that let
/// absolute child-axis probes skip documents by structure alone.
#[derive(Debug, Default, Clone)]
pub struct PathIndex {
    labels: Postings<String>,
    paths: Postings<String>,
}

impl PathIndex {
    /// Index every element and attribute of `doc` under its label and its
    /// label path: the root-to-node labels joined with `/`, an attribute's
    /// prefixed `@`.
    pub fn insert(&mut self, slot: u32, doc: &Document) {
        let mut path = String::new();
        // (node, length of the parent's label path)
        let mut stack = vec![(doc.root(), 0)];
        while let Some((node, plen)) = stack.pop() {
            path.truncate(plen);
            if plen > 0 {
                path.push('/');
            }
            if node.kind() == NodeKind::Attribute {
                path.push('@');
            }
            path.push_str(node.label());
            self.labels.add(node.label(), slot);
            self.paths.add(path.as_str(), slot);
            let children = node.children().filter(|c| c.kind() != NodeKind::Text);
            stack.extend(children.map(|c| (c, path.len())));
        }
    }

    /// Documents containing at least one node labelled `label`.
    pub fn lookup(&self, label: &str) -> &[u32] {
        self.labels.get(label)
    }

    /// Documents containing at least one node at label path `path`.
    pub fn lookup_path(&self, path: &str) -> &[u32] {
        self.paths.get(path)
    }
}

/// Inverted full-text index: words, word pairs and mixed content.
#[derive(Debug, Default, Clone)]
pub struct TextIndex {
    words: Postings<String>,
    /// (word id, id of the next word in the same value).
    pairs: Postings<(u32, u32)>,
    /// Label of an element with two or more text descendants; `""` for
    /// any such element.
    mixed: Postings<String>,
}

/// Each alphanumeric run of `text`, lowercased char by char into `word`
/// (no context, so a substring lowercases to a substring).
fn words(text: &str, word: &mut String, mut each: impl FnMut(&str)) {
    for run in text.split(|c: char| !c.is_alphanumeric()).filter(|run| !run.is_empty()) {
        word.clear();
        if run.is_ascii() {
            word.push_str(run);
            word.make_ascii_lowercase();
        } else {
            word.extend(run.chars().flat_map(char::to_lowercase));
        }
        each(word);
    }
}

impl TextIndex {
    pub fn insert(&mut self, slot: u32, doc: &Document) {
        let mut word = String::new();
        // text descendants per node, counted up to two
        let mut texts = vec![0u8; doc.len()];
        for node in doc.root().descendants_or_self() {
            let Some(value) = node.value() else { continue };
            let mut prev = None;
            words(value, &mut word, |w| {
                let id = self.words.add(w, slot);
                if let Some(prev) = prev {
                    self.pairs.add(&(prev, id), slot);
                }
                prev = Some(id);
            });
            // an ancestor at two has every ancestor above it at two
            let mut up = node.parent().filter(|_| node.kind() == NodeKind::Text);
            while let Some(element) = up.filter(|e| texts[e.id().index()] < 2) {
                texts[element.id().index()] += 1;
                if texts[element.id().index()] == 2 {
                    self.mixed.add(element.label(), slot);
                    self.mixed.add("", slot);
                }
                up = element.parent();
            }
        }
    }

    /// Documents that may hold `needle` in the string value of a node the
    /// final step `last` of a path selects (`None`: the context node).
    ///
    /// `None` when the needle has no word: the caller must scan.
    pub fn lookup_contains(&self, last: Option<&NodeTest>, needle: &str) -> Option<Vec<u32>> {
        let mut tokens = Vec::new();
        words(needle, &mut String::new(), |w| tokens.push(w.to_owned()));
        let hits = match tokens.as_slice() {
            [] => return None,
            [token] => self.words.union(self.words.ids_where(|w| w.contains(token.as_str()))),
            _ => tokens
                .windows(2)
                .map(|pair| self.pair_hits(&pair[0], &pair[1]))
                .reduce(|a, b| intersect_sorted(&a, &b))
                .expect("two words or more"),
        };
        let across_texts = match last {
            Some(NodeTest::Attribute(_)) => &[][..],
            Some(NodeTest::Name(label)) => self.mixed.get(label.as_str()),
            Some(NodeTest::AnyElement) | None => self.mixed.get(""),
        };
        Some(union_sorted(&hits, across_texts))
    }

    /// Documents with a word ending in `left` followed, in the same value,
    /// by a word starting with `right`: each pair of matching words is
    /// looked up, or every pair is read when that is fewer.
    fn pair_hits(&self, left: &str, right: &str) -> Vec<u32> {
        let ends = self.words.ids_where(|w| w.ends_with(left));
        let starts = self.words.ids_where(|w| w.starts_with(right));
        let pair_ids = if ends.len().saturating_mul(starts.len()) <= self.pairs.ids.len() {
            let each = ends.iter().flat_map(|&a| starts.iter().map(move |&b| (a, b)));
            each.filter_map(|pair| self.pairs.ids.get(&pair).copied()).collect()
        } else {
            self.pairs.ids_where(|(a, b)| {
                ends.binary_search(a).is_ok() && starts.binary_search(b).is_ok()
            })
        };
        self.pairs.union(pair_ids)
    }
}

/// The slots in both ascending lists.
pub(crate) fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    a.iter().copied().filter(|s| b.binary_search(s).is_ok()).collect()
}

/// The slots in either ascending list, ascending.
pub(crate) fn union_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    sorted_set([a, b].concat())
}

fn sorted_set(mut slots: Vec<u32>) -> Vec<u32> {
    slots.sort_unstable();
    slots.dedup();
    slots
}

#[cfg(test)]
mod tests {
    use super::*;
    use partix_xml::parse;

    fn doc(xml: &str) -> Document {
        parse(xml).unwrap()
    }

    fn text_index(xmls: &[&str]) -> TextIndex {
        let mut idx = TextIndex::default();
        for (slot, xml) in xmls.iter().enumerate() {
            idx.insert(slot as u32, &doc(xml));
        }
        idx
    }

    fn element(label: &str) -> NodeTest {
        NodeTest::Name(label.to_owned())
    }

    #[test]
    fn path_index_label_lookup() {
        let mut idx = PathIndex::default();
        idx.insert(0, &doc("<Item><Release>2005</Release></Item>"));
        idx.insert(1, &doc("<Item><Name>x</Name></Item>"));
        idx.insert(2, &doc(r#"<Item id="3"><Release>2006</Release></Item>"#));
        assert_eq!(idx.lookup("Release"), [0, 2]);
        // attributes are indexed too
        assert_eq!(idx.lookup("id"), [2]);
        assert!(idx.lookup("Nothing").is_empty());
    }

    #[test]
    fn path_index_dewey_prefix_paths() {
        let mut idx = PathIndex::default();
        idx.insert(0, &doc("<Item><Release>2005</Release></Item>"));
        idx.insert(1, &doc("<Other><Item><Release>x</Release></Item></Other>"));
        assert_eq!(idx.lookup_path("Item/Release"), [0]);
        assert_eq!(idx.lookup_path("Other/Item/Release"), [1]);
        assert!(idx.lookup_path("Release").is_empty());
    }

    #[test]
    fn postings_ascend_once_per_document() {
        let mut postings = Postings::<String>::default();
        for slot in [0, 0, 3, 3, 7] {
            postings.add("w", slot);
        }
        assert_eq!(postings.get("w"), [0, 3, 7]);
        assert!(postings.get("v").is_empty());
    }

    #[test]
    fn text_index_word_lookup() {
        let idx = text_index(&[
            "<d>a very good record</d>",
            "<d>absolute goodness</d>",
            "<d>nothing here</d>",
        ]);
        // substring semantics: "good" must reach both "good" and "goodness"
        assert_eq!(idx.lookup_contains(None, "good").unwrap(), [0, 1]);
    }

    #[test]
    fn text_index_multiword_needle() {
        let idx = text_index(&[
            "<d>a very good record</d>",
            "<d>a good lamp, a record</d>",
            "<d>so good. Records</d>",
            "<d><a>good</a><b>record</b></d>",
        ]);
        // consecutive words of one value: not two words anywhere in it,
        // and not words of two values
        let a = Some(element("a"));
        assert_eq!(idx.lookup_contains(a.as_ref(), "good record").unwrap(), [0, 2]);
        // the first word may end a longer word, the last start one
        assert_eq!(idx.lookup_contains(a.as_ref(), "ood. rec").unwrap(), [0, 2]);
        assert_eq!(idx.lookup_contains(a.as_ref(), "very good record").unwrap(), [0]);
        // `d` holds two text nodes, which a match may cross
        assert_eq!(idx.lookup_contains(None, "very good record").unwrap(), [0, 3]);
    }

    #[test]
    fn one_letter_words_walk_the_pair_vocabulary() {
        // 3 words end in `a` and 4 start with `b`: 12 candidate pairs, but
        // only 7 pairs are indexed, so the probe reads those
        let idx = text_index(&["<d>a b c d e</d>", "<d>ba bb</d>", "<d>bc ca</d>", "<d>b a</d>"]);
        assert_eq!(idx.pairs.ids.len(), 7);
        assert_eq!(idx.lookup_contains(None, "a b").unwrap(), [0, 1]);
        assert_eq!(idx.lookup_contains(None, "b c d").unwrap(), [0]);
    }

    #[test]
    fn text_index_case_insensitive_probe() {
        let idx = text_index(&["<d>Good Stuff</d>"]);
        assert_eq!(idx.lookup_contains(None, "good").unwrap(), [0]);
        assert_eq!(idx.lookup_contains(None, "GOOD stuff").unwrap(), [0]);
    }

    /// `str::to_lowercase` spells a final capital sigma `ς`, so the needle
    /// `ΑΣ` lowercased whole is no substring of `ΑΣΑ` lowercased whole.
    #[test]
    fn words_lowercase_char_by_char() {
        let idx = text_index(&["<d>ΑΣΑ</d>"]);
        assert_eq!(idx.lookup_contains(None, "ΑΣ").unwrap(), [0]);
        assert_eq!(idx.lookup_contains(None, "ΣΑ").unwrap(), [0]);
    }

    /// A needle can cross text nodes: every probe adds the documents
    /// where an element with the path's final label has two or more text
    /// descendants — none for an attribute, any such element otherwise.
    #[test]
    fn mixed_content_is_always_a_candidate() {
        let idx = text_index(&[
            "<Item><D>go<b/>od</D></Item>",
            r#"<Item a="x"><D>plain</D><E>a<b>b</b></E></Item>"#,
        ]);
        assert_eq!(idx.lookup_contains(Some(&element("D")), "good").unwrap(), [0]);
        assert_eq!(idx.lookup_contains(Some(&element("Item")), "zz").unwrap(), [0, 1]);
        assert_eq!(idx.lookup_contains(Some(&element("E")), "zz").unwrap(), [1]);
        assert_eq!(idx.lookup_contains(Some(&NodeTest::AnyElement), "zz").unwrap(), [0, 1]);
        assert_eq!(idx.lookup_contains(None, "zz").unwrap(), [0, 1]);
        let attribute = NodeTest::Attribute("a".into());
        assert!(idx.lookup_contains(Some(&attribute), "zz").unwrap().is_empty());
    }

    #[test]
    fn empty_needle_forces_scan() {
        let idx = TextIndex::default();
        assert!(idx.lookup_contains(None, "  --- ").is_none());
        assert!(idx.lookup_contains(None, "").is_none());
    }

    #[test]
    fn sorted_set_helpers_merge_correctly() {
        assert_eq!(union_sorted(&[1, 3, 5], &[2, 3, 6]), [1, 2, 3, 5, 6]);
        assert_eq!(union_sorted(&[], &[4, 9]), [4, 9]);
        assert_eq!(union_sorted(&[4, 9], &[]), [4, 9]);
        assert_eq!(intersect_sorted(&[1, 3, 5], &[2, 3, 5]), [3, 5]);
        assert_eq!(intersect_sorted(&[1, 2], &[3]), Vec::<u32>::new());
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
        assert_eq!(p1.labels.ids, p2.labels.ids);
        assert_eq!(p1.paths.ids, p2.paths.ids);
        assert_eq!(p1.lookup_path("Store/Item/@id"), p2.lookup_path("Store/Item/@id"));

        let (mut t1, mut t2) = (TextIndex::default(), TextIndex::default());
        t1.insert(3, &document);
        t2.insert(3, &view);
        assert_eq!(t1.words.ids, t2.words.ids);
        assert_eq!(t1.pairs.ids, t2.pairs.ids);
        assert_eq!(t1.mixed.ids, t2.mixed.ids);
        let section = Some(element("Section"));
        assert_eq!(t1.lookup_contains(section.as_ref(), "good one"), Some(vec![3]));
        assert_eq!(t1.lookup_contains(None, "good"), t2.lookup_contains(None, "good"));
    }
}
