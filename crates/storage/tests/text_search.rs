//! Text-search soundness: a `contains` / `starts-with` probe of the text
//! index shortlists every document the evaluator would select, so a
//! query answers the same with the indexes on and off — for needles that
//! cross text-node boundaries, that lowercase differently whole than char
//! by char, that span several words, and that sit in attribute values.
//!
//! `PARTIX_PROPTEST_CASES` overrides the property's case count.

use partix_query::{parse_query, pushdown, Item};
use partix_storage::{Database, StorageMode};
use partix_xml::{parse, Document, NodeId, NodeKind};
use proptest::prelude::*;

/// `query` with the indexes on, checked against the same query with them
/// off: the two answers must be equal item for item.
fn indexed_equals_scanned(db: &Database, query: &str) -> Vec<Item> {
    db.set_index_enabled(true);
    let indexed = db.execute(query).unwrap();
    db.set_index_enabled(false);
    let scanned = db.execute(query).unwrap();
    db.set_index_enabled(true);
    assert!(indexed.stats.index_used, "{query}: the text index was not probed");
    assert_eq!(indexed.items, scanned.items, "{query}: indexes on ≠ indexes off");
    indexed.items
}

fn collection(mode: StorageMode, xmls: &[&str]) -> Database {
    let db = Database::new();
    db.create_collection("items", mode).unwrap();
    for xml in xmls {
        db.store("items", parse(xml).unwrap());
    }
    db
}

/// `go<b/>od` has the string value `good`, but no text node holds the
/// word: the probe used to shortlist only the second document.
#[test]
fn a_needle_across_text_nodes_is_found_hot_and_cold() {
    for mode in [StorageMode::Hot, StorageMode::Cold] {
        let db = collection(mode, &["<Item><D>go<b/>od</D></Item>", "<Item><D>good</D></Item>"]);
        let query = r#"count(for $i in collection("items")/Item
                             where contains($i/D, "good") return $i)"#;
        assert_eq!(indexed_equals_scanned(&db, query), [Item::Num(2.0)], "{mode:?}");
    }
}

/// `str::to_lowercase` spells a word-final capital sigma `ς`: lowercased
/// whole, the needle `ΑΣ` is `ας`, which `ασα` does not contain, and the
/// probe used to shortlist nothing.
#[test]
fn a_needle_ending_in_capital_sigma_is_found_hot_and_cold() {
    for mode in [StorageMode::Hot, StorageMode::Cold] {
        let db = collection(mode, &["<Item><D>ΑΣΑ</D></Item>"]);
        let query = r#"count(for $i in collection("items")/Item
                             where contains($i/D, "ΑΣ") return $i)"#;
        assert_eq!(indexed_equals_scanned(&db, query), [Item::Num(1.0)], "{mode:?}");
    }
}

const LABELS: &[&str] = &["D", "E", "b"];

/// Word pieces that join into longer words (also across text nodes),
/// lowercase differently whole than char by char (`ΑΣ` before a
/// separator) or to more chars (`İ`), and make one-character words.
const PIECES: &[&str] = &["go", "od", "Good", "ΑΣ", "Α", "σ", "İx", "a", "B", "7", "λάμπα"];
const SEPARATORS: &[&str] = &["", "", "", " ", " ", "-", ". "];

#[derive(Debug, Clone)]
enum Tree {
    Elem { label: usize, attr: Option<String>, children: Vec<Tree> },
    Text(String),
}

fn arb_text() -> BoxedStrategy<String> {
    let piece = (prop::sample::select(SEPARATORS.to_vec()), prop::sample::select(PIECES.to_vec()));
    prop::collection::vec(piece, 0..4)
        .prop_map(|parts| parts.into_iter().map(|(sep, piece)| format!("{sep}{piece}")).collect())
        .boxed()
}

/// Mixed content: text leaves, elements with an attribute or none, and
/// elements holding text and elements side by side.
fn arb_tree() -> BoxedStrategy<Tree> {
    let attr = || prop_oneof![Just(None), arb_text().prop_map(Some)];
    let leaf = prop_oneof![
        arb_text().prop_map(Tree::Text),
        (0..LABELS.len(), attr())
            .prop_map(|(label, attr)| Tree::Elem { label, attr, children: vec![] }),
    ];
    leaf.prop_recursive(3, 16, 4, move |inner| {
        (0..LABELS.len(), attr(), prop::collection::vec(inner, 0..4))
            .prop_map(|(label, attr, children)| Tree::Elem { label, attr, children })
    })
}

fn build(doc: &mut Document, parent: NodeId, tree: &Tree) {
    match tree {
        Tree::Text(text) => {
            doc.add_text(parent, text);
        }
        Tree::Elem { label, attr, children } => {
            let element = doc.add_element(parent, LABELS[*label]);
            if let Some(value) = attr {
                doc.add_attribute(element, "k", value);
            }
            for child in children {
                build(doc, element, child);
            }
        }
    }
}

/// An `Item` numbered `n` (its `n` attribute) over random children.
fn item(n: usize, children: &[Tree]) -> Document {
    let mut doc = Document::new("Item");
    doc.add_attribute(NodeId::ROOT, "n", &n.to_string());
    for child in children {
        build(&mut doc, NodeId::ROOT, child);
    }
    doc
}

/// Where a needle may be cut from, with the path that reads it: every
/// element's string value (its text nodes joined, so a cut may cross
/// them) under its label, any element and — for the root — `$i` itself,
/// and every `k` attribute's value.
fn hays(docs: &[Document]) -> Vec<(String, String)> {
    let mut hays = Vec::new();
    for doc in docs {
        for node in doc.root().descendants_or_self() {
            let value = node.string_value().into_owned();
            match node.kind() {
                NodeKind::Element if node.label() == "Item" => hays.push((String::new(), value)),
                NodeKind::Element => {
                    hays.push((format!("//{}", node.label()), value.clone()));
                    hays.push(("//*".to_owned(), value));
                }
                NodeKind::Attribute if node.label() == "k" => hays.push(("//@k".to_owned(), value)),
                _ => {}
            }
        }
    }
    hays
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PARTIX_PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(256)
    ))]

    #[test]
    fn the_text_probe_is_a_superset_and_the_index_changes_no_answer(
        items in prop::collection::vec(prop::collection::vec(arb_tree(), 0..4), 1..6),
        pick in any::<usize>(),
        cut in (any::<usize>(), 0usize..9),
        starts in any::<bool>(),
        cold in any::<bool>(),
    ) {
        let docs: Vec<Document> = items.iter().enumerate().map(|(n, c)| item(n, c)).collect();
        let hays = hays(&docs);
        let (hay, value) = &hays[pick % hays.len()];
        let chars: Vec<char> = value.chars().collect();
        let from = cut.0 % (chars.len() + 1);
        let needle: String = chars[from..(from + cut.1).min(chars.len())].iter().collect();

        let mode = if cold { StorageMode::Cold } else { StorageMode::Hot };
        let db = Database::new();
        db.create_collection("items", mode).unwrap();
        db.store_all("items", docs.iter().cloned());
        let test = if starts { "starts-with" } else { "contains" };
        let query = format!(
            r#"for $i in collection("items")/Item where {test}($i{hay}, "{needle}")
               return string($i/@n)"#
        );
        db.set_index_enabled(false);
        let matching = db.execute(&query).unwrap().items;
        db.set_index_enabled(true);
        let indexed = db.execute(&query).unwrap();
        prop_assert_eq!(&indexed.items, &matching, "{}", query);

        let analysis = pushdown::analyze(&parse_query(&query).unwrap()).unwrap();
        let predicate = analysis.doc_predicate.expect("a pushed-down text test");
        if let Some(candidates) = db.index_candidates("items", &predicate) {
            let shortlisted: Vec<Item> = candidates
                .iter()
                .map(|d| Item::Str(d.root().attribute("n").unwrap().to_owned()))
                .collect();
            for found in &matching {
                prop_assert!(shortlisted.contains(found), "{} missed {:?}", query, found);
            }
        }
    }
}
