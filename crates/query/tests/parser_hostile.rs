//! Hostile input for the XQuery lexer and parser (ROADMAP Q5 b): random
//! truncations, deletions, splices and token insertions over the four
//! query sets — NUL bytes, multi-byte characters, unterminated strings,
//! constructors and comments, `[0]`, `[99999999999]`, `1e999`.
//! `parse_query` returns a value or a typed error, never panics; and
//! whatever parses evaluates over a small collection to a value or a
//! typed error, never a panic.
//!
//! `PARTIX_PROPTEST_CASES` overrides the case count.

use partix_query::{parse_query, Evaluator, MemProvider};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

fn cases(default_cases: u32) -> ProptestConfig {
    std::env::var("PARTIX_PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .map(ProptestConfig::with_cases)
        .unwrap_or_else(|| ProptestConfig::with_cases(default_cases))
}

/// The horizontal, vertical, hybrid and warehouse query sets (over
/// collection `c`), plus the syntax they leave out.
const CORPUS: &[&str] = &[
    // QH1–QH8
    r#"for $i in collection("c")/Item where $i/Section = "CD" return $i/Name"#,
    r#"for $i in collection("c")/Item where $i/Section = "CD" or $i/Section = "DVD" return $i/Code"#,
    r#"for $i in collection("c")/Item where number($i/Code) < 50 return $i/Name"#,
    r#"for $i in collection("c")/Item where exists($i/Release) return $i/Code"#,
    r#"for $i in collection("c")/Item where contains($i//Description, "good") return $i/Name"#,
    r#"for $i in collection("c")/Item
       where $i/Section = "CD" and contains($i//Description, "good") return $i/Name"#,
    r#"count(for $i in collection("c")/Item where $i/Section = "BOOK" return $i)"#,
    r#"count(for $i in collection("c")/Item where contains($i//Description, "good") return $i)"#,
    // QV1–QV10
    r#"for $t in collection("c")/article/prolog/title return $t"#,
    r#"count(collection("c")/article/prolog/authors/author)"#,
    r#"for $p in collection("c")/article/prolog where $p/genre = "science" return $p/title"#,
    r#"for $a in collection("c")/article return ($a/prolog/title, $a/epilog/country)"#,
    r#"for $b in collection("c")/article/body where contains($b/abstract, "good") return $b/abstract"#,
    r#"count(collection("c")/article/epilog/references/reference)"#,
    r#"for $a in collection("c")/article
       where contains($a/body/abstract, "good") return $a/prolog/title"#,
    r#"count(for $a in collection("c")/article
             where contains($a/prolog/title, "XML") and $a/epilog/country = "BR" return $a)"#,
    r#"sum(for $e in collection("c")/article/epilog return number($e/word_count))"#,
    r#"count(collection("c")//p)"#,
    // QY (the shapes the horizontal set lacks)
    r#"for $i in collection("c")/Store/Items/Item where $i/Section = "CD" return $i"#,
    r#"for $s in collection("c")/Store/Sections/Section return $s/Name"#,
    // QW
    r#"sum(for $s in collection("c")/Sale where $s/Region = "NORTH" return number($s/Amount))"#,
    r#"sum(for $s in collection("c")/Sale
           where $s/Region = "EAST" and $s/Quarter = "Q4" return number($s/Units))"#,
    r#"count(for $s in collection("c")/Sale where number($s/Units) > 10 return $s)"#,
    // the rest of the language
    r#"for $i in collection("c")/Item let $d := $i//Description
       where contains($d, "jazz") order by number($i/Code) descending
       return <hit section="CD"><name>{$i/Name}</name>{"text"}</hit>"#,
    r#"for $i in collection("c")/Item, $j in collection("c")/Item
       where $i/Code = $j/Code return if ($i/Price * 2 > 20) then concat($i/Code, ":x") else -1"#,
    r#"(: a comment (: nested :) :) (1 + 2 * 3 - 4, 10 div 4, 10 mod 3, doc("d0")/Item/@id)"#,
    r#"for $i in collection("c")/Item return $i/PictureList/Picture[1]/*"#,
    r#"string-join(distinct-values(data(collection("c")/Item/Section)), ",")"#,
];

const HOSTILE: &[&str] = &[
    "\0",
    "\u{e9}",
    "\u{8a9e}",
    "\u{1f600}",
    "\"",
    "'",
    "(:",
    ":)",
    "<a>",
    "</a>",
    "<a",
    "<a/>",
    "{",
    "}",
    "[0]",
    "[99999999999]",
    "[1]",
    "1e999",
    "$",
    "$i",
    "(",
    ")",
    "//",
    "/",
    "@",
    "-",
    " for ",
    " let ",
    ":=",
    " order by ",
    " if (",
    " then ",
    " else ",
    ",",
    "*",
    " div ",
    "999999999999999999999999",
    ".5",
    "1.2.3",
    " where ",
    " return ",
    " in ",
    "=",
    "<",
    "<=",
    "!=",
    "collection(",
    "doc(\"d0\")",
    "count(",
    " and ",
    " or ",
    "\n",
    "\t",
];

fn provider() -> MemProvider {
    let mut provider = MemProvider::new();
    let docs = [
        r#"<Item id="1"><Code>1</Code><Name>Kind of Blue</Name><Section>CD</Section><Price>10</Price><Release>1959</Release><Characteristics><Description>a good jazz record</Description></Characteristics><PictureList><Picture><OriginalPath>p.jpg</OriginalPath></Picture></PictureList></Item>"#,
        r#"<Item><Code>x</Code><Name>Brazil</Name><Section>DVD</Section><Price>abc</Price></Item>"#,
        r#"<article><prolog><title>XML now</title><genre>science</genre><authors><author>a</author></authors></prolog><body><abstract>good</abstract><p>one</p></body><epilog><country>BR</country><word_count>12</word_count><references><reference>r</reference></references></epilog></article>"#,
        r#"<Sale><Region>NORTH</Region><Quarter>Q4</Quarter><Units>11</Units><Amount>2.5</Amount></Sale>"#,
    ];
    provider.add_collection(
        "c",
        docs.iter().enumerate().map(|(i, xml)| {
            let mut doc = partix_xml::parse(xml).expect("fixture parses");
            doc.name = Some(format!("d{i}"));
            doc
        }),
    );
    provider
}

/// A char-boundary position in `text`.
fn position(rng: &mut TestRng, text: &str) -> usize {
    let mut at = rng.below(text.len() + 1);
    while !text.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// The byte range of a random whitespace-separated word of `text`.
fn word(rng: &mut TestRng, text: &str) -> std::ops::Range<usize> {
    let words: Vec<&str> = text.split_whitespace().collect();
    if words.is_empty() {
        return 0..0;
    }
    let word = words[rng.below(words.len())];
    let start = word.as_ptr() as usize - text.as_ptr() as usize;
    start..start + word.len()
}

fn mutate(rng: &mut TestRng) -> String {
    let mut text = CORPUS[rng.below(CORPUS.len())].to_owned();
    for _ in 0..1 + rng.below(3) {
        match rng.below(7) {
            // word for word: these often still parse, and reach the evaluator
            4..=6 => {
                let other = CORPUS[rng.below(CORPUS.len())];
                let replacement = &other[word(rng, other)];
                let at = word(rng, &text);
                text.replace_range(at, replacement);
            }
            0 => text.truncate(position(rng, &text)),
            1 => {
                let (a, b) = (position(rng, &text), position(rng, &text));
                text.replace_range(a.min(b)..a.max(b), "");
            }
            2 => {
                let other = CORPUS[rng.below(CORPUS.len())];
                let (a, b) = (position(rng, other), position(rng, other));
                let at = position(rng, &text);
                text.insert_str(at, &other[a.min(b)..a.max(b)]);
            }
            _ => {
                let at = position(rng, &text);
                text.insert_str(at, HOSTILE[rng.below(HOSTILE.len())]);
            }
        }
    }
    text
}

proptest! {
    #![proptest_config(cases(2048))]

    #[test]
    fn mutated_queries_parse_or_fail_typed_and_evaluate_without_panic(seed in any::<u64>()) {
        let text = mutate(&mut TestRng::from_seed(seed));
        if let Ok(query) = parse_query(&text) {
            let provider = provider();
            let _ = std::hint::black_box(Evaluator::new(&provider).eval(&query));
        }
    }
}

/// The mutations start from texts that parse (and most evaluate: the
/// fixture's non-numeric `Price` makes the arithmetic one a type error).
#[test]
fn the_corpus_itself_parses() {
    let provider = provider();
    let mut evaluated = 0;
    for text in CORPUS {
        let query = parse_query(text).unwrap_or_else(|e| panic!("{text}: {e}"));
        evaluated += usize::from(Evaluator::new(&provider).eval(&query).is_ok());
    }
    assert!(evaluated >= CORPUS.len() - 1, "{evaluated} of {} evaluate", CORPUS.len());
}

/// The evaluator half of the property only bites if mutated texts still
/// parse often enough.
#[test]
fn mutations_still_reach_the_evaluator() {
    let parsed = (0..2000u64)
        .filter(|&seed| parse_query(&mutate(&mut TestRng::from_seed(seed))).is_ok())
        .count();
    assert!(parsed >= 100, "{parsed} of 2000 mutated texts parse");
}
