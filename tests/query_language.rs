//! Broad coverage of the XQuery subset through the storage engine —
//! the query-language surface a downstream user would rely on.

use partix::query::Item;
use partix::storage::Database;
use partix::xml::parse;

fn db() -> Database {
    let db = Database::new();
    let docs = [
        (
            "b1",
            r#"<book year="2003"><title>Data on the Web</title><price>39.95</price>
               <authors><author>Abiteboul</author><author>Buneman</author></authors>
               <topic>databases</topic></book>"#,
        ),
        (
            "b2",
            r#"<book year="1999"><title>XML Handbook</title><price>49.50</price>
               <authors><author>Goldfarb</author></authors>
               <topic>markup</topic></book>"#,
        ),
        (
            "b3",
            r#"<book year="2003"><title>Querying XML</title><price>65.00</price>
               <authors><author>Melton</author><author>Buxton</author></authors>
               <topic>databases</topic></book>"#,
        ),
    ];
    for (name, xml) in docs {
        let mut d = parse(xml).unwrap();
        d.name = Some(name.to_owned());
        db.store("books", d);
    }
    db
}

fn run(q: &str) -> Vec<String> {
    let out = db().execute(q).unwrap_or_else(|e| panic!("{q}: {e}"));
    out.items.iter().map(Item::serialize).collect()
}

fn run1(q: &str) -> String {
    let out = run(q);
    assert_eq!(out.len(), 1, "{q} returned {out:?}");
    out.into_iter().next().unwrap()
}

#[test]
fn attribute_predicates_and_results() {
    assert_eq!(
        run(r#"for $b in collection("books")/book where $b/@year = "2003" return $b/title"#)
            .len(),
        2
    );
    assert_eq!(
        run1(r#"count(for $b in collection("books")/book where $b/@year = "1999" return $b)"#),
        "1"
    );
}

#[test]
fn string_functions_compose() {
    assert_eq!(
        run1(
            r#"string-join(for $b in collection("books")/book
                           where $b/topic = "markup"
                           return string($b/title), "; ")"#
        ),
        "XML Handbook"
    );
    assert_eq!(
        run1(r#"concat("total: ", string(count(collection("books")/book)))"#),
        "total: 3"
    );
    assert_eq!(
        run1(r#"string-length(string(min(collection("books")/book/price)))"#),
        "5" // "39.95"
    );
}

#[test]
fn distinct_values_over_topics() {
    let out = run(r#"distinct-values(collection("books")/book/topic)"#);
    assert_eq!(out, ["databases", "markup"]);
}

#[test]
fn nested_element_construction() {
    let out = run1(
        r#"for $b in collection("books")/book
           where $b/title = "XML Handbook"
           return <entry lang="en"><t>{$b/title}</t><y>{string($b/@year)}</y></entry>"#,
    );
    assert_eq!(
        out,
        r#"<entry lang="en"><t><title>XML Handbook</title></t><y>1999</y></entry>"#
    );
}

#[test]
fn order_by_string_and_numeric_keys() {
    let by_title = run(
        r#"for $b in collection("books")/book order by string($b/title) return $b/title"#,
    );
    assert_eq!(
        by_title,
        [
            "<title>Data on the Web</title>",
            "<title>Querying XML</title>",
            "<title>XML Handbook</title>"
        ]
    );
    let by_price_desc = run(
        r#"for $b in collection("books")/book
           order by number($b/price) descending return $b/price"#,
    );
    assert_eq!(
        by_price_desc,
        ["<price>65.00</price>", "<price>49.50</price>", "<price>39.95</price>"]
    );
}

#[test]
fn arithmetic_in_return_and_where() {
    // prices with 10% discount, cheapest first
    let discounted = run(
        r#"for $b in collection("books")/book
           where $b/price * 0.9 < 45
           order by number($b/price)
           return round($b/price * 0.9)"#,
    );
    assert_eq!(discounted, ["36", "45"]); // 39.95*0.9≈36, 49.50*0.9≈44.6
    let third: f64 = run1(r#"sum(collection("books")/book/price) div 3"#)
        .parse()
        .unwrap();
    assert!((third - 51.4833).abs() < 0.001);
}

#[test]
fn conditionals_classify() {
    let out = run(
        r#"for $b in collection("books")/book
           order by number($b/price)
           return if ($b/price > 50) then concat(string($b/title), " [pricey]")
                  else string($b/title)"#,
    );
    assert_eq!(
        out,
        ["Data on the Web", "XML Handbook", "Querying XML [pricey]"]
    );
}

#[test]
fn nested_flwor_correlated() {
    // books sharing a topic with "Data on the Web" (excluding itself)
    let out = run(
        r#"for $b in collection("books")/book
           where count(for $o in collection("books")/book
                       where $o/topic = $b/topic and $o/title != $b/title
                       return $o) > 0
           return $b/title"#,
    );
    assert_eq!(out.len(), 2);
}

#[test]
fn sequences_and_empties() {
    assert_eq!(run("()").len(), 0);
    let out = run(r#"(1, "two", count(collection("books")/book))"#);
    assert_eq!(out, ["1", "two", "3"]);
    assert_eq!(
        run(r#"for $b in collection("books")/book where $b/missing = "x" return $b"#).len(),
        0
    );
    assert_eq!(run1(r#"count(collection("books")/book/missing)"#), "0");
}

#[test]
fn let_bindings_shadow_and_reuse() {
    let out = run1(
        r#"for $b in collection("books")/book
           let $t := $b/title
           let $n := string-length(string($t))
           where $b/topic = "markup"
           return $n"#,
    );
    assert_eq!(out, "12"); // "XML Handbook"
}

#[test]
fn min_max_avg_over_prices() {
    assert_eq!(run1(r#"min(collection("books")/book/price)"#), "39.95");
    assert_eq!(run1(r#"max(collection("books")/book/price)"#), "65");
    let avg: f64 = run1(r#"avg(collection("books")/book/price)"#).parse().unwrap();
    assert!((avg - 51.483).abs() < 0.01);
}

#[test]
fn starts_with_and_contains() {
    assert_eq!(
        run1(
            r#"count(for $b in collection("books")/book
                     where starts-with($b/title, "XML") return $b)"#
        ),
        "1"
    );
    assert_eq!(
        run1(
            r#"count(for $b in collection("books")/book
                     where contains($b/authors, "Buneman") return $b)"#
        ),
        "1"
    );
}

#[test]
fn doc_function_addresses_one_document() {
    let db = db();
    let out = db.execute(r#"doc("b2")/book/title"#).unwrap();
    assert_eq!(out.items[0].serialize(), "<title>XML Handbook</title>");
    assert!(db.execute(r#"doc("nope")/book"#).is_err());
}

#[test]
fn comments_and_whitespace_tolerated() {
    assert_eq!(
        run1(
            r#"(: how many books? :)
               count( (: inline :) collection("books")/book )"#
        ),
        "3"
    );
}
