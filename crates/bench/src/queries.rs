//! Reconstructed query sets.
//!
//! The paper's exact query texts live in technical report \[3], which is
//! not available; these are rebuilt from the paper's explicit
//! descriptions: *"a set of 8 queries […] including the usage of
//! predicates, text searches and aggregation operations"* (horizontal),
//! XBench-derived queries (vertical), and the horizontal set adapted to
//! the SD store plus prune-side and aggregation queries (hybrid).

/// Horizontal query set QH1–QH8 over an `Item` collection.
///
/// * QH1/QH2 — predicate selections (single section / two sections);
/// * QH3 — numeric range predicate;
/// * QH4 — existential test;
/// * QH5/QH6 — text searches (`contains`), the class the paper found
///   benefits most from horizontal fragmentation;
/// * QH7/QH8 — aggregations (`count`), including one over a text search.
pub fn horizontal(collection: &str) -> Vec<(&'static str, String)> {
    vec![
        ("QH1", format!(
            r#"for $i in collection("{collection}")/Item where $i/Section = "CD" return $i/Name"#
        )),
        ("QH2", format!(
            r#"for $i in collection("{collection}")/Item
               where $i/Section = "CD" or $i/Section = "DVD" return $i/Code"#
        )),
        ("QH3", format!(
            r#"for $i in collection("{collection}")/Item
               where number($i/Code) < 50 return $i/Name"#
        )),
        ("QH4", format!(
            r#"for $i in collection("{collection}")/Item
               where exists($i/Release) return $i/Code"#
        )),
        ("QH5", format!(
            r#"for $i in collection("{collection}")/Item
               where contains($i//Description, "good") return $i/Name"#
        )),
        ("QH6", format!(
            r#"for $i in collection("{collection}")/Item
               where $i/Section = "CD" and contains($i//Description, "good")
               return $i/Name"#
        )),
        ("QH7", format!(
            r#"count(for $i in collection("{collection}")/Item
                     where $i/Section = "BOOK" return $i)"#
        )),
        ("QH8", format!(
            r#"count(for $i in collection("{collection}")/Item
                     where contains($i//Description, "good") return $i)"#
        )),
    ]
}

/// Vertical query set QV1–QV10 over an XBench-style `article` collection.
///
/// QV1–QV3, QV5, QV6, QV9 touch a single fragment (the paper's good
/// case); QV4, QV7, QV8 need several fragments and exercise the
/// reconstruction join (the paper: *"queries Q4, Q7, Q8 and Q9 need more
/// than one fragment, they can be slowed down by fragmentation"*); QV10
/// reads every fragment, but as a count each of them sums alone.
pub fn vertical(collection: &str) -> Vec<(&'static str, String)> {
    vec![
        ("QV1", format!(
            r#"for $t in collection("{collection}")/article/prolog/title return $t"#
        )),
        ("QV2", format!(
            r#"count(collection("{collection}")/article/prolog/authors/author)"#
        )),
        ("QV3", format!(
            r#"for $p in collection("{collection}")/article/prolog
               where $p/genre = "science" return $p/title"#
        )),
        ("QV4", format!(
            r#"for $a in collection("{collection}")/article
               return ($a/prolog/title, $a/epilog/country)"#
        )),
        ("QV5", format!(
            r#"for $b in collection("{collection}")/article/body
               where contains($b/abstract, "good") return $b/abstract"#
        )),
        ("QV6", format!(
            r#"count(collection("{collection}")/article/epilog/references/reference)"#
        )),
        ("QV7", format!(
            r#"for $a in collection("{collection}")/article
               where contains($a/body/abstract, "good") return $a/prolog/title"#
        )),
        ("QV8", format!(
            r#"count(for $a in collection("{collection}")/article
                     where contains($a/prolog/title, "XML") and $a/epilog/country = "BR"
                     return $a)"#
        )),
        ("QV9", format!(
            r#"sum(for $e in collection("{collection}")/article/epilog
                   return number($e/word_count))"#
        )),
        ("QV10", format!(
            r#"count(collection("{collection}")//p)"#
        )),
    ]
}

/// Hybrid query set QY1–QY11 over an SD `Store` collection.
///
/// QY1–QY8 adapt the horizontal access patterns to the store's items
/// (the paper: *"We consider the same queries and selection criteria
/// adopted for databases ItemsSHor and ItemsLHor, with some
/// modifications"*); QY7/QY8 return whole `Item` elements — the
/// result-size trap the paper discusses. QY9/QY10 read the pruned spine
/// (the paper's Q9/Q10, which *"always perform better than the
/// centralized case"*), QY11 is the aggregation (the paper's Q11).
pub fn hybrid(collection: &str) -> Vec<(&'static str, String)> {
    vec![
        ("QY1", format!(
            r#"for $i in collection("{collection}")/Store/Items/Item
               where $i/Section = "CD" return $i/Name"#
        )),
        ("QY2", format!(
            r#"for $i in collection("{collection}")/Store/Items/Item
               where $i/Section = "DVD" return $i/Code"#
        )),
        ("QY3", format!(
            r#"for $i in collection("{collection}")/Store/Items/Item
               where number($i/Code) < 50 return $i/Name"#
        )),
        ("QY4", format!(
            r#"for $i in collection("{collection}")/Store/Items/Item
               where exists($i/Release) return $i/Code"#
        )),
        ("QY5", format!(
            r#"for $i in collection("{collection}")/Store/Items/Item
               where contains($i//Description, "good") return $i/Name"#
        )),
        ("QY6", format!(
            r#"for $i in collection("{collection}")/Store/Items/Item
               where $i/Section = "CD" and contains($i//Description, "good")
               return $i/Name"#
        )),
        ("QY7", format!(
            r#"for $i in collection("{collection}")/Store/Items/Item
               where $i/Section = "CD" return $i"#
        )),
        ("QY8", format!(
            r#"for $i in collection("{collection}")/Store/Items/Item return $i"#
        )),
        ("QY9", format!(
            r#"for $s in collection("{collection}")/Store/Sections/Section return $s/Name"#
        )),
        ("QY10", format!(
            r#"for $e in collection("{collection}")/Store/Employees/Employee return $e/Name"#
        )),
        ("QY11", format!(
            r#"count(for $i in collection("{collection}")/Store/Items/Item
                     where contains($i//Description, "good") return $i)"#
        )),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use partix_query::parse_query;

    #[test]
    fn all_queries_parse() {
        for (name, q) in horizontal("c")
            .into_iter()
            .chain(vertical("c"))
            .chain(hybrid("c"))
        {
            parse_query(&q).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn counts_match_paper_sets() {
        assert_eq!(horizontal("c").len(), 8);
        assert_eq!(vertical("c").len(), 10);
        assert_eq!(hybrid("c").len(), 11);
    }
}
