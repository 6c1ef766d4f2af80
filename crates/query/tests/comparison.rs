//! The comparison a `where` clause makes and the one its pushed-down
//! predicate makes are the same: for `$i/C θ v`, `v θ $i/C` and `not(…)`
//! of either, over every operator, string and number literals and leaf
//! values that tell text from number apart (an absent `C` included), the
//! evaluator keeps the one-item document exactly when
//! [`Predicate::eval`](partix_path::Predicate::eval) of
//! `pushdown::analyze`'s `doc_predicate` holds on it. That pins the
//! flipped operator and the shared comparison both.

use partix_query::{parse_query, pushdown, Evaluator, MemProvider};
use partix_xml::parse;

/// Leaf values, and literals drawn from them.
const POOL: &[&str] = &["5", "05", "5.0", " 5", "abc", "", "10", "099", "NaN"];
const NUMBERS: &[&str] = &["5", "10", "50", "99", "0.5"];
const OPS: &[&str] = &["=", "!=", "<", "<=", ">", ">="];

#[test]
fn pushdown_and_the_evaluator_agree_on_every_comparison() {
    let strings = POOL.iter().map(|s| format!("\"{s}\""));
    let literals: Vec<String> = strings.chain(NUMBERS.iter().map(|n| n.to_string())).collect();
    let values = POOL.iter().map(|v| Some(*v)).chain([None]);
    let mut checked = 0;
    for value in values {
        let xml = value.map_or("<I/>".to_owned(), |v| format!("<I><C>{v}</C></I>"));
        let mut provider = MemProvider::new();
        provider.add_collection("c", [parse(&xml).unwrap()]);
        for op in OPS {
            for literal in &literals {
                for comparison in [format!("$i/C {op} {literal}"), format!("{literal} {op} $i/C")] {
                    for condition in [comparison.clone(), format!("not({comparison})")] {
                        let text =
                            format!(r#"for $i in collection("c")/I where {condition} return $i"#);
                        let query = parse_query(&text).unwrap();
                        let kept = !Evaluator::new(&provider).eval(&query).unwrap().is_empty();
                        let predicate = pushdown::analyze(&query)
                            .and_then(|a| a.doc_predicate)
                            .unwrap_or_else(|| panic!("{text}: nothing pushed down"));
                        let doc = parse(&xml).unwrap();
                        let pushed = predicate.eval(&doc);
                        assert_eq!(kept, pushed, "{text} on {xml}: pushed down as {predicate}");
                        checked += 1;
                    }
                }
            }
        }
    }
    assert_eq!(checked, 10 * OPS.len() * (POOL.len() + NUMBERS.len()) * 4);
}
