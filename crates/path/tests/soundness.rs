//! Fragment pruning never drops a fragment a document could belong to:
//! whenever one document satisfies two predicates under
//! [`Predicate::eval`], [`predicates_may_cosatisfy`] says they may both
//! hold. Predicates are conjunctions of one to three comparisons on
//! `/I/C` (declared single-valued) and `/I/D` (not), each with a random
//! operator, `not` or none, and a string or number literal; `C` is absent
//! or takes one of the values that tell text from number apart, `D`
//! appears zero to two times.
//!
//! `PARTIX_PROPTEST_CASES` overrides the case count.

use partix_path::analysis::predicates_may_cosatisfy;
use partix_path::{CmpOp, PathExpr, Predicate, Value};
use partix_xml::{parse, Document, Serializer};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// Leaf values: equal as numbers and not as text, text that is no
/// number, and text Rust's `f64` parser reads as a number (`NaN`).
const POOL: &[&str] = &["5", "05", "5.0", " 5", "abc", "", "10", "099", "NaN"];
const NUMBERS: &[f64] = &[5.0, 10.0, 50.0, 99.0, 0.5];
const OPS: &[CmpOp] = &[CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];

fn cases() -> ProptestConfig {
    let cases = std::env::var("PARTIX_PROPTEST_CASES").ok().and_then(|v| v.parse().ok());
    ProptestConfig::with_cases(cases.unwrap_or(256))
}

fn pick<T: Copy>(rng: &mut TestRng, from: &[T]) -> T {
    from[rng.below(from.len())]
}

fn atom(rng: &mut TestRng) -> Predicate {
    // `C` three times in four: a contradiction needs two atoms on it
    let path = PathExpr::parse(if rng.below(4) > 0 { "/I/C" } else { "/I/D" }).unwrap();
    let value = if rng.bool() {
        Value::Str(pick(rng, POOL).to_owned())
    } else {
        Value::Num(pick(rng, NUMBERS))
    };
    let cmp = Predicate::Cmp { path, op: pick(rng, OPS), value };
    if rng.bool() {
        Predicate::Not(Box::new(cmp))
    } else {
        cmp
    }
}

fn conjunction(rng: &mut TestRng) -> Predicate {
    let mut atoms: Vec<Predicate> = (0..1 + rng.below(3)).map(|_| atom(rng)).collect();
    if atoms.len() == 1 {
        atoms.pop().expect("one atom")
    } else {
        Predicate::And(atoms)
    }
}

fn document(rng: &mut TestRng) -> Document {
    let mut xml = String::from("<I>");
    if rng.below(5) > 0 {
        xml += &format!("<C>{}</C>", pick(rng, POOL));
    }
    for _ in 0..rng.below(3) {
        xml += &format!("<D>{}</D>", pick(rng, POOL));
    }
    parse(&(xml + "</I>")).unwrap()
}

proptest! {
    #![proptest_config(cases())]

    #[test]
    fn pruning_never_separates_predicates_one_document_satisfies(seed in any::<u64>()) {
        let mut rng = TestRng::from_seed(seed);
        let (a, b, doc) = (conjunction(&mut rng), conjunction(&mut rng), document(&mut rng));
        let single = PathExpr::parse("/I/C").unwrap();
        if a.eval(&doc) && b.eval(&doc) {
            prop_assert!(
                predicates_may_cosatisfy(&a, &b, &|p: &PathExpr| *p == single),
                "{a} and {b} both hold on {:?}",
                Serializer::compact().serialize(&doc),
            );
        }
    }
}
