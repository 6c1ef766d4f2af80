//! Nesting-depth regression: a query or predicate text that nests
//! thousands of levels used to overflow the stack of the thread parsing
//! it — a 2 MiB connection or pool thread aborts the whole server, and an
//! abort is not a panic anyone can catch. Both parsers now bound nesting
//! (`partix_path::MAX_DEPTH`) and answer with a typed error; what they do
//! accept is shallow enough to lower, evaluate and drop on such a thread.
//!
//! Every case runs on a thread with the 2 MiB stack connection threads
//! and pool workers get.

use partix_path::{PathExpr, Predicate, MAX_DEPTH};
use partix_query::{parse_query, Evaluator, MemProvider};

const STACK: usize = 2 << 20;

fn on_small_stack<T: Send + 'static>(run: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(STACK)
        .spawn(run)
        .expect("spawn")
        .join()
        .expect("the case neither panics nor overflows")
}

/// `open` × n, `core`, `close` × n.
fn nest(open: &str, core: &str, close: &str, n: usize) -> String {
    format!("{}{core}{}", open.repeat(n), close.repeat(n))
}

fn hostile_queries(n: usize) -> Vec<(&'static str, String)> {
    vec![
        ("parentheses", nest("(", "1", ")", n)),
        ("calls", nest("count(", "1", ")", n)),
        ("conditionals", nest("if (1) then 1 else ", "1", "", n)),
        ("constructors", nest("<a>", "", "</a>", n)),
        ("unary minus", nest("-", "1", "", n)),
        ("braced constructors", nest("<a>{", "1", "}</a>", n)),
        ("operator chain", nest("1 + ", "1", "", n)),
        ("multiplication chain", nest("1 * ", "1", "", n)),
        ("clause chain", format!("for {} return 1", nest("$x in 1, ", "$y in 1", "", n))),
        ("long path", format!("collection(\"c\"){}", "/a".repeat(n))),
    ]
}

#[test]
fn deep_queries_are_a_typed_error_on_a_2mib_thread() {
    for n in [1_000, 30_000, 100_000] {
        for (shape, text) in hostile_queries(n) {
            let error = on_small_stack(move || parse_query(&text).map(|_| ()))
                .expect_err(&format!("{n} nested {shape} must not parse"));
            assert!(
                error.message.contains("deeper than") || error.message.contains("longer than"),
                "{n} nested {shape}: {error}"
            );
        }
    }
}

#[test]
fn deep_predicates_and_paths_are_a_typed_error_on_a_2mib_thread() {
    for n in [1_000, 10_000, 100_000] {
        for (shape, text) in [("not(", nest("not(", "/a", ")", n)), ("(", nest("(", "/a", ")", n))]
        {
            let error = on_small_stack(move || Predicate::parse(&text).map(|_| ()))
                .expect_err(&format!("{n} nested {shape} must not parse"));
            assert!(error.message.contains("deeper than"), "{n} nested {shape}: {error}");
        }
        let long = "/a".repeat(n);
        on_small_stack(move || PathExpr::parse(&long).map(|_| ()))
            .expect_err("a path of {n} steps must not parse");
    }
}

/// What the bound lets through is processed on the same small stack:
/// parsed, lowered, evaluated, dropped.
#[test]
fn the_deepest_accepted_queries_evaluate_on_a_2mib_thread() {
    // each shape at the deepest nesting its text still parses at
    for (shape, _) in hostile_queries(1) {
        let deepest = (1..=MAX_DEPTH)
            .rev()
            .find(|&n| {
                let text = hostile_queries(n).into_iter().find(|(s, _)| *s == shape).unwrap().1;
                on_small_stack(move || parse_query(&text).is_ok())
            })
            .unwrap_or_else(|| panic!("no depth of {shape} parses"));
        assert!(deepest >= MAX_DEPTH / 2 - 2, "{shape} only parses to depth {deepest}");
        let text = hostile_queries(deepest).into_iter().find(|(s, _)| *s == shape).unwrap().1;
        on_small_stack(move || {
            let query = parse_query(&text).expect("parses at this depth");
            let mut provider = MemProvider::new();
            provider.add_collection("c", [partix_xml::parse("<a><a><a/></a></a>").unwrap()]);
            let _ = std::hint::black_box(Evaluator::new(&provider).eval(&query));
            let copy = query.clone();
            drop(query);
            drop(copy);
        });
    }
    let predicate = nest("not(", "/a", ")", MAX_DEPTH);
    on_small_stack(move || {
        let predicate = Predicate::parse(&predicate).expect("parses at the bound");
        let doc = partix_xml::parse("<a/>").unwrap();
        assert!(predicate.eval(&doc), "an even number of negations");
        assert_eq!(Predicate::parse(&predicate.to_string()).unwrap(), predicate);
    });
}
