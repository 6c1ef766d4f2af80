//! Nesting-depth regression: `partix_xml::parse` recurses once per open
//! element, so 50 000 nested `<a>` used to overflow the stack of the thread
//! parsing them — an abort, not a panic, which no firewall catches, on a
//! path XML text reaches through `partix load` and the publisher. The
//! parser now bounds nesting ([`partix_xml::MAX_DEPTH`]) and answers with a
//! typed error; what it accepts is shallow enough to parse, serialise and
//! drop on the 2 MiB stack pool workers and connection threads run on.

use partix_xml::{parse, to_string, ParseErrorKind, MAX_DEPTH};

const STACK: usize = 2 << 20;

fn on_small_stack<T: Send + 'static>(run: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(STACK)
        .spawn(run)
        .expect("spawn")
        .join()
        .expect("the case neither panics nor overflows")
}

/// `n` elements, each the only child of the one before.
fn nested(n: usize) -> String {
    format!("{}x{}", "<a>".repeat(n), "</a>".repeat(n))
}

#[test]
fn deep_documents_are_a_typed_error_on_a_2mib_thread() {
    for n in [MAX_DEPTH + 1, 1_000, 50_000, 400_000] {
        let error = on_small_stack(move || parse(&nested(n)).map(|_| ()))
            .expect_err(&format!("{n} nested elements must not parse"));
        assert_eq!(error.kind, ParseErrorKind::TooDeep, "{n} nested elements: {error}");
        assert!(error.to_string().contains("deeper than"), "{error}");
    }
    // an unclosed run is refused at the bound too, not at its end
    let error = on_small_stack(|| parse(&"<a>".repeat(50_000)).map(|_| ()))
        .expect_err("unclosed nesting must not parse");
    assert_eq!(error.kind, ParseErrorKind::TooDeep);
}

#[test]
fn the_deepest_accepted_document_parses_serialises_and_drops_on_a_2mib_thread() {
    let text = nested(MAX_DEPTH);
    let back = on_small_stack({
        let text = text.clone();
        move || {
            let doc = parse(&text).expect("the bound itself parses");
            assert_eq!(doc.element_count(), MAX_DEPTH);
            let copy = doc.subtree(doc.root().id()).expect("root is an element");
            assert_eq!(copy, doc);
            to_string(&doc)
        }
    });
    assert_eq!(back, text);
    // siblings do not count: depth is about open elements only
    let wide = format!("<r>{}</r>", "<a><b/></a>".repeat(10_000));
    assert_eq!(on_small_stack(move || parse(&wide).map(|d| d.element_count())), Ok(20_001));
}
