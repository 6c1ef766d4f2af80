//! Result composition: combining per-fragment partial results.
//!
//! Non-aggregate queries concatenate partials in fragment-definition
//! order (the horizontal reconstruction `∪`). Distributive aggregates are
//! evaluated *locally on each node* and combined here — the paper
//! highlights `count` as "entirely evaluated in parallel, not requiring
//! additional time for reconstructing the global result".

use partix_query::ast::{Expr, Query};
use partix_query::{Item, Sequence};

/// How a query's result decomposes over fragments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Composition {
    /// Concatenate partial sequences (σ/π queries).
    Concat,
    /// `count` partials are summed.
    CountSum,
    /// `sum` partials are summed.
    SumSum,
    /// `min`/`max` partials are reduced with the same function.
    MinMin,
    MaxMax,
    /// `avg` is computed from per-fragment `sum` and `count` partials.
    Avg,
}

/// Classify the top-level expression of a query.
pub fn classify(query: &Query) -> Composition {
    match &query.expr {
        Expr::Call { name, args } if args.len() == 1 => match name.as_str() {
            "count" => Composition::CountSum,
            "sum" => Composition::SumSum,
            "min" => Composition::MinMin,
            "max" => Composition::MaxMax,
            "avg" => Composition::Avg,
            _ => Composition::Concat,
        },
        _ => Composition::Concat,
    }
}

/// For [`Composition::Avg`], the two sub-queries sent to every node in
/// place of the original: `(sum-query, count-query)`.
pub fn avg_decomposition(query: &Query) -> Option<(Query, Query)> {
    let Expr::Call { name, args } = &query.expr else {
        return None;
    };
    if name != "avg" || args.len() != 1 {
        return None;
    }
    let inner = args[0].clone();
    let sum_q = Query {
        expr: Expr::Call { name: "sum".into(), args: vec![inner.clone()] },
    };
    let count_q = Query { expr: Expr::Call { name: "count".into(), args: vec![inner] } };
    Some((sum_q, count_q))
}

/// Combine partial sequences according to the composition rule.
///
/// For [`Composition::Avg`], `partials` must hold, per site, the pair
/// `[sum, count]` produced by [`avg_decomposition`]. The one error is a
/// `min` / `max` whose partials cannot be combined (see [`extreme`]).
pub fn combine(composition: Composition, partials: Vec<Sequence>) -> Result<Sequence, String> {
    Ok(match composition {
        Composition::Concat => partials.into_iter().flatten().collect(),
        Composition::CountSum | Composition::SumSum => {
            let total: f64 = partials
                .iter()
                .filter_map(|p| p.first())
                .filter_map(Item::number_value)
                .sum();
            vec![Item::Num(total)]
        }
        Composition::MinMin => extreme(partials, "min")?,
        Composition::MaxMax => extreme(partials, "max")?,
        Composition::Avg => {
            let mut total = 0.0;
            let mut count = 0.0;
            for pair in &partials {
                let s = pair.first().and_then(Item::number_value).unwrap_or(0.0);
                let c = pair.get(1).and_then(Item::number_value).unwrap_or(0.0);
                total += s;
                count += c;
            }
            if count == 0.0 {
                vec![]
            } else {
                vec![Item::Num(total / count)]
            }
        }
    })
}

/// `min` / `max` of the sites' extremes, by the evaluator's rule: by
/// number if every value is a number, else by string. A site's extreme is
/// a string exactly when one of its values is not a number, so numeric
/// partials reduce by number and string partials by string. A mix has no
/// answer here: it is the string extreme of *all* values, and a numeric
/// partial is not the string extreme of its site's values (`10` > `9`,
/// `"9"` > `"10"`).
fn extreme(partials: Vec<Sequence>, function: &str) -> Result<Sequence, String> {
    let picks: Vec<Item> = partials.into_iter().filter_map(|p| p.into_iter().next()).collect();
    let numbers: Vec<f64> = picks
        .iter()
        .filter_map(|item| match item {
            Item::Num(n) => Some(*n),
            _ => None,
        })
        .collect();
    let min = function == "min";
    if numbers.len() == picks.len() {
        let fold = if min { f64::min } else { f64::max };
        return Ok(numbers.into_iter().reduce(fold).map(Item::Num).into_iter().collect());
    }
    if !numbers.is_empty() {
        return Err(format!(
            "{function}() over fragments of which {} hold only numbers and {} a string: \
             the string {function} of the numeric ones is not known",
            numbers.len(),
            picks.len() - numbers.len()
        ));
    }
    let strings = picks.iter().map(Item::string_value);
    let pick = if min { strings.min() } else { strings.max() };
    Ok(pick.map(Item::Str).into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use partix_query::parse_query;

    #[test]
    fn classification() {
        let cases = [
            (r#"for $i in collection("c")/a return $i"#, Composition::Concat),
            (r#"count(for $i in collection("c")/a return $i)"#, Composition::CountSum),
            (r#"sum(collection("c")/a/v)"#, Composition::SumSum),
            (r#"min(collection("c")/a/v)"#, Composition::MinMin),
            (r#"max(collection("c")/a/v)"#, Composition::MaxMax),
            (r#"avg(collection("c")/a/v)"#, Composition::Avg),
            (r#"string(collection("c")/a)"#, Composition::Concat),
        ];
        for (src, expected) in cases {
            assert_eq!(classify(&parse_query(src).unwrap()), expected, "{src}");
        }
    }

    #[test]
    fn count_partials_sum() {
        let out = combine(
            Composition::CountSum,
            vec![vec![Item::Num(2.0)], vec![Item::Num(5.0)], vec![Item::Num(0.0)]],
        );
        assert_eq!(out, Ok(vec![Item::Num(7.0)]));
    }

    #[test]
    fn min_max_reduce() {
        let parts = vec![vec![Item::Num(4.0)], vec![], vec![Item::Num(9.0)]];
        assert_eq!(combine(Composition::MinMin, parts.clone()), Ok(vec![Item::Num(4.0)]));
        assert_eq!(combine(Composition::MaxMax, parts), Ok(vec![Item::Num(9.0)]));
        assert_eq!(combine(Composition::MinMin, vec![vec![], vec![]]), Ok(vec![]));
    }

    /// `min` / `max` follow the evaluator: string partials reduce by
    /// string — a numeric-looking one included — and a mix of numeric and
    /// string partials is an error, never an empty or a wrong item.
    #[test]
    fn min_max_of_strings_by_string_and_a_mix_is_an_error() {
        let s = |text: &str| vec![Item::Str(text.into())];
        let strings = vec![s("DVD"), vec![], s("BOOK"), s("9")];
        assert_eq!(combine(Composition::MinMin, strings.clone()), Ok(s("9")));
        assert_eq!(combine(Composition::MaxMax, strings), Ok(s("DVD")));
        let mixed = vec![vec![Item::Num(10.0)], s("9")];
        let err = combine(Composition::MaxMax, mixed.clone()).unwrap_err();
        assert!(err.starts_with("max() over fragments of which 1 hold only numbers"), "{err}");
        assert!(combine(Composition::MinMin, mixed).is_err());
    }

    #[test]
    fn avg_weighted_by_counts() {
        // site A: sum 10 over 2 items; site B: sum 50 over 3 items
        let out = combine(
            Composition::Avg,
            vec![
                vec![Item::Num(10.0), Item::Num(2.0)],
                vec![Item::Num(50.0), Item::Num(3.0)],
            ],
        );
        assert_eq!(out, Ok(vec![Item::Num(12.0)]));
        assert_eq!(combine(Composition::Avg, vec![]), Ok(vec![]));
    }

    #[test]
    fn avg_decomposes_into_sum_and_count() {
        let q = parse_query(r#"avg(collection("c")/a/v)"#).unwrap();
        let (s, c) = avg_decomposition(&q).unwrap();
        assert_eq!(classify(&s), Composition::SumSum);
        assert_eq!(classify(&c), Composition::CountSum);
        let non_avg = parse_query(r#"count(collection("c")/a)"#).unwrap();
        assert!(avg_decomposition(&non_avg).is_none());
    }

    #[test]
    fn concat_keeps_fragment_order() {
        let out = combine(
            Composition::Concat,
            vec![
                vec![Item::Str("a".into())],
                vec![],
                vec![Item::Str("b".into()), Item::Str("c".into())],
            ],
        )
        .unwrap();
        let strs: Vec<String> = out.iter().map(Item::string_value).collect();
        assert_eq!(strs, ["a", "b", "c"]);
    }
}
