//! Built-in functions of the XQuery subset.
//!
//! Every built-in is implemented once, against *feeds*: `feed(i, sink)`
//! pushes the items of argument `i` into `sink`. The evaluator feeds from
//! its lowered argument expressions, so `count(…)` counts and `sum(…)`
//! adds as the items stream by; the morsel merge feeds from the sequence
//! it holds. Either way the items arrive in the same order, which keeps
//! floating-point folds bit-identical.

use crate::eval::{EvalError, Flow, Halt, Sink};
use crate::value::{format_number, Ebv, Item, ItemRef, Sequence};

/// The built-in functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Builtin {
    Count,
    Sum,
    Avg,
    Min,
    Max,
    Empty,
    Exists,
    Not,
    Contains,
    StartsWith,
    String,
    Number,
    StringLength,
    Concat,
    Data,
    DistinctValues,
    Round,
    StringJoin,
}

impl Builtin {
    const ALL: [Builtin; 18] = [
        Builtin::Count,
        Builtin::Sum,
        Builtin::Avg,
        Builtin::Min,
        Builtin::Max,
        Builtin::Empty,
        Builtin::Exists,
        Builtin::Not,
        Builtin::Contains,
        Builtin::StartsWith,
        Builtin::String,
        Builtin::Number,
        Builtin::StringLength,
        Builtin::Concat,
        Builtin::Data,
        Builtin::DistinctValues,
        Builtin::Round,
        Builtin::StringJoin,
    ];

    pub(crate) fn name(self) -> &'static str {
        match self {
            Builtin::Count => "count",
            Builtin::Sum => "sum",
            Builtin::Avg => "avg",
            Builtin::Min => "min",
            Builtin::Max => "max",
            Builtin::Empty => "empty",
            Builtin::Exists => "exists",
            Builtin::Not => "not",
            Builtin::Contains => "contains",
            Builtin::StartsWith => "starts-with",
            Builtin::String => "string",
            Builtin::Number => "number",
            Builtin::StringLength => "string-length",
            Builtin::Concat => "concat",
            Builtin::Data => "data",
            Builtin::DistinctValues => "distinct-values",
            Builtin::Round => "round",
            Builtin::StringJoin => "string-join",
        }
    }

    /// How many arguments the function takes; `None` = any number.
    pub(crate) fn arity(self) -> Option<usize> {
        match self {
            Builtin::Concat => None,
            Builtin::Contains | Builtin::StartsWith | Builtin::StringJoin => Some(2),
            _ => Some(1),
        }
    }

    /// True if a call with the right number of arguments cannot fail on
    /// any argument values.
    pub(crate) fn infallible(self) -> bool {
        !matches!(self, Builtin::Sum | Builtin::Avg)
    }

    /// The string test of `contains` / `starts-with`.
    pub(crate) fn string_test(self, hay: &str, needle: &str) -> bool {
        match self {
            Builtin::StartsWith => hay.starts_with(needle),
            _ => hay.contains(needle),
        }
    }
}

/// A called function, resolved by name once: a built-in, or a name that
/// is an error only if the call is ever evaluated.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Func {
    Builtin(Builtin),
    Unknown(String),
}

impl Func {
    pub(crate) fn named(name: &str) -> Func {
        match Builtin::ALL.into_iter().find(|b| b.name() == name) {
            Some(builtin) => Func::Builtin(builtin),
            None => Func::Unknown(name.to_owned()),
        }
    }
}

/// Pushes the items of argument `i` into a sink.
pub(crate) type Feed<'f> = dyn Fn(usize, &mut Sink<'_>) -> Flow + 'f;

/// Call `func` on `argc` arguments read through `feed`, pushing the
/// result into `out`. Every argument is read in full, in order, before an
/// unknown function or a wrong argument count is reported; with `stop`
/// (the caller knows no argument can fail) existential tests end their
/// argument at the first witness.
pub(crate) fn call(
    func: &Func,
    argc: usize,
    feed: &Feed<'_>,
    stop: bool,
    out: &mut Sink<'_>,
) -> Flow {
    let drain = || (0..argc).try_for_each(|i| feed(i, &mut |_| Ok(())));
    let builtin = match func {
        Func::Builtin(builtin) => *builtin,
        Func::Unknown(name) => {
            drain()?;
            return Err(EvalError::UnknownFunction(name.clone()).into());
        }
    };
    if let Some(expected) = builtin.arity().filter(|&n| n != argc) {
        drain()?;
        let function = builtin.name().to_owned();
        return Err(EvalError::BadArity { function, expected, found: argc }.into());
    }
    // one function per built-in: an argument that nests calls recurses
    // through this frame, which should not hold every built-in's locals
    match builtin {
        Builtin::Count => count(feed, out),
        Builtin::Sum | Builtin::Avg => total(builtin, feed, out),
        Builtin::Min | Builtin::Max => extreme(builtin, feed, out),
        Builtin::Empty | Builtin::Exists => {
            let any = any(&mut |sink| feed(0, sink), stop, |_| true)?;
            out(ItemRef::Bool(any == (builtin == Builtin::Exists)))
        }
        Builtin::Not => not(feed, out),
        Builtin::Contains | Builtin::StartsWith => string_test(builtin, feed, out),
        Builtin::String | Builtin::Concat => concat(argc, feed, out),
        Builtin::Number | Builtin::Round => {
            let first = first(&mut |sink| feed(0, sink), stop, |item| item.number_value())?;
            match first.flatten() {
                Some(n) if builtin == Builtin::Round => out(ItemRef::Num(n.round())),
                Some(n) => out(ItemRef::Num(n)),
                None => Ok(()),
            }
        }
        Builtin::StringLength => {
            let len =
                first(&mut |sink| feed(0, sink), stop, |item| item.string_value().chars().count())?;
            out(ItemRef::Num(len.unwrap_or(0) as f64))
        }
        Builtin::Data => feed(0, &mut |item| out(ItemRef::Str(&item.string_value()))),
        Builtin::DistinctValues => distinct_values(feed, out),
        Builtin::StringJoin => string_join(feed, out),
    }
}

fn count(feed: &Feed<'_>, out: &mut Sink<'_>) -> Flow {
    let mut count = 0usize;
    feed(0, &mut |_| {
        count += 1;
        Ok(())
    })?;
    out(ItemRef::Num(count as f64))
}

/// `sum` / `avg`: added up in item order.
fn total(builtin: Builtin, feed: &Feed<'_>, out: &mut Sink<'_>) -> Flow {
    // a non-numeric item is reported only once the argument has been
    // read to its end: an error in the argument comes first
    let (mut total, mut count, mut bad) = (0.0, 0usize, None);
    feed(0, &mut |item| {
        count += 1;
        match item.number_value() {
            Some(n) if bad.is_none() => total += n,
            None if bad.is_none() => bad = Some(item.string_value().into_owned()),
            _ => {}
        }
        Ok(())
    })?;
    if let Some(value) = bad {
        let name = builtin.name();
        return Err(EvalError::TypeError(format!("{name}(): item {value:?} is not numeric")).into());
    }
    match builtin {
        Builtin::Sum => out(ItemRef::Num(total)),
        _ if count == 0 => Ok(()),
        _ => out(ItemRef::Num(total / count as f64)),
    }
}

/// `min` / `max`: numeric if every item is numeric, else by string.
fn extreme(builtin: Builtin, feed: &Feed<'_>, out: &mut Sink<'_>) -> Flow {
    let items = collect(&mut |sink| feed(0, sink))?;
    if items.is_empty() {
        return Ok(());
    }
    let nums: Option<Vec<f64>> = items.iter().map(Item::number_value).collect();
    match nums {
        Some(nums) if builtin == Builtin::Min => {
            out(ItemRef::Num(nums.into_iter().fold(f64::INFINITY, f64::min)))
        }
        Some(nums) => out(ItemRef::Num(nums.into_iter().fold(f64::NEG_INFINITY, f64::max))),
        None => {
            let strs = items.iter().map(Item::string_value);
            let pick = if builtin == Builtin::Min { strs.min() } else { strs.max() };
            out(ItemRef::Str(&pick.expect("non-empty")))
        }
    }
}

fn not(feed: &Feed<'_>, out: &mut Sink<'_>) -> Flow {
    let mut ebv = Ebv::default();
    feed(0, &mut |item| {
        ebv.push(item);
        Ok(())
    })?;
    out(ItemRef::Bool(!ebv.value()))
}

/// `contains` / `starts-with` with a needle that is itself computed.
fn string_test(builtin: Builtin, feed: &Feed<'_>, out: &mut Sink<'_>) -> Flow {
    let hay = collect(&mut |sink| feed(0, sink))?;
    let needle = first_string(feed, 1)?;
    let found = hay.iter().any(|item| builtin.string_test(&item.as_ref().string_value(), &needle));
    out(ItemRef::Bool(found))
}

/// `concat` — and `string`, which is `concat` of one argument.
fn concat(argc: usize, feed: &Feed<'_>, out: &mut Sink<'_>) -> Flow {
    let mut joined = String::new();
    for i in 0..argc {
        joined.push_str(&first_string(feed, i)?);
    }
    out(ItemRef::Str(&joined))
}

fn distinct_values(feed: &Feed<'_>, out: &mut Sink<'_>) -> Flow {
    let mut seen = std::collections::HashSet::new();
    feed(0, &mut |item| {
        let value = item.string_value();
        if seen.contains(&*value) {
            return Ok(());
        }
        out(ItemRef::Str(&value))?;
        seen.insert(value.into_owned());
        Ok(())
    })
}

fn string_join(feed: &Feed<'_>, out: &mut Sink<'_>) -> Flow {
    let items = collect(&mut |sink| feed(0, sink))?;
    let sep = first_string(feed, 1)?;
    let joined = items.iter().map(Item::string_value).collect::<Vec<_>>().join(&sep);
    out(ItemRef::Str(&joined))
}

/// Everything `produce` pushes, owned.
pub(crate) fn collect(produce: &mut dyn FnMut(&mut Sink<'_>) -> Flow) -> Result<Sequence, Halt> {
    let mut items = Vec::new();
    produce(&mut |item| {
        items.push(item.to_item());
        Ok(())
    })?;
    Ok(items)
}

/// True if `holds` of some item `produce` pushes. With `stop` the
/// producer is cut short at the first such item — sound only when
/// nothing it would still do can fail.
pub(crate) fn any(
    produce: &mut dyn FnMut(&mut Sink<'_>) -> Flow,
    stop: bool,
    mut holds: impl FnMut(ItemRef<'_>) -> bool,
) -> Result<bool, Halt> {
    let mut found = false;
    let flow = produce(&mut |item| {
        if !found && holds(item) {
            found = true;
            if stop {
                return Err(Halt::Done);
            }
        }
        Ok(())
    });
    match flow {
        // only the sink above says `Done` in here, and only once found
        Err(Halt::Done) if stop && found => Ok(true),
        flow => flow.map(|()| found),
    }
}

/// `take` of the first item `produce` pushes, if any; `stop` as in [`any`].
pub(crate) fn first<T>(
    produce: &mut dyn FnMut(&mut Sink<'_>) -> Flow,
    stop: bool,
    take: impl FnOnce(ItemRef<'_>) -> T,
) -> Result<Option<T>, Halt> {
    let (mut take, mut taken) = (Some(take), None);
    any(produce, stop, |item| {
        if let Some(take) = take.take() {
            taken = Some(take(item));
        }
        true
    })?;
    Ok(taken)
}

/// String value of the first item of argument `i`; empty if it has none.
fn first_string(feed: &Feed<'_>, i: usize) -> Result<String, Halt> {
    let first = first(&mut |sink| feed(i, sink), false, |item| item.string_value().into_owned())?;
    Ok(first.unwrap_or_default())
}

/// Render a sequence the way the PartiX driver ships results: one line
/// per item.
pub fn serialize_sequence(seq: &Sequence) -> String {
    let mut out = String::new();
    for (i, item) in seq.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        match item {
            Item::Num(n) => out.push_str(&format_number(*n)),
            other => out.push_str(&other.serialize()),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dispatch a function call on already-evaluated arguments.
    fn call_function(name: &str, args: Vec<Sequence>) -> Result<Sequence, EvalError> {
        let mut out = Vec::new();
        let flow = call(
            &Func::named(name),
            args.len(),
            &|i, sink| args[i].iter().try_for_each(|item| sink(item.as_ref())),
            false,
            &mut |item| {
                out.push(item.to_item());
                Ok(())
            },
        );
        Halt::finish(flow).map(|()| out)
    }

    fn num(n: f64) -> Sequence {
        vec![Item::Num(n)]
    }

    #[test]
    fn count_sum_avg() {
        let seq = vec![Item::Num(1.0), Item::Num(2.0), Item::Num(3.0)];
        assert_eq!(call_function("count", vec![seq.clone()]).unwrap(), num(3.0));
        assert_eq!(call_function("sum", vec![seq.clone()]).unwrap(), num(6.0));
        assert_eq!(call_function("avg", vec![seq]).unwrap(), num(2.0));
        assert_eq!(call_function("count", vec![vec![]]).unwrap(), num(0.0));
        assert_eq!(call_function("sum", vec![vec![]]).unwrap(), num(0.0));
        assert_eq!(call_function("avg", vec![vec![]]).unwrap(), vec![]);
    }

    #[test]
    fn sum_type_error() {
        let seq = vec![Item::Str("abc".into())];
        assert!(matches!(
            call_function("sum", vec![seq]),
            Err(EvalError::TypeError(_))
        ));
    }

    #[test]
    fn min_max_numeric_and_string() {
        let nums = vec![Item::Num(5.0), Item::Num(2.0), Item::Num(9.0)];
        assert_eq!(call_function("min", vec![nums.clone()]).unwrap(), num(2.0));
        assert_eq!(call_function("max", vec![nums]).unwrap(), num(9.0));
        let strs = vec![Item::Str("pear".into()), Item::Str("apple".into())];
        assert_eq!(
            call_function("min", vec![strs.clone()]).unwrap(),
            vec![Item::Str("apple".into())]
        );
        assert_eq!(
            call_function("max", vec![strs]).unwrap(),
            vec![Item::Str("pear".into())]
        );
    }

    #[test]
    fn boolean_functions() {
        assert_eq!(
            call_function("empty", vec![vec![]]).unwrap(),
            vec![Item::Bool(true)]
        );
        assert_eq!(
            call_function("exists", vec![num(1.0)]).unwrap(),
            vec![Item::Bool(true)]
        );
        assert_eq!(
            call_function("not", vec![vec![Item::Bool(true)]]).unwrap(),
            vec![Item::Bool(false)]
        );
    }

    #[test]
    fn string_functions() {
        assert_eq!(
            call_function(
                "contains",
                vec![vec![Item::Str("a good record".into())], vec![Item::Str("good".into())]]
            )
            .unwrap(),
            vec![Item::Bool(true)]
        );
        assert_eq!(
            call_function(
                "concat",
                vec![vec![Item::Str("a".into())], vec![Item::Str("b".into())]]
            )
            .unwrap(),
            vec![Item::Str("ab".into())]
        );
        assert_eq!(
            call_function("string-length", vec![vec![Item::Str("maçã".into())]]).unwrap(),
            num(4.0)
        );
        assert_eq!(
            call_function(
                "string-join",
                vec![
                    vec![Item::Str("a".into()), Item::Str("b".into())],
                    vec![Item::Str(",".into())]
                ]
            )
            .unwrap(),
            vec![Item::Str("a,b".into())]
        );
    }

    #[test]
    fn distinct_values() {
        let seq = vec![
            Item::Str("CD".into()),
            Item::Str("DVD".into()),
            Item::Str("CD".into()),
        ];
        assert_eq!(
            call_function("distinct-values", vec![seq]).unwrap(),
            vec![Item::Str("CD".into()), Item::Str("DVD".into())]
        );
    }

    #[test]
    fn arity_errors() {
        assert!(matches!(
            call_function("count", vec![]),
            Err(EvalError::BadArity { .. })
        ));
        assert!(matches!(
            call_function("contains", vec![vec![]]),
            Err(EvalError::BadArity { .. })
        ));
    }

    #[test]
    fn unknown_function() {
        assert!(matches!(
            call_function("frobnicate", vec![]),
            Err(EvalError::UnknownFunction(_))
        ));
    }

    #[test]
    fn sequence_serialization() {
        let seq = vec![Item::Num(3.0), Item::Str("x".into())];
        assert_eq!(serialize_sequence(&seq), "3\nx");
    }
}
