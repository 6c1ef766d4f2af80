//! The built-ins as the reference interpreter dispatched them: by name,
//! on already-evaluated argument sequences.

use super::value::{effective_boolean, Legacy};
use partix_query::{EvalError, Item, Sequence};

/// Dispatch a function call on already-evaluated arguments.
pub fn call_function(name: &str, mut args: Vec<Sequence>) -> Result<Sequence, EvalError> {
    match name {
        "count" => {
            let arg = one_arg(name, &mut args)?;
            Ok(vec![Item::Num(arg.len() as f64)])
        }
        "sum" => {
            let arg = one_arg(name, &mut args)?;
            let mut total = 0.0;
            for item in &arg {
                total += item.legacy_number_value().ok_or_else(|| {
                    EvalError::TypeError(format!(
                        "sum(): item {:?} is not numeric",
                        item.legacy_string_value()
                    ))
                })?;
            }
            Ok(vec![Item::Num(total)])
        }
        "avg" => {
            let arg = one_arg(name, &mut args)?;
            if arg.is_empty() {
                return Ok(vec![]);
            }
            let mut total = 0.0;
            for item in &arg {
                total += item.legacy_number_value().ok_or_else(|| {
                    EvalError::TypeError(format!(
                        "avg(): item {:?} is not numeric",
                        item.legacy_string_value()
                    ))
                })?;
            }
            Ok(vec![Item::Num(total / arg.len() as f64)])
        }
        "min" | "max" => {
            let arg = one_arg(name, &mut args)?;
            if arg.is_empty() {
                return Ok(vec![]);
            }
            // numeric if every item is numeric; else string comparison
            let nums: Option<Vec<f64>> = arg.iter().map(Legacy::legacy_number_value).collect();
            match nums {
                Some(nums) => {
                    let v = if name == "min" {
                        nums.into_iter().fold(f64::INFINITY, f64::min)
                    } else {
                        nums.into_iter().fold(f64::NEG_INFINITY, f64::max)
                    };
                    Ok(vec![Item::Num(v)])
                }
                None => {
                    let mut strs: Vec<String> =
                        arg.iter().map(Legacy::legacy_string_value).collect();
                    strs.sort();
                    let v =
                        if name == "min" { strs.remove(0) } else { strs.pop().expect("non-empty") };
                    Ok(vec![Item::Str(v)])
                }
            }
        }
        "empty" => {
            let arg = one_arg(name, &mut args)?;
            Ok(vec![Item::Bool(arg.is_empty())])
        }
        "exists" => {
            let arg = one_arg(name, &mut args)?;
            Ok(vec![Item::Bool(!arg.is_empty())])
        }
        "not" => {
            let arg = one_arg(name, &mut args)?;
            Ok(vec![Item::Bool(!effective_boolean(&arg))])
        }
        "contains" => {
            let (haystack, needle) = two_args(name, &mut args)?;
            let needle = first_string(&needle);
            Ok(vec![Item::Bool(
                haystack.iter().any(|item| item.legacy_string_value().contains(&needle)),
            )])
        }
        "starts-with" => {
            let (haystack, needle) = two_args(name, &mut args)?;
            let needle = first_string(&needle);
            Ok(vec![Item::Bool(
                haystack.iter().any(|item| item.legacy_string_value().starts_with(&needle)),
            )])
        }
        "string" => {
            let arg = one_arg(name, &mut args)?;
            Ok(match arg.first() {
                Some(item) => vec![Item::Str(item.legacy_string_value())],
                None => vec![Item::Str(String::new())],
            })
        }
        "number" => {
            let arg = one_arg(name, &mut args)?;
            Ok(match arg.first().and_then(Legacy::legacy_number_value) {
                Some(n) => vec![Item::Num(n)],
                None => vec![],
            })
        }
        "string-length" => {
            let arg = one_arg(name, &mut args)?;
            let len = arg.first().map_or(0, |i| i.legacy_string_value().chars().count());
            Ok(vec![Item::Num(len as f64)])
        }
        "concat" => {
            let mut out = String::new();
            for arg in &args {
                if let Some(item) = arg.first() {
                    out.push_str(&item.legacy_string_value());
                }
            }
            Ok(vec![Item::Str(out)])
        }
        "data" => {
            let arg = one_arg(name, &mut args)?;
            Ok(arg.iter().map(|i| Item::Str(i.legacy_string_value())).collect())
        }
        "distinct-values" => {
            let arg = one_arg(name, &mut args)?;
            let mut seen = std::collections::HashSet::new();
            let mut out = Vec::new();
            for item in &arg {
                let v = item.legacy_string_value();
                if seen.insert(v.clone()) {
                    out.push(Item::Str(v));
                }
            }
            Ok(out)
        }
        "round" => {
            let arg = one_arg(name, &mut args)?;
            Ok(match arg.first().and_then(Legacy::legacy_number_value) {
                Some(n) => vec![Item::Num(n.round())],
                None => vec![],
            })
        }
        "string-join" => {
            let (items, sep) = two_args(name, &mut args)?;
            let sep = first_string(&sep);
            let joined =
                items.iter().map(Legacy::legacy_string_value).collect::<Vec<_>>().join(&sep);
            Ok(vec![Item::Str(joined)])
        }
        _ => Err(EvalError::UnknownFunction(name.to_owned())),
    }
}

fn one_arg(name: &str, args: &mut Vec<Sequence>) -> Result<Sequence, EvalError> {
    if args.len() != 1 {
        return Err(EvalError::BadArity {
            function: name.to_owned(),
            expected: 1,
            found: args.len(),
        });
    }
    Ok(args.pop().expect("checked length"))
}

fn two_args(name: &str, args: &mut Vec<Sequence>) -> Result<(Sequence, Sequence), EvalError> {
    if args.len() != 2 {
        return Err(EvalError::BadArity {
            function: name.to_owned(),
            expected: 2,
            found: args.len(),
        });
    }
    let second = args.pop().expect("checked length");
    let first = args.pop().expect("checked length");
    Ok((first, second))
}

fn first_string(seq: &Sequence) -> String {
    seq.first().map(Legacy::legacy_string_value).unwrap_or_default()
}
