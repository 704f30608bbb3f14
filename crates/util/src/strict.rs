//! Strict JSON field checking: reject unknown keys with an actionable
//! message instead of silently ignoring misspelled knobs.
//!
//! Every [`impl_json_struct!`](crate::impl_json_struct) deserializer
//! calls [`reject_unknown_keys`] with its own field list before it
//! decodes a field, so a misspelled knob is an error rather than its
//! default. Because the check lives in each derived `from_json`, it
//! applies at every level a derived type reaches: a nested struct, each
//! element of a `Vec<T>`, each `Some` of an `Option<T>`. The error names
//! the key's full path from the document root (`windows[0].widht`), and
//! the nearest known key when one is close enough.
//!
//! One type is lenient on purpose: a struct whose field list ends in
//! `..` (`impl_json_struct!(T { a, b, .. })`) skips the check at its own
//! level, for documents that carry keys the reader does not model.

use crate::json::{Json, JsonError};

/// Verifies that `v` is an object whose every key is in `known`.
///
/// # Errors
///
/// Returns [`JsonError`] if `v` is not an object, or naming the first
/// unknown key and — when one is close enough — the known key it was
/// probably meant to be. Enclosing derived types prefix the key's path
/// as the error passes up ([`JsonError::at_key`], [`JsonError::at_index`]).
pub fn reject_unknown_keys(v: &Json, known: &[&str]) -> Result<(), JsonError> {
    let Json::Object(entries) = v else {
        return Err(JsonError::new("expected object"));
    };
    match entries.iter().find(|(k, _)| !known.contains(&k.as_str())) {
        None => Ok(()),
        Some((key, _)) => {
            let hint = match nearest(key, known) {
                Some(n) => format!(" (did you mean `{n}`?)"),
                None => format!("; known fields: {}", known.join(", ")),
            };
            Err(JsonError::unknown_field(key, hint))
        }
    }
}

/// The known name closest to `key` by edit distance, if within a
/// tolerance scaled to the key length (a genuinely novel name gets the
/// full known-field list instead of a wild guess).
fn nearest<'a>(key: &str, names: &[&'a str]) -> Option<&'a str> {
    let budget = 1 + key.len() / 4;
    names
        .iter()
        .map(|n| (edit_distance(key, n), *n))
        .filter(|(d, _)| *d <= budget)
        .min_by_key(|(d, n)| (*d, n.to_string()))
        .map(|(_, n)| n)
}

/// Levenshtein distance, small-alphabet DP over two rows.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FromJson;

    fn j(text: &str) -> Json {
        Json::parse(text).unwrap()
    }

    #[derive(Debug, PartialEq)]
    struct Window {
        start: u64,
        width: u64,
    }
    crate::impl_json_struct!(Window {
        start = 0,
        width = 0
    });

    #[derive(Debug, PartialEq)]
    struct Plan {
        seed: u64,
        latency_jitter: f64,
        windows: Vec<Window>,
        nested: Option<Window>,
    }
    crate::impl_json_struct!(Plan {
        seed = 0,
        latency_jitter = 0.0,
        windows = Vec::new(),
        nested = None,
    });

    #[derive(Debug, PartialEq)]
    struct Open {
        seed: u64,
        window: Window,
    }
    crate::impl_json_struct!(Open {
        seed,
        window = Window::default(),
        ..
    });

    fn err(text: &str) -> String {
        Plan::from_json(&j(text)).unwrap_err().to_string()
    }

    #[test]
    fn accepts_known_fields_and_sparse_documents() {
        let p = Plan::from_json(&j(r#"{ "seed": 7, "windows": [{ "width": 3 }] }"#)).unwrap();
        assert_eq!(p.seed, 7);
        assert_eq!(p.windows[0].width, 3);
        assert_eq!(Plan::from_json(&j("{}")).unwrap(), Plan::default());
    }

    #[test]
    fn rejects_unknown_top_level_field_with_suggestion() {
        let msg = err(r#"{ "latency_jiter": 3 }"#);
        assert!(msg.contains("unknown field `latency_jiter`"), "{msg}");
        assert!(msg.contains("did you mean `latency_jitter`?"), "{msg}");
    }

    #[test]
    fn lists_known_fields_when_nothing_is_close() {
        let msg = Window::from_json(&j(r#"{ "completely_novel_knob": 1 }"#))
            .unwrap_err()
            .to_string();
        assert!(msg.contains("known fields: start, width"), "{msg}");
    }

    #[test]
    fn paths_name_array_elements_and_options() {
        let msg = err(r#"{ "windows": [ { "start": 0 }, { "widht": 9 } ] }"#);
        assert!(msg.contains("`windows[1].widht`"), "{msg}");
        assert!(msg.contains("did you mean `width`?"), "{msg}");
        let msg = err(r#"{ "nested": { "strat": 1 } }"#);
        assert!(msg.contains("`nested.strat`"), "{msg}");
        // `null` is `None`, not an object to check.
        assert_eq!(
            Plan::from_json(&j(r#"{ "nested": null }"#)).unwrap().nested,
            None
        );
        // Nested arrays chain their indices.
        let grid = Vec::<Vec<Window>>::from_json(&j(r#"[[], [{}, { "x": 1 }]]"#));
        assert!(grid.unwrap_err().to_string().contains("`[1][1].x`"));
    }

    #[test]
    fn a_struct_where_an_object_belongs_must_be_one() {
        let msg = err(r#"{ "windows": [ 5 ] }"#);
        assert!(msg.contains("expected object"), "{msg}");
    }

    #[test]
    fn the_rest_marker_is_lenient_at_its_own_level_only() {
        let open = Open::from_json(&j(r#"{ "seed": 1, "wall_clocks": [] }"#)).unwrap();
        assert_eq!(open.seed, 1);
        let msg = Open::from_json(&j(r#"{ "seed": 1, "window": { "sart": 0 } }"#))
            .unwrap_err()
            .to_string();
        assert!(msg.contains("`window.sart`"), "{msg}");
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("seed", "sede"), 2);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
    }
}
