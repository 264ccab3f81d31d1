//! JSON output. Values are built as `simkit::telemetry::Json` — the tree
//! the repo's strict parser produces — so what this module writes is by
//! construction what that parser reads back.

use simkit::telemetry::Json;

/// Shorthand for an object from `(key, value)` pairs.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// Shorthand for a number.
pub fn num(v: f64) -> Json {
    Json::Num(v)
}

/// Shorthand for a string.
pub fn string(s: &str) -> Json {
    Json::Str(s.to_owned())
}

/// Serialize on one line. Numbers print with every digit `f64` needs to
/// round-trip; a non-finite number is a bug in the caller and panics.
pub fn write(value: &Json) -> String {
    let mut out = String::new();
    write_into(value, &mut out);
    out
}

fn write_into(value: &Json, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => {
            assert!(n.is_finite(), "JSON cannot carry {n}");
            out.push_str(&n.to_string());
        }
        Json::Str(s) => write_str(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_into(item, out);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_str(k, out);
                out.push_str(": ");
                write_into(v, out);
            }
            out.push('}');
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::telemetry::parse_json;

    #[test]
    fn writer_round_trips_through_the_strict_parser() {
        let doc = obj(vec![
            ("correct", Json::Bool(true)),
            ("attempted", num(20881.0)),
            ("nothing", Json::Null),
            (
                "metrics",
                obj(vec![(
                    "host_req_per_s",
                    obj(vec![("value", num(3941.27031855)), ("unit", string("1/s"))]),
                )]),
            ),
            (
                "odd \"keys\"\\ and\ttext\n",
                Json::Arr(vec![num(-0.5), num(1e-9), num(1.0e21), string("\u{1}é")]),
            ),
        ]);
        let text = write(&doc);
        assert!(!text.contains('\n'), "one line: {text}");
        assert_eq!(parse_json(&text).expect("parses"), doc);
    }

    #[test]
    #[should_panic(expected = "JSON cannot carry")]
    fn non_finite_numbers_are_refused() {
        write(&num(f64::NAN));
    }
}
