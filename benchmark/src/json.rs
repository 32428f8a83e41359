//! JSON output for records and result lines. Parsing reuses the
//! workspace's own reader (`ngs_observe::json`); this is the writer.

pub use ngs_observe::json::{parse, Json};
use std::collections::BTreeMap;

pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect::<BTreeMap<_, _>>())
}

pub fn num(v: f64) -> Json {
    Json::Num(v)
}

pub fn string(s: impl Into<String>) -> Json {
    Json::Str(s.into())
}

/// Serialise on one line. Non-finite numbers have no JSON form and become
/// `null`, which readers treat as "not measured".
pub fn to_string(value: &Json) -> String {
    let mut out = String::new();
    write(value, &mut out);
    out
}

fn write(value: &Json, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) if !n.is_finite() => out.push_str("null"),
        // `{}` on f64 prints the shortest digits that round-trip, so a
        // value is written as measured, with all its digits.
        Json::Num(n) => out.push_str(&format!("{n}")),
        Json::Str(s) => write_str(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write(item, out);
            }
            out.push(']');
        }
        Json::Obj(members) => {
            out.push('{');
            for (i, (k, v)) in members.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_str(k, out);
                out.push_str(": ");
                write(v, out);
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

    #[test]
    fn written_json_reads_back_identically() {
        let v = obj([
            ("name", string("a \"quoted\"\tname\n")),
            ("values", Json::Arr(vec![num(1.5), num(-0.000123456789), num(3e9), Json::Null])),
            ("ok", Json::Bool(true)),
            ("nested", obj([("k", num(2.0))])),
        ]);
        assert_eq!(parse(&to_string(&v)).unwrap(), v);
        assert!(!to_string(&v).contains('\n'));
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(to_string(&Json::Arr(vec![num(f64::NAN), num(f64::INFINITY)])), "[null, null]");
    }
}
