//! A JSON writer, because the root package does not depend on
//! `serde_json`. Writing only: the benchmark never parses JSON.

use std::fmt::{self, Write};

/// A JSON value; `Display` renders it compactly on one line.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Whole numbers keep every digit (an `f64` loses them past 2^53).
    UInt(u64),
    /// Rendered with all the digits `f64` carries; a non-finite value
    /// has no JSON spelling and becomes `null`.
    Num(f64),
    Str(String),
    /// Keys in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_owned())
    }

    pub fn obj<'k>(fields: impl IntoIterator<Item = (&'k str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::UInt(u) => write!(f, "{u}"),
            // Rust prints the shortest decimal that round-trips and never
            // uses an exponent, so the output is always a JSON number.
            Json::Num(x) if x.is_finite() => write!(f, "{x}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_str(f, s),
            Json::Obj(fields) => {
                f.write_char('{')?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_str(f, k)?;
                    f.write_char(':')?;
                    write!(f, "{v}")?;
                }
                f.write_char('}')
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_strings_and_keys() {
        let v = Json::obj([("a\"b", Json::str("line\nbreak\ttab \\ \u{1} é"))]);
        assert_eq!(v.to_string(), r#"{"a\"b":"line\nbreak\ttab \\ \u0001 é"}"#);
    }

    #[test]
    fn numbers_keep_their_digits_and_non_finite_is_null() {
        let cases = [
            (Json::Num(1.25), "1.25"),
            (Json::Num(3.0), "3"),
            (Json::Num(-1.0), "-1"),
            (Json::Num(1e-7), "0.0000001"),
            (Json::Num(0.1 + 0.2), "0.30000000000000004"),
            (Json::UInt(u64::MAX), "18446744073709551615"),
            (Json::Num(f64::NAN), "null"),
            (Json::Num(f64::INFINITY), "null"),
            (Json::Num(f64::NEG_INFINITY), "null"),
            (Json::Bool(true), "true"),
            (Json::Null, "null"),
        ];
        for (value, text) in cases {
            assert_eq!(value.to_string(), text);
        }
    }

    #[test]
    fn nests_and_keeps_key_order() {
        let v = Json::obj([
            ("z", Json::Obj(vec![])),
            ("a", Json::obj([("k", Json::UInt(1))])),
        ]);
        assert_eq!(v.to_string(), r#"{"z":{},"a":{"k":1}}"#);
    }
}
