//! A tiny deterministic JSON document model and writer.
//!
//! The exporters in this crate hand-roll JSON instead of pulling in a
//! serialisation dependency, and they guarantee *byte-identical* output
//! for identical inputs: objects preserve their (already sorted)
//! insertion order, floats render through Rust's shortest-round-trip
//! `Display`, and non-finite floats degrade to `null` so the output is
//! always valid JSON.

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (the common case for counters).
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float; non-finite values render as `null`.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; members render in insertion order (callers insert in
    /// sorted order where determinism across construction paths matters).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for an object member list.
    pub fn obj(members: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Renders the value as a compact single-line JSON document.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Renders the value with two-space indentation, one member per line.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => out.push_str(&n.to_string()),
            Json::I64(n) => out.push_str(&n.to_string()),
            Json::F64(x) => out.push_str(&fmt_f64(*x)),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(members) if !members.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    write_escaped(k, out);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
            other => other.write(out),
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Formats a float deterministically: shortest decimal form that
/// round-trips (Rust's `Display`), `null` for NaN/infinity.
pub fn fmt_f64(x: f64) -> String {
    if x.is_finite() {
        // Rust's Display never emits exponent notation for `{}` and is
        // the shortest representation that parses back exactly.
        let s = format!("{x}");
        s
    } else {
        "null".to_string()
    }
}

/// Writes `s` as a quoted, escaped JSON string into `out`.
fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::U64(42).render(), "42");
        assert_eq!(Json::I64(-7).render(), "-7");
        assert_eq!(Json::F64(1.5).render(), "1.5");
        assert_eq!(Json::F64(f64::NAN).render(), "null");
        assert_eq!(Json::F64(f64::INFINITY).render(), "null");
    }

    #[test]
    fn strings_escape() {
        assert_eq!(Json::Str("a\"b\\c\n".into()).render(), r#""a\"b\\c\n""#);
        assert_eq!(Json::Str("\u{1}".into()).render(), "\"\\u0001\"");
    }

    #[test]
    fn containers_render_in_order() {
        let doc = Json::obj(vec![
            ("b", Json::U64(1)),
            ("a", Json::Arr(vec![Json::Null, Json::F64(0.25)])),
        ]);
        assert_eq!(doc.render(), r#"{"b":1,"a":[null,0.25]}"#);
    }

    #[test]
    fn pretty_rendering_is_stable() {
        let doc = Json::obj(vec![("k", Json::Arr(vec![Json::U64(1)]))]);
        assert_eq!(doc.render_pretty(), "{\n  \"k\": [\n    1\n  ]\n}\n");
        assert_eq!(Json::obj(vec![]).render_pretty(), "{}\n");
    }

    #[test]
    fn float_formatting_round_trips() {
        for x in [0.0, -0.0, 1.0 / 3.0, 1e-12, 123456789.125] {
            let s = fmt_f64(x);
            let back: f64 = s.parse().unwrap();
            assert_eq!(back, x, "{s} did not round-trip");
        }
    }
}
