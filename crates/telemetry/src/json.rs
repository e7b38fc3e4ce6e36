//! The workspace's one JSON writer: every `BENCH_*.json` document,
//! `ServeReport`, [`crate::TraceSummary`] and timeline export goes
//! through it (the workspace has no serde). [`object`] hands a closure an
//! [`Object`] cursor that appends members in call order, so key order is
//! code order. Values are [`JsonValue`]s: integers, bools, escaped
//! strings, `Option`s (`None` is `null`), slices (arrays), `f64` in its
//! shortest round-trip form, [`Fixed`] floats and nested [`Json`]
//! documents. A non-finite float is written as `null`: JSON has no NaN
//! or infinity.

use std::fmt::Write as _;

/// Appends `s` escaped as the contents of a JSON string (RFC 8259).
fn escape(out: &mut String, s: &str) {
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
}

/// A value the writer can emit.
pub trait JsonValue {
    /// Appends this value's JSON text to `out`.
    fn write_json(&self, out: &mut String);
}

/// A float with a fixed number of decimals: `Fixed(v, 6)` is written as
/// `format!("{v:.6}")`, or `null` when `v` is not finite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fixed(pub f64, pub usize);

/// A JSON document this writer produced, embedded verbatim when nested.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Json(pub String);

/// Writes one JSON object whose members `fill` adds.
pub fn object(fill: impl FnOnce(&mut Object<'_>)) -> Json {
    let mut out = String::new();
    Object::write(&mut out, fill);
    // Callers keep documents (the benchmark keeps every replay's report),
    // so hand back an exact-size buffer, not the growth's spare capacity.
    out.shrink_to_fit();
    Json(out)
}

/// Cursor over the members of one JSON object.
#[derive(Debug)]
pub struct Object<'a> {
    out: &'a mut String,
    first: bool,
}

impl Object<'_> {
    fn write(out: &mut String, fill: impl FnOnce(&mut Object<'_>)) {
        out.push('{');
        fill(&mut Object { out, first: true });
        out.push('}');
    }

    fn key(&mut self, key: &str) -> &mut String {
        if !std::mem::take(&mut self.first) {
            self.out.push(',');
        }
        key.write_json(self.out);
        self.out.push(':');
        self.out
    }

    /// Adds the member `key: value`.
    pub fn field(&mut self, key: &str, value: impl JsonValue) -> &mut Self {
        value.write_json(self.key(key));
        self
    }

    /// Adds the member `key: {…}`, whose members `fill` adds.
    pub fn object(&mut self, key: &str, fill: impl FnOnce(&mut Object<'_>)) -> &mut Self {
        Object::write(self.key(key), fill);
        self
    }

    /// Adds the member `key: [{…}, …]`, one object per item, whose
    /// members `fill` adds.
    pub fn objects<T>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = T>,
        mut fill: impl FnMut(&mut Object<'_>, T),
    ) -> &mut Self {
        list(self.key(key), items, |out, item| Object::write(out, |o| fill(o, item)));
        self
    }
}

/// Writes `items` as a JSON array, each with `write`.
fn list<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut write: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write(out, item);
    }
    out.push(']');
}

macro_rules! display_values {
    ($($t:ty),*) => {$(
        impl JsonValue for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
display_values!(bool, u32, u64, usize);

impl JsonValue for f64 {
    fn write_json(&self, out: &mut String) {
        let _ = if self.is_finite() { write!(out, "{self}") } else { write!(out, "null") };
    }
}

impl JsonValue for Fixed {
    fn write_json(&self, out: &mut String) {
        let Fixed(v, decimals) = *self;
        let _ = if v.is_finite() { write!(out, "{v:.decimals$}") } else { write!(out, "null") };
    }
}

impl JsonValue for Json {
    fn write_json(&self, out: &mut String) {
        out.push_str(&self.0);
    }
}

impl JsonValue for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        escape(out, self);
        out.push('"');
    }
}

impl JsonValue for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl<T: JsonValue> JsonValue for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: JsonValue> JsonValue for [T] {
    fn write_json(&self, out: &mut String) {
        list(out, self, |out, v| v.write_json(out));
    }
}

impl<T: JsonValue + ?Sized> JsonValue for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_follows_rfc8259() {
        let doc = object(|o| {
            o.field("a\"b\\c\nd", "\u{1}").field("s", "\r\t\u{1f}é");
        });
        assert_eq!(doc.0, r#"{"a\"b\\c\nd":"\u0001","s":"\r\t\u001fé"}"#);
    }

    #[test]
    fn non_finite_floats_are_null() {
        let doc = object(|o| {
            for (k, v) in [("nan", f64::NAN), ("inf", f64::INFINITY), ("-inf", f64::NEG_INFINITY)] {
                o.field(k, v).field(&format!("{k}_fixed"), Fixed(v, 3));
            }
        });
        assert_eq!(
            doc.0,
            r#"{"nan":null,"nan_fixed":null,"inf":null,"inf_fixed":null,"-inf":null,"-inf_fixed":null}"#
        );
        let doc = object(|o| {
            o.field("short", 1.25).field("whole", 30.0).field("fixed", Fixed(2.0 / 3.0, 4));
            o.field("neg_zero", Fixed(-0.0, 1));
        });
        assert_eq!(doc.0, r#"{"short":1.25,"whole":30,"fixed":0.6667,"neg_zero":-0.0}"#);
    }

    #[test]
    fn empty_object_and_array() {
        assert_eq!(object(|_| {}).0, "{}");
        let doc = object(|o| {
            o.objects("a", [0u32; 0], |_, _| {}).object("o", |_| {}).field("s", &[0u64; 0][..]);
        });
        assert_eq!(doc.0, r#"{"a":[],"o":{},"s":[]}"#);
    }

    #[test]
    fn values_nest() {
        let inner = object(|o| {
            o.field("k", 1u32);
        });
        let doc = object(|o| {
            o.field("n", 7u64)
                .field("yes", true)
                .field("none", None::<u32>)
                .field("some", Some("x"))
                .field("list", &[1usize, 2, 3][..])
                .field("nested", &inner)
                .field("docs", &[inner.clone(), object(|_| {})][..])
                .object("obj", |o| {
                    o.objects("rows", [0.5, 0.25], |o, v| {
                        o.field("v", Fixed(v, 2)).object("deeper", |o| {
                            o.field("empty", "");
                        });
                    });
                });
        });
        assert_eq!(
            doc.0,
            r#"{"n":7,"yes":true,"none":null,"some":"x","list":[1,2,3],"nested":{"k":1},"docs":[{"k":1},{}],"obj":{"rows":[{"v":0.50,"deeper":{"empty":""}},{"v":0.25,"deeper":{"empty":""}}]}}"#
        );
    }
}
