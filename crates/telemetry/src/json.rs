//! JSON, written and read in one place.
//!
//! Every JSON document the workspace emits — `/metrics.json`, the event
//! journal, the flight recorder's JSON Lines, Chrome trace events, the
//! admin plane's `/health` and `/slow` — is built by a [`Writer`], which
//! owns the separators, the string escaping and the rule that a
//! non-finite float is `null`. The documents read back (`/metrics.json`
//! and `/health`, by `d2tree top`) are flat and machine-written, so the
//! reader half is a scanner over that shape, not a general parser.

use std::fmt::Write as _;

/// Appends one compact JSON document to a `String`.
///
/// The writer tracks a single bit — whether the next key or value in
/// the innermost open container needs a leading comma — which is all
/// the state compact output needs: opening a container clears it,
/// closing one or finishing a value sets it. Every method returns the
/// writer so a member reads `w.key("seq").uint(e.seq)`.
pub struct Writer<'a> {
    out: &'a mut String,
    comma: bool,
}

impl<'a> Writer<'a> {
    /// A writer appending to `out`.
    pub fn new(out: &'a mut String) -> Self {
        Writer { out, comma: false }
    }

    /// Opens an object (`'{'`) or array (`'['`), as a value or element.
    pub fn open(&mut self, bracket: char) -> &mut Self {
        self.sep();
        self.out.push(bracket);
        self.comma = false;
        self
    }

    /// Closes the innermost container with its `'}'` or `']'`.
    pub fn close(&mut self, bracket: char) -> &mut Self {
        self.out.push(bracket);
        self.comma = true;
        self
    }

    fn sep(&mut self) {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
    }

    /// Writes an object key; the next call must write its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.string(key);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// Writes an escaped string.
    pub fn string(&mut self, s: &str) -> &mut Self {
        self.sep();
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.out, "\\u{:04x}", c as u32);
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
        self
    }

    /// A value whose `Display` form is already JSON.
    fn literal(&mut self, v: impl std::fmt::Display) -> &mut Self {
        self.sep();
        let _ = write!(self.out, "{v}");
        self
    }

    /// Writes an unsigned integer.
    pub fn uint(&mut self, v: impl Into<u64>) -> &mut Self {
        self.literal(v.into())
    }

    /// Writes `Some(v)` as an integer and `None` as `null`.
    pub fn opt_uint(&mut self, v: Option<impl Into<u64>>) -> &mut Self {
        match v {
            Some(v) => self.uint(v),
            None => self.null(),
        }
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.literal("null")
    }

    /// Writes a float in its shortest round-trip form (`7.25`, `1`);
    /// NaN and the infinities, which JSON cannot represent, as `null`.
    pub fn float(&mut self, v: f64) -> &mut Self {
        if v.is_finite() {
            self.literal(v)
        } else {
            self.null()
        }
    }

    /// Like [`float`](Self::float) but fixed to six decimals with
    /// trailing zeros trimmed — the metrics export's form, where loads
    /// and popularities need no more and a stable width diffs cleanly.
    pub fn float6(&mut self, v: f64) -> &mut Self {
        if !v.is_finite() {
            return self.null();
        }
        let fixed = format!("{v:.6}");
        self.literal(fixed.trim_end_matches('0').trim_end_matches('.'))
    }
}

/// The raw text of `"key":<value>` at its first occurrence in a flat
/// (no nested value under `key`) machine-written document, trimmed.
#[must_use]
pub fn field<'a>(doc: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = &doc[doc.find(&pat)? + pat.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// [`field`] parsed as an unsigned integer.
#[must_use]
pub fn field_u64(doc: &str, key: &str) -> Option<u64> {
    field(doc, key)?.parse().ok()
}

/// The `{…}` members of the array at `"key":[ … ]`, each without its
/// braces — for arrays of flat objects (no `]` before the array's own);
/// `None` when the array is missing or unterminated.
pub fn array_objects<'a>(doc: &'a str, key: &str) -> Option<impl Iterator<Item = &'a str>> {
    let pat = format!("\"{key}\":[");
    let body = &doc[doc.find(&pat)? + pat.len()..];
    Some(
        body[..body.find(']')?]
            .split("},{")
            .map(|o| o.trim_matches(|c| c == '{' || c == '}'))
            .filter(|o| !o.is_empty()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_owns_separators_escaping_and_null() {
        let mut out = String::new();
        let mut w = Writer::new(&mut out);
        w.open('{');
        w.key("s").string("a\"b\\c\n");
        w.key("n").uint(7u16).key("none").opt_uint(None::<u64>);
        w.key("xs").open('[');
        w.float(1.0)
            .float(7.25)
            .float(f64::INFINITY)
            .float(f64::NAN);
        w.close(']');
        w.key("six").open('[');
        w.float6(0.25)
            .float6(3.0)
            .float6(1.0 / 3.0)
            .float6(f64::NEG_INFINITY);
        w.close(']');
        w.key("o").open('{').close('}');
        w.key("rows").open('[');
        w.open('{').key("a").uint(1u64).close('}');
        w.open('{').key("a").uint(2u64).close('}');
        w.close(']').close('}');
        assert_eq!(
            out,
            "{\"s\":\"a\\\"b\\\\c\\u000a\",\"n\":7,\"none\":null,\
             \"xs\":[1,7.25,null,null],\"six\":[0.25,3,0.333333,null],\
             \"o\":{},\"rows\":[{\"a\":1},{\"a\":2}]}"
        );
    }

    #[test]
    fn reader_scans_flat_documents() {
        let doc = "{\"up\":5,\"rows\":[{\"name\":\"a\",\"v\":1},{\"name\":\"b\",\"v\":null}],\"tail\":[]}";
        assert_eq!(field(doc, "up"), Some("5"));
        assert_eq!(field_u64(doc, "up"), Some(5));
        assert_eq!(field(doc, "missing"), None);
        let rows: Vec<&str> = array_objects(doc, "rows").unwrap().collect();
        assert_eq!(
            rows,
            ["\"name\":\"a\",\"v\":1", "\"name\":\"b\",\"v\":null"]
        );
        assert_eq!(field(rows[1], "v"), Some("null"));
        assert_eq!(field_u64(rows[1], "v"), None);
        assert_eq!(array_objects(doc, "tail").unwrap().count(), 0);
        assert!(array_objects(doc, "nope").is_none());
        assert!(array_objects("{\"rows\":[{\"a\":1}", "rows").is_none());
    }
}
