//! The one JSON layer behind every artifact and Perfetto trace the
//! workspace writes. Emitters keep their own format strings and share
//! only what is easy to get wrong: string escaping ([`quote`]), comma
//! placement ([`join`]), `null` for absent values ([`or_null`]), the
//! Perfetto process table ([`Pid`]), and a reader for the fields of the
//! flat objects they write ([`field`], [`get`], [`items`], [`unquote`]).

use std::fmt::{self, Display, Write};

/// `s` as a JSON string literal, quotes included. `"`, `\` and every
/// control character (U+0000–U+001F) are escaped as RFC 8259 requires;
/// everything else, non-ASCII text included, passes through unchanged.
pub fn quote(s: &str) -> impl Display + '_ {
    Quoted(s)
}

struct Quoted<'a>(&'a str);

impl Display for Quoted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        let mut done = 0;
        for (i, c) in self.0.char_indices() {
            if !matches!(c, '"' | '\\' | '\0'..='\x1f') {
                continue;
            }
            f.write_str(&self.0[done..i])?;
            match c {
                '"' | '\\' => write!(f, "\\{c}")?,
                _ => write!(f, "\\u{:04x}", c as u32)?,
            }
            done = i + 1;
        }
        f.write_str(&self.0[done..])?;
        f.write_char('"')
    }
}

/// The items joined by commas: the body of an array or an object.
pub fn join<T: Display>(items: impl IntoIterator<Item = T>) -> String {
    let mut out = String::new();
    for (i, item) in items.into_iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(out, "{sep}{item}");
    }
    out
}

/// `v` formatted with the caller's precision, or `null` when absent.
pub fn or_null<T: Display>(v: Option<T>) -> impl Display {
    OrNull(v)
}

struct OrNull<T>(Option<T>);

impl<T: Display> Display for OrNull<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(v) => v.fmt(f),
            None => f.write_str("null"),
        }
    }
}

/// The Perfetto process each Chrome-trace document puts its tracks
/// under, so that the documents load side by side without collisions.
/// Displays as its numeric pid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pid {
    /// Engine process steps, spans and counters.
    Engine = 0,
    /// The critical-path overlay of a collective.
    CriticalPath = 1,
    /// One track per serving request.
    Requests = 2,
    /// Telemetry counter tracks.
    Telemetry = 3,
}

impl Pid {
    /// The `ph:"M"` event that names this process in Perfetto.
    pub fn process_name(self) -> String {
        let name = match self {
            Pid::Engine => "engine",
            Pid::CriticalPath => "critical-path",
            Pid::Requests => "requests",
            Pid::Telemetry => "telemetry",
        };
        format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{self},\"args\":{{\"name\":\"{name}\"}}}}"
        )
    }
}

impl Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", *self as u32)
    }
}

/// Splits the leading JSON value off `s`, returning `(value, rest)`.
fn split_value(s: &str) -> Option<(&str, &str)> {
    let s = s.trim_start();
    let (mut depth, mut in_str, mut escaped) = (0usize, false, false);
    for (i, c) in s.bytes().enumerate() {
        if in_str {
            match c {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_str = false,
                _ => {}
            }
            if !in_str && depth == 0 {
                return Some(s.split_at(i + 1));
            }
            continue;
        }
        match c {
            b'"' => in_str = true,
            b'{' | b'[' => depth += 1,
            b'}' | b']' if depth > 0 => {
                depth -= 1;
                if depth == 0 {
                    return Some(s.split_at(i + 1));
                }
            }
            b',' | b':' | b'}' | b']' if depth == 0 => return (i > 0).then(|| s.split_at(i)),
            c if depth == 0 && c.is_ascii_whitespace() => return Some(s.split_at(i)),
            _ => {}
        }
    }
    (depth == 0 && !in_str && !s.is_empty()).then_some((s, ""))
}

/// The raw text of each item of a JSON array or, for an object, of its
/// keys and values in turn. Nested values come back unparsed: read
/// them again with these functions.
pub fn items(container: &str) -> impl Iterator<Item = &str> {
    let t = container.trim();
    let mut rest = t.get(1..t.len().saturating_sub(1)).unwrap_or("");
    std::iter::from_fn(move || {
        let (item, after) = split_value(rest)?;
        let after = after.trim_start();
        rest = after.strip_prefix([',', ':']).unwrap_or(after);
        Some(item)
    })
}

/// The raw text of the field `key` at the top level of one object.
pub fn field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let mut it = items(obj);
    while let (Some(k), Some(v)) = (it.next(), it.next()) {
        if unquote(k).as_deref() == Some(key) {
            return Some(v);
        }
    }
    None
}

/// A number or bool field parsed as `T`; `None` when missing or `null`.
pub fn get<T: std::str::FromStr>(obj: &str, key: &str) -> Option<T> {
    field(obj, key)?.parse().ok()
}

/// Decodes a JSON string literal: the inverse of [`quote`].
pub fn unquote(token: &str) -> Option<String> {
    let body = token.strip_prefix('"')?.strip_suffix('"')?;
    let mut out = String::with_capacity(body.len());
    let mut chars = body.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        out.push(match chars.next()? {
            'n' => '\n',
            'r' => '\r',
            't' => '\t',
            'b' => '\u{8}',
            'f' => '\u{c}',
            'u' => {
                let hex: String = chars.by_ref().take(4).collect();
                char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?
            }
            c => c,
        });
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quote_escapes_quotes_backslashes_and_every_control_character() {
        assert_eq!(quote(r#"rank "0"\x"#).to_string(), r#""rank \"0\"\\x""#);
        assert_eq!(quote("a\nb\t").to_string(), r#""a\u000ab\u0009""#);
        for c in (0u8..0x20).map(char::from) {
            let q = quote(&format!("<{c}>")).to_string();
            assert!(!q.bytes().any(|b| b < 0x20), "raw control byte in {q:?}");
            assert_eq!(unquote(&q).as_deref(), Some(format!("<{c}>").as_str()));
        }
        assert_eq!(quote("\u{1}").to_string(), r#""\u0001""#);
        // Non-ASCII text (and DEL) is legal JSON and passes through.
        let text = "μs → 送信 \u{7f}";
        assert_eq!(quote(text).to_string(), format!("\"{text}\""));
        assert_eq!(unquote(&quote(text).to_string()).as_deref(), Some(text));
    }

    #[test]
    fn join_and_or_null_write_bodies_and_absent_numbers() {
        assert_eq!(join([1, 2, 3]), "1,2,3");
        assert_eq!(join(Vec::<u8>::new()), "");
        assert_eq!(format!("{:.3}", or_null(Some(1.5))), "1.500");
        assert_eq!(format!("{:.3}", or_null(None::<f64>)), "null");
        assert_eq!(
            Pid::Telemetry.process_name(),
            r#"{"name":"process_name","ph":"M","pid":3,"args":{"name":"telemetry"}}"#
        );
    }

    #[test]
    fn reader_takes_numbers_bools_null_strings_and_arrays() {
        let obj = r#"{"neg":-7.5,"exp":1.2e3,"cap":4E-2,"n":18446744073709551615,
            "yes":true,"no":false,"none":null,"s":"a \"b\", c: {d}","arr":[1, [2,3] ,{"k":4}],
            "obj":{"neg":1}}"#;
        assert_eq!(get::<f64>(obj, "neg"), Some(-7.5));
        assert_eq!(get::<f64>(obj, "exp"), Some(1200.0));
        assert_eq!(get::<f64>(obj, "cap"), Some(0.04));
        assert_eq!(get::<u64>(obj, "n"), Some(u64::MAX));
        assert_eq!(get::<bool>(obj, "yes"), Some(true));
        assert_eq!(get::<bool>(obj, "no"), Some(false));
        assert_eq!(field(obj, "none"), Some("null"));
        assert_eq!(get::<f64>(obj, "none"), None);
        assert_eq!(get::<f64>(obj, "missing"), None);
        let s = unquote(field(obj, "s").unwrap());
        assert_eq!(s.as_deref(), Some("a \"b\", c: {d}"));
        let arr: Vec<&str> = items(field(obj, "arr").unwrap()).collect();
        assert_eq!(arr, ["1", "[2,3]", r#"{"k":4}"#]);
        assert_eq!(get::<u32>(arr[2], "k"), Some(4));
        // Only top-level keys match: "neg" inside "obj" is not "neg".
        assert_eq!(get::<f64>(field(obj, "obj").unwrap(), "neg"), Some(1.0));
        assert_eq!(items("[]").count(), 0);
        assert_eq!(field("{}", "x"), None);
    }
}
