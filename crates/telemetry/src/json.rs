//! The one place JSON is written or parsed under `crates/`.
//!
//! The workspace carries no JSON dependency, so everything that emits
//! JSON — the flight recorder's JSONL and snapshot, the Chrome trace, the
//! `BENCH_*.json` baselines, the fuzz artifacts (`failing_seed.json` and
//! friends) — builds on the two append primitives here, `push_str` and
//! `push_f64`, and everything that reads it back on the order-preserving
//! [`Json`] value. Rendering is deterministic: object keys keep insertion
//! order and numbers use Rust's shortest round-trip `Display` (integral
//! values render without a fraction), so the same data always serializes
//! to the same bytes — the property the byte-identity tests assert. The
//! parser accepts exactly what the renderer emits plus ordinary
//! interchange JSON (whitespace, escapes, nested values).

/// Appends `s` as a JSON string literal (quotes + backslash escaping, plus
/// control-character escapes).
pub(crate) fn push_str(out: &mut String, s: &str) {
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

/// Appends an `f64` as a JSON number.
///
/// Uses Rust's shortest-round-trip `Display`, which is a pure function of
/// the bits — deterministic across runs. Non-finite values (which JSON
/// cannot represent) encode as `null`.
pub(crate) fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

/// An order-preserving JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as `f64`; integral values render without `.`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved (insertion order).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for an object field list.
    #[must_use]
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Looks up `key` in an object; `None` for other variants.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64` if it is an integral non-negative number.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 2f64.powi(53) => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as `f64` if it is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `&str` if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool` if it is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a slice if it is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders compact deterministic JSON.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => push_f64(out, *v),
            Json::Str(s) => push_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_str(out, k);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (a single value; trailing whitespace
    /// allowed).
    ///
    /// # Errors
    ///
    /// Returns a description with the byte offset on malformed input, and
    /// on input nested deeper than 128 arrays and objects.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut pos = 0usize;
        let value = parse_value(text, &mut pos, 0)?;
        skip_ws(text.as_bytes(), &mut pos);
        if pos != text.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }
}

/// Deepest nesting [`Json::parse`] accepts: it recurses once per `[` or `{`
/// and reads files from disk, so an unbounded depth is a stack overflow
/// waiting for a corrupt file. The deepest artifact the repo writes nests 4.
const MAX_DEPTH: usize = 128;

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", c as char))
    }
}

fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => Ok(Json::Str(parse_string(text, pos)?)),
        Some(b'[' | b'{') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"))
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(text, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(text, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(_) => parse_number(text, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("expected '{lit}' at byte {pos}"))
    }
}

fn parse_number(text: &str, pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while matches!(
        text.as_bytes().get(*pos),
        Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    ) {
        *pos += 1;
    }
    let digits = &text[start..*pos];
    digits
        .parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("malformed number '{digits}' at byte {start}"))
}

/// The four hex digits of a `\u` escape, as their code unit.
fn parse_hex4(text: &str, pos: &mut usize) -> Result<u32, String> {
    let hex = text
        .get(*pos..*pos + 4)
        .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
    let hex = hex.ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
    *pos += 4;
    Ok(u32::from_str_radix(hex, 16).expect("four hex digits"))
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        // `"` and `\` are ASCII and `text` is a `&str`, so the run up to the
        // next one is whole characters: copied as a slice, never re-validated.
        let run = bytes[*pos..].iter().position(|b| matches!(b, b'"' | b'\\'));
        let end = *pos + run.ok_or("unterminated string")?;
        out.push_str(&text[*pos..end]);
        *pos = end + 1;
        if bytes[end] == b'"' {
            return Ok(out);
        }
        let escape = bytes.get(*pos).ok_or("unterminated string")?;
        *pos += 1;
        out.push(match escape {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => {
                let mut code = parse_hex4(text, pos)?;
                // An escaped high surrogate and the escaped low one after it
                // are one scalar; a half on its own decodes to U+FFFD.
                let mut ahead = *pos + 2;
                if (0xd800..0xdc00).contains(&code) && text[*pos..].starts_with("\\u") {
                    if let Ok(low @ 0xdc00..=0xdfff) = parse_hex4(text, &mut ahead) {
                        code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                        *pos = ahead;
                    }
                }
                char::from_u32(code).unwrap_or('\u{fffd}')
            }
            _ => return Err(format!("bad escape at byte {}", *pos - 1)),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_scenario_shape() {
        let doc = Json::obj(vec![
            ("seed", Json::Num(42.0)),
            ("transport", Json::Str("tcp".to_string())),
            ("loss_ppm", Json::Num(12_500.0)),
            (
                "faults",
                Json::Arr(vec![Json::obj(vec![
                    ("kind", Json::Str("down".to_string())),
                    ("from_ms", Json::Num(1000.0)),
                    ("to_ms", Json::Num(2000.0)),
                ])]),
            ),
            ("quick", Json::Bool(true)),
            ("note", Json::Null),
        ]);
        let text = doc.render();
        let back = Json::parse(&text).expect("parse");
        assert_eq!(back, doc);
        assert_eq!(back.render(), text, "render is a fixed point");
        assert_eq!(back.get("seed").and_then(Json::as_u64), Some(42));
        assert_eq!(
            back.get("faults").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1)
        );
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Num(1000.0).render(), "1000");
        assert_eq!(Json::Num(-3.0).render(), "-3");
        assert_eq!(Json::Num(0.5).render(), "0.5");
    }

    #[test]
    fn parses_interchange_json() {
        let text = r#" { "a" : [ 1 , 2.5 , -3e2 ] , "b" : "x\nyA" } "#;
        let v = Json::parse(text).expect("parse");
        assert_eq!(
            v.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
        assert_eq!(v.get("b").and_then(Json::as_str), Some("x\nyA"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} extra").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn object_key_order_is_preserved() {
        let v = Json::parse(r#"{"z":1,"a":2}"#).expect("parse");
        assert_eq!(v.render(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn strings_are_escaped() {
        let mut out = String::new();
        push_str(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut out = String::new();
        push_f64(&mut out, f64::NAN);
        out.push(' ');
        push_f64(&mut out, f64::INFINITY);
        assert_eq!(out, "null null");
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nested(127)).is_ok());
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(129)).expect_err("129 deep");
        assert!(err.contains("nesting deeper than 128"), "{err}");
        // Unclosed, as a truncated or hostile file would be; objects too.
        assert!(Json::parse(&"[".repeat(1_000_000)).is_err());
        assert!(Json::parse(&"{\"k\":".repeat(1_000_000)).is_err());
    }

    #[test]
    fn a_two_mebibyte_string_round_trips_in_linear_time() {
        let unit = "naïve — \"quoted\" \\ 😀\n";
        let big = Json::Str(unit.repeat((2 << 20) / unit.len() + 1));
        let started = std::time::Instant::now();
        assert_eq!(Json::parse(&big.render()).expect("parses"), big);
        let took = started.elapsed();
        assert!(
            took.as_secs() < 5,
            "{took:?}: quadratic again? (linear is tens of ms)"
        );
    }

    #[test]
    fn escaped_surrogate_pairs_decode_to_one_scalar() {
        let parsed = |text: &str| Json::parse(text).map(|v| v.as_str().map(str::to_string));
        assert_eq!(parsed(r#""\ud83d\ude00""#), Ok(Some("😀".to_string())));
        assert_eq!(
            parsed(r#""\ud83dx""#),
            Ok(Some("\u{fffd}x".to_string())),
            "lone high"
        );
        assert_eq!(
            parsed(r#""\ude00""#),
            Ok(Some("\u{fffd}".to_string())),
            "lone low"
        );
        assert_eq!(
            parsed(r#""\ud83d\u0041""#),
            Ok(Some("\u{fffd}A".to_string())),
            "high, then a scalar"
        );
        assert!(parsed(r#""\u+041""#).is_err(), "a sign is not a hex digit");
        assert!(parsed(r#""\u00é""#).is_err(), "nor is half a character");
    }
}
