//! A minimal JSON value: building, serializing, and parsing.
//!
//! The in-tree replacement for `serde_json`, shared by the trace
//! exporters, the CLI `--stats-json` path, and the bench harness — one
//! serializer, so stats schemas cannot drift between consumers. Objects
//! preserve insertion order for stable, diffable output.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number (JSON has only doubles; integers up to 2⁵³ are exact).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved on output.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Member lookup on an object (`None` for other kinds or missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as `u64`, if this is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Appends the compact (single-line) serialization to `out` — the
    /// bytes `Display` produces, without an intermediate `String`.
    pub fn write_compact(&self, out: &mut String) {
        self.write(out, None);
    }

    /// Serializes with two-space indentation (trailing newline omitted).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => write_seq(out, indent, '[', ']', items.len(), |out, i, ind| {
                items[i].write(out, ind);
            }),
            Json::Obj(pairs) => write_seq(out, indent, '{', '}', pairs.len(), |out, i, ind| {
                write_string(out, &pairs[i].0);
                out.push_str(": ");
                pairs[i].1.write(out, ind);
            }),
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, Option<usize>),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    let inner = indent.map(|d| d + 1);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        match inner {
            Some(d) => {
                out.push('\n');
                out.push_str(&"  ".repeat(d));
            }
            None => {
                if i > 0 {
                    out.push(' ');
                }
            }
        }
        item(out, i, inner);
    }
    if let Some(d) = indent {
        out.push('\n');
        out.push_str(&"  ".repeat(d));
    }
    out.push(close);
}

fn write_number(out: &mut String, n: f64) {
    use fmt::Write as _;
    if !n.is_finite() {
        out.push_str("null"); // JSON has no NaN/Inf; null is the least-bad spelling.
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Whether `b` cannot appear raw inside a JSON string literal. Every such
/// byte is ASCII, so a run of other bytes taken from a `&str` ends on a
/// character boundary.
fn needs_escape(b: u8) -> bool {
    matches!(b, b'"' | b'\\' | 0..=0x1f)
}

/// Writes `s` as a JSON string literal, pushing unescaped runs whole.
fn write_string(out: &mut String, s: &str) {
    use fmt::Write as _;
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !needs_escape(b) {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\t' => out.push_str("\\t"),
            b'\r' => out.push_str("\\r"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

impl fmt::Display for Json {
    /// Compact (single-line) serialization.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_compact(&mut out);
        f.write_str(&out)
    }
}

/// Deepest array/object nesting [`parse`] accepts. No document this
/// workspace writes nests deeper than about 6; the cap keeps a hostile
/// document (say, a serve frame of 100 000 `[`) from overflowing the
/// parsing thread's stack.
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document (the exporters' round-trip oracle and the serve
/// frame reader). Runs in time linear in the document's length.
///
/// # Errors
///
/// Returns a message with a byte offset on malformed input, including
/// trailing garbage after the top-level value and nesting deeper than
/// [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[' | b'{') => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let value = if self.peek() == Some(b'[') {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                value
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pairs: combine a high half with a
                            // following low half; a lone half is U+FFFD, and
                            // an escape after it that is not a low half is
                            // read on its own.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                let after_high = self.pos;
                                let lo = if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    self.hex4()?
                                } else {
                                    0
                                };
                                if (0xDC00..0xE000).contains(&lo) {
                                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(combined).unwrap_or('\u{FFFD}')
                                } else {
                                    self.pos = after_high;
                                    '\u{FFFD}'
                                }
                            } else {
                                char::from_u32(cp).unwrap_or('\u{FFFD}')
                            };
                            out.push(c);
                        }
                        other => {
                            return Err(format!("invalid escape `\\{}`", other as char));
                        }
                    }
                }
                Some(b) if b < 0x20 => {
                    return Err(format!("raw control character at byte {}", self.pos));
                }
                Some(_) => {
                    let start = self.pos;
                    while self.peek().is_some_and(|b| !needs_escape(b)) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        // Four hex digits exactly: `from_str_radix` alone would also take
        // a leading `+`.
        let cp = self
            .text
            .get(self.pos..end)
            .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
            .ok_or_else(|| format!("invalid \\u escape at byte {}", self.pos))?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_compact_and_pretty() {
        let v = Json::obj([
            ("name", Json::str("tels")),
            ("gates", Json::Num(42.0)),
            ("ratio", Json::Num(1.5)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            (
                "list",
                Json::Arr(vec![Json::Num(1.0), Json::str("a\"b\\c\nd")]),
            ),
        ]);
        for text in [v.to_string(), v.pretty()] {
            assert_eq!(parse(&text).unwrap(), v, "{text}");
        }
        // Integers print without a decimal point.
        assert!(v.to_string().contains("\"gates\": 42,"));
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"a": [1, 2], "b": {"c": "x"}, "n": 3}"#).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(
            v.get("a").and_then(Json::as_array).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(Json::as_str),
            Some("x")
        );
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn numbers_parse() {
        for (text, want) in [
            ("0", 0.0),
            ("-12", -12.0),
            ("3.25", 3.25),
            ("1e3", 1000.0),
            ("-2.5E-1", -0.25),
        ] {
            assert_eq!(parse(text).unwrap(), Json::Num(want), "{text}");
        }
    }

    #[test]
    fn escapes_parse() {
        assert_eq!(
            parse(r#""a\u0041\n\t\u00e9""#).unwrap(),
            Json::Str("aA\n\té".to_string())
        );
        // Surrogate pair for 𝄞 (U+1D11E).
        assert_eq!(
            parse(r#""\ud834\udd1e""#).unwrap(),
            Json::Str("𝄞".to_string())
        );
    }

    #[test]
    fn malformed_inputs_error() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "1 2",
            "\"\\x\"",
            "\"\\u+041\"",
            "\"\\u00\"",
            "\"unterminated",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn control_chars_escape_on_output() {
        let v = Json::str("a\u{0001}b");
        let text = v.to_string();
        assert_eq!(text, "\"a\\u0001b\"");
        assert_eq!(parse(&text).unwrap(), v);
    }

    /// The char-at-a-time string writer this module used before it wrote
    /// unescaped runs whole: the byte-identity oracle for `write_string`.
    fn write_string_by_char(out: &mut String, s: &str) {
        use fmt::Write as _;
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// SplitMix64: a seeded generator for the property tests below.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Pieces whose boundaries are where an escaping or run-scanning codec
    /// goes wrong: quotes, backslashes, control characters, and 2- and
    /// 4-byte UTF-8 characters next to one another and to plain runs.
    const PIECES: &[&str] = &[
        "a",
        "plain run",
        "\"",
        "\\",
        "\n",
        "\t",
        "\r",
        "\u{1}",
        "\u{1f}",
        "\u{7f}",
        "é",
        "𝄞",
        "/",
        " ",
        "\"é\\",
        "𝄞\u{8}",
    ];

    fn random_string(rng: &mut Rng) -> String {
        (0..rng.below(12))
            .map(|_| PIECES[rng.below(PIECES.len())])
            .collect()
    }

    #[test]
    fn string_runs_match_the_char_by_char_writer() {
        let mut rng = Rng(0x1357);
        for _ in 0..2000 {
            let s = random_string(&mut rng);
            let (mut runs, mut by_char) = (String::new(), String::new());
            write_string(&mut runs, &s);
            write_string_by_char(&mut by_char, &s);
            assert_eq!(runs, by_char, "{s:?}");
        }
    }

    #[test]
    fn seeded_round_trip_across_run_boundaries() {
        let mut rng = Rng(0x2468);
        for _ in 0..500 {
            let items = (0..rng.below(5))
                .map(|_| Json::Str(random_string(&mut rng)))
                .collect();
            let v = Json::Obj(vec![
                (random_string(&mut rng), Json::Arr(items)),
                (random_string(&mut rng), Json::Str(random_string(&mut rng))),
            ]);
            let mut compact = String::new();
            v.write_compact(&mut compact);
            assert_eq!(compact, v.to_string());
            for text in [compact, v.pretty()] {
                assert_eq!(parse(&text).unwrap(), v, "{text}");
            }
        }
        // Escapes only a reader sees, spliced between raw runs.
        let escapes: &[(&str, &str)] = &[
            ("\\/", "/"),
            ("\\b", "\u{8}"),
            ("\\f", "\u{c}"),
            ("\\u00e9", "é"),
            ("\\u0022", "\""),
            ("\\ud834\\udd1e", "𝄞"),
            ("é", "é"),
            ("𝄞x", "𝄞x"),
            ("ab", "ab"),
        ];
        for _ in 0..500 {
            let (mut text, mut want) = (String::from("\""), String::new());
            for _ in 0..rng.below(10) {
                let (escaped, decoded) = escapes[rng.below(escapes.len())];
                text.push_str(escaped);
                want.push_str(decoded);
            }
            text.push('"');
            assert_eq!(parse(&text).unwrap(), Json::Str(want), "{text}");
        }
    }

    #[test]
    fn lone_surrogates_become_replacement_characters() {
        for (text, want) in [
            (r#""\ud834""#, "\u{FFFD}"),
            (r#""\ud834x""#, "\u{FFFD}x"),
            (r#""\ud834\u0041""#, "\u{FFFD}A"),
            (r#""\ud834\ud834\udd1e""#, "\u{FFFD}𝄞"),
            (r#""\udd1e""#, "\u{FFFD}"),
        ] {
            assert_eq!(parse(text).unwrap(), Json::Str(want.to_string()), "{text}");
        }
    }

    /// Parses `text` on a helper thread and fails if that takes longer
    /// than `limit`, so a quadratic reader fails the test instead of
    /// hanging it.
    fn parse_within(text: String, limit: std::time::Duration) -> Json {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(parse(&text));
        });
        rx.recv_timeout(limit)
            .expect("parse is not linear in the document length")
            .expect("valid document")
    }

    #[test]
    fn parse_is_linear_in_document_length() {
        const MIB4: usize = 4 << 20;
        // Linear, each case takes well under a second even in a debug
        // build; a reader that rescans the rest of the document per
        // character needs hours.
        let limit = std::time::Duration::from_secs(60);
        let long = "ab\\n𝄞".repeat(MIB4 / 8);
        let v = parse_within(format!("\"{long}\""), limit);
        assert_eq!(v.as_str().map(str::len), Some(long.len() / 8 * 7));
        let item = "\"short string\",";
        let n = MIB4 / item.len();
        let text = format!("[{}\"\"]", item.repeat(n));
        let v = parse_within(text, limit);
        assert_eq!(v.as_array().map(<[Json]>::len), Some(n + 1));
    }

    #[test]
    fn nesting_is_capped() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&objects).is_err());
        // Far past the cap, unclosed: an error, not a stack overflow.
        assert!(parse(&"[".repeat(100_000)).is_err());
    }
}
