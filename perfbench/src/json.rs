//! Just enough JSON for the benchmark: escaping request bodies and
//! reading the flat objects the server answers with.

use std::collections::HashMap;

/// A scalar JSON value of a flat object.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar {
    /// A string, unescaped.
    Str(String),
    /// A number.
    Num(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

/// Quote and escape `s` as a JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Parse a flat JSON object (scalar values only). Nested values are an
/// error: the server's query responses never contain them.
pub fn parse_flat(text: &str) -> Result<HashMap<String, Scalar>, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let mut out = HashMap::new();
    p.ws();
    p.expect(b'{')?;
    p.ws();
    if p.peek() == Some(b'}') {
        return Ok(out);
    }
    loop {
        p.ws();
        let key = p.string()?;
        p.ws();
        p.expect(b':')?;
        p.ws();
        let value = p.scalar()?;
        out.insert(key, value);
        p.ws();
        match p.next() {
            Some(b',') => continue,
            Some(b'}') => return Ok(out),
            other => return Err(format!("expected , or }} at {}, got {other:?}", p.i)),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let c = self.peek();
        self.i += 1;
        c
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        match self.next() {
            Some(got) if got == c => Ok(()),
            got => Err(format!(
                "expected {:?} at {}, got {got:?}",
                c as char,
                self.i - 1
            )),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut bytes = Vec::new();
        loop {
            match self.next() {
                None => return Err("unterminated string".to_owned()),
                Some(b'"') => break,
                Some(b'\\') => match self.next() {
                    Some(b'"') => bytes.push(b'"'),
                    Some(b'\\') => bytes.push(b'\\'),
                    Some(b'/') => bytes.push(b'/'),
                    Some(b'n') => bytes.push(b'\n'),
                    Some(b'r') => bytes.push(b'\r'),
                    Some(b't') => bytes.push(b'\t'),
                    Some(b'b') => bytes.push(8),
                    Some(b'f') => bytes.push(12),
                    Some(b'u') => {
                        let hex = self.s.get(self.i..self.i + 4).ok_or("short \\u escape")?;
                        self.i += 4;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        let c = char::from_u32(code).unwrap_or('\u{fffd}');
                        bytes.extend_from_slice(c.to_string().as_bytes());
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(c) => bytes.push(c),
            }
        }
        String::from_utf8(bytes).map_err(|e| e.to_string())
    }

    fn scalar(&mut self) -> Result<Scalar, String> {
        match self.peek() {
            Some(b'"') => Ok(Scalar::Str(self.string()?)),
            Some(b't') => self.word("true", Scalar::Bool(true)),
            Some(b'f') => self.word("false", Scalar::Bool(false)),
            Some(b'n') => self.word("null", Scalar::Null),
            Some(_) => {
                let start = self.i;
                while matches!(
                    self.peek(),
                    Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                ) {
                    self.i += 1;
                }
                let text =
                    std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?;
                text.parse()
                    .map(Scalar::Num)
                    .map_err(|_| format!("bad number {text:?} at {start}"))
            }
            None => Err("unexpected end".to_owned()),
        }
    }

    fn word(&mut self, w: &str, v: Scalar) -> Result<Scalar, String> {
        if self.s[self.i..].starts_with(w.as_bytes()) {
            self.i += w.len();
            Ok(v)
        } else {
            Err(format!("bad literal at {}", self.i))
        }
    }
}

/// A string field of a parsed object.
pub fn str_field<'a>(obj: &'a HashMap<String, Scalar>, key: &str) -> Option<&'a str> {
    match obj.get(key) {
        Some(Scalar::Str(s)) => Some(s),
        _ => None,
    }
}

/// A numeric field of a parsed object.
pub fn num_field(obj: &HashMap<String, Scalar>, key: &str) -> Option<f64> {
    match obj.get(key) {
        Some(Scalar::Num(n)) => Some(*n),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quoted_strings_parse_back() {
        let nasty = "say \"hi\"\\ \n\ttab é \u{1}";
        let obj = parse_flat(&format!(
            "{{\"q\":{},\"n\":-1.5e2,\"b\":true,\"z\":null}}",
            quote(nasty)
        ))
        .unwrap();
        assert_eq!(str_field(&obj, "q"), Some(nasty));
        assert_eq!(num_field(&obj, "n"), Some(-150.0));
        assert_eq!(obj.get("b"), Some(&Scalar::Bool(true)));
        assert_eq!(obj.get("z"), Some(&Scalar::Null));
    }

    #[test]
    fn nested_values_are_rejected() {
        assert!(parse_flat("{\"a\":{\"b\":1}}").is_err());
        assert!(parse_flat("{\"a\":1").is_err());
    }
}
