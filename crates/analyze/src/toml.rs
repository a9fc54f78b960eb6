//! The TOML subset gate files use, parsed by hand (no `toml` crate):
//! comments, `[[gate]]` headers, and `key = value` with a basic (escaped)
//! or literal string, a number, a boolean or a one-line string array.
//! Anything else is an error with a line number, never a silent skip.

/// A parsed value.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum TomlVal {
    Str(String),
    Num(f64),
    Bool(bool),
    StrArr(Vec<String>),
}

/// One table: keys in file order.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct TomlTable {
    pub(crate) entries: Vec<(String, TomlVal)>,
}

impl TomlTable {
    pub(crate) fn get(&self, key: &str) -> Option<&TomlVal> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The string at `key`; another kind of value there is an error.
    pub(crate) fn get_str(&self, key: &str) -> Result<Option<&str>, String> {
        match self.get(key) {
            Some(TomlVal::Str(s)) => Ok(Some(s)),
            other => other.map_or(Ok(None), |_| Err(format!("`{key}` must be a string"))),
        }
    }

    /// The number at `key`; another kind of value there is an error.
    pub(crate) fn get_num(&self, key: &str) -> Result<Option<f64>, String> {
        match self.get(key) {
            Some(TomlVal::Num(x)) => Ok(Some(*x)),
            other => other.map_or(Ok(None), |_| Err(format!("`{key}` must be a number"))),
        }
    }
}

/// Parses a sequence of `[[name]]` tables. A key before the first header
/// and a key repeated within one table are errors.
pub(crate) fn parse_tables(text: &str) -> Result<Vec<(String, TomlTable)>, String> {
    let mut tables: Vec<(String, TomlTable)> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let at = |msg: String| format!("line {}: {msg}", i + 1);
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(h) = line.strip_prefix("[[") {
            let name = h
                .strip_suffix("]]")
                .ok_or_else(|| at(format!("malformed header {line:?}")))?;
            tables.push((name.trim().to_owned(), TomlTable::default()));
            continue;
        }
        if line.starts_with('[') {
            return Err(at(format!("only [[...]] headers are supported: {line:?}")));
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| at(format!("expected key = value, got {line:?}")))?;
        let key = key.trim();
        if key.is_empty() || key.contains(|c: char| !c.is_ascii_alphanumeric() && !"_-".contains(c))
        {
            return Err(at(format!("bad key {key:?} (bare keys only)")));
        }
        let value = parse_value(value.trim()).map_err(&at)?;
        let Some((_, table)) = tables.last_mut() else {
            return Err(at("key/value before the first [[table]] header".into()));
        };
        if table.get(key).is_some() {
            return Err(at(format!("duplicate key {key:?}")));
        }
        table.entries.push((key.to_owned(), value));
    }
    Ok(tables)
}

/// Strips a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut quote: Option<u8> = None;
    for (i, &b) in bytes.iter().enumerate() {
        match (quote, b) {
            (Some(q), _) if b == q && (q != b'"' || bytes[..i].last() != Some(&b'\\')) => {
                quote = None
            }
            (None, b'"' | b'\'') => quote = Some(b),
            (None, b'#') => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_value(text: &str) -> Result<TomlVal, String> {
    match text.as_bytes().first() {
        None => Err("missing value".into()),
        _ if text == "true" || text == "false" => Ok(TomlVal::Bool(text == "true")),
        Some(b'"' | b'\'') => match parse_string(text)? {
            (s, rest) if rest.trim().is_empty() => Ok(TomlVal::Str(s)),
            (_, rest) => Err(format!("trailing content after string: {rest:?}")),
        },
        Some(b'[') => {
            let mut rest = text[1..]
                .strip_suffix(']')
                .ok_or("arrays must open and close on one line")?
                .trim();
            let mut items = Vec::new();
            while !rest.is_empty() {
                let (s, after) = parse_string(rest)?;
                items.push(s);
                rest = after.trim_start();
                if let Some(r) = rest.strip_prefix(',') {
                    rest = r.trim_start();
                } else if !rest.is_empty() {
                    return Err(format!("expected ',' between array items at {rest:?}"));
                }
            }
            Ok(TomlVal::StrArr(items))
        }
        _ => text
            .replace('_', "")
            .parse()
            .map(TomlVal::Num)
            .map_err(|_| format!("unsupported value {text:?}")),
    }
}

/// Parses one leading string literal, returning it and the remainder.
fn parse_string(text: &str) -> Result<(String, &str), String> {
    match text.as_bytes().first() {
        Some(b'\'') => {
            let end = text[1..].find('\'').ok_or("unterminated literal string")?;
            Ok((text[1..1 + end].to_owned(), &text[end + 2..]))
        }
        Some(b'"') => {
            let mut out = String::new();
            let mut chars = text[1..].char_indices();
            while let Some((i, c)) = chars.next() {
                out.push(match c {
                    '"' => return Ok((out, &text[1 + i + 1..])),
                    '\\' => match chars.next().map(|(_, e)| e) {
                        Some('n') => '\n',
                        Some('t') => '\t',
                        Some('r') => '\r',
                        Some(e @ ('"' | '\\')) => e,
                        e => return Err(format!("bad escape after a backslash: {e:?}")),
                    },
                    c => c,
                });
            }
            Err("unterminated basic string".into())
        }
        _ => Err(format!("expected a string at {text:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_gate_shaped_files() {
        let text = r#"
# Committed robustness gates.
[[gate]]
name = "heavy-drain-p99"          # heavy episodes drain
source = "report"
reduce = "run_p99"
where = "heavy > 0"               # the predicate
op = "<="
threshold = 4.5

[[gate]]
name = "funnel"
steps = ["heavy > 0", "balanced == true and heavy == 0"]
window = 5
enabled = true
note = 'literal # not a comment'
"#;
        let tables = parse_tables(text).unwrap();
        assert_eq!(tables.len(), 2);
        let (h, g) = &tables[0];
        assert_eq!(h, "gate");
        assert_eq!(g.get_str("name"), Ok(Some("heavy-drain-p99")));
        assert_eq!(g.get_str("where"), Ok(Some("heavy > 0")));
        assert_eq!(g.get_num("threshold"), Ok(Some(4.5)));
        assert!(g.get_str("threshold").is_err() && g.get_num("where").is_err());
        let (_, g) = &tables[1];
        assert_eq!(
            g.get("steps"),
            Some(&TomlVal::StrArr(vec![
                "heavy > 0".into(),
                "balanced == true and heavy == 0".into()
            ]))
        );
        assert_eq!(g.get_num("window"), Ok(Some(5.0)));
        assert_eq!(g.get("enabled"), Some(&TomlVal::Bool(true)));
        assert_eq!(g.get_str("note"), Ok(Some("literal # not a comment")));
    }

    #[test]
    fn rejects_what_it_does_not_support() {
        assert!(parse_tables("key = 1\n").is_err()); // before any header
        assert!(parse_tables("[table]\n").is_err());
        assert!(parse_tables("[[g]]\nk = 1999-01-01\n").is_err());
        assert!(parse_tables("[[g]]\nk = [1, 2]\n").is_err());
        assert!(parse_tables("[[g]]\nk = \"open\n").is_err());
        assert!(parse_tables("[[g]]\nk = 1\nk = 2\n").is_err());
        assert!(parse_tables("[[g]]\nnot a pair\n").is_err());
        let err = parse_tables("[[g]]\n\nbad!key = 1\n").unwrap_err();
        assert!(err.starts_with("line 3:"), "{err}");
    }
}
