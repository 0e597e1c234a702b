//! The shared source-file substrate every rule visits.
//!
//! A [`SourceFile`] is a pre-processed view of one `.rs` file: per-line
//! *code* and *comment* halves (string/char literal contents removed from
//! the code half, multi-line block comments tracked), the set of lines
//! living inside `#[cfg(test)]` items, parsed `// lint: allow(...)`
//! escape-hatch comments, and brace-tracked function spans. Rules match
//! against this view instead of raw text so prose and literals never
//! fire a diagnostic.

/// Which kind of string literal is currently open across lines.
#[derive(Clone, Copy)]
enum OpenString {
    /// `"..."` — backslash escapes, may continue over a trailing `\` or
    /// simply contain the newline.
    Normal,
    /// `r##"..."##` — closes on `"` followed by this many `#`s.
    Raw(usize),
}

/// Splits source lines into a code part and a comment part, tracking
/// multi-line `/* */` comments and multi-line string literals, and
/// removing the contents of string and char literals from the code part
/// so pattern matching never fires on text.
#[derive(Default)]
struct LineSplitter {
    in_block_comment: bool,
    in_string: Option<OpenString>,
}

impl LineSplitter {
    /// Returns `(code, comment)` for one source line.
    fn split(&mut self, line: &str) -> (String, String) {
        let mut code = String::with_capacity(line.len());
        let mut comment = String::new();
        let chars: Vec<char> = line.chars().collect();
        let mut i = 0;
        if let Some(kind) = self.in_string {
            match self.consume_string(&chars, 0, kind) {
                Some(next) => {
                    self.in_string = None;
                    code.push('"');
                    i = next;
                }
                None => return (code, comment), // whole line is string text
            }
        }
        while i < chars.len() {
            if self.in_block_comment {
                if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    self.in_block_comment = false;
                    i += 2;
                } else {
                    comment.push(chars[i]);
                    i += 1;
                }
                continue;
            }
            let c = chars[i];
            match c {
                '/' if chars.get(i + 1) == Some(&'/') => {
                    // Line comment: the rest of the line is comment text.
                    comment.extend(&chars[i..]);
                    break;
                }
                '/' if chars.get(i + 1) == Some(&'*') => {
                    self.in_block_comment = true;
                    i += 2;
                }
                'r' | 'b'
                    if raw_string_hashes(&chars[i..]).is_some()
                        && (i == 0 || !is_ident_char(chars[i - 1])) =>
                {
                    // Raw string literal r"..." / r#"..."# / br"...": skip
                    // the prefix, then the contents to the closing quote
                    // (which may be on a later line).
                    let hashes = raw_string_hashes(&chars[i..]).unwrap_or(0);
                    code.push('"');
                    let body = i + chars[i..]
                        .iter()
                        .position(|&c| c == '"')
                        .map(|p| p + 1)
                        .unwrap_or(0);
                    match self.consume_string(&chars, body, OpenString::Raw(hashes)) {
                        Some(next) => {
                            code.push('"');
                            i = next;
                        }
                        None => {
                            self.in_string = Some(OpenString::Raw(hashes));
                            break;
                        }
                    }
                }
                '"' => {
                    // String literal (possibly preceded by a b prefix that
                    // was already emitted as code): skip to the closing
                    // quote, honouring backslash escapes — possibly on a
                    // later line.
                    code.push('"');
                    match self.consume_string(&chars, i + 1, OpenString::Normal) {
                        Some(next) => {
                            code.push('"');
                            i = next;
                        }
                        None => {
                            self.in_string = Some(OpenString::Normal);
                            break;
                        }
                    }
                }
                '\'' => {
                    // Char literal vs lifetime: a literal closes within a
                    // few chars (`'x'`, `'\n'`, `'\u{1F30A}'`).
                    let rest = &chars[i + 1..];
                    let close = rest.iter().take(12).position(|&c| c == '\'');
                    match close {
                        Some(n) if n > 0 => {
                            code.push('\'');
                            code.push('\'');
                            i += n + 2;
                        }
                        _ => {
                            // A lifetime (or stray quote): keep as code.
                            code.push('\'');
                            i += 1;
                        }
                    }
                }
                _ => {
                    code.push(c);
                    i += 1;
                }
            }
        }
        (code, comment)
    }

    /// Scans string-literal contents from `from`, returning the index
    /// just past the closing delimiter, or `None` when the literal runs
    /// off the end of the line (it continues on the next one).
    fn consume_string(&self, chars: &[char], from: usize, kind: OpenString) -> Option<usize> {
        let mut i = from;
        while i < chars.len() {
            match kind {
                OpenString::Normal => match chars[i] {
                    '\\' => i += 2,
                    '"' => return Some(i + 1),
                    _ => i += 1,
                },
                OpenString::Raw(hashes) => {
                    if chars[i] == '"'
                        && chars[i + 1..].iter().take_while(|&&c| c == '#').count() >= hashes
                    {
                        return Some(i + 1 + hashes);
                    }
                    i += 1;
                }
            }
        }
        None
    }
}

/// If `chars` begins a raw-string prefix (`r`, `br`, optionally followed
/// by `#`s, then `"`), returns the number of `#`s; `None` otherwise.
fn raw_string_hashes(chars: &[char]) -> Option<usize> {
    let mut i = 0;
    if chars.get(i) == Some(&'b') {
        i += 1;
    }
    if chars.get(i) != Some(&'r') {
        return None;
    }
    i += 1;
    let hashes = chars[i..].iter().take_while(|&&c| c == '#').count();
    if chars.get(i + hashes) == Some(&'"') {
        Some(hashes)
    } else {
        None
    }
}

/// Whether `c` can be part of an identifier.
fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// One parsed `// lint: allow(<rule>) — <reason>` escape-hatch comment.
#[derive(Clone, Debug)]
pub struct AllowComment {
    /// The rule name between the parentheses (not yet validated against
    /// the registry — `allow_audit` does that).
    pub rule_name: String,
    /// Whether any prose follows the closing parenthesis. The reason is
    /// mandatory: the hatch exists for *proven* invariants.
    pub has_reason: bool,
}

/// A pre-processed source file: per-line code/comment views plus the
/// structural facts (test regions, allows, function spans) rules share.
pub struct SourceFile {
    /// Code half of each line, literals stripped.
    pub code: Vec<String>,
    /// Comment half of each line.
    pub comment: Vec<String>,
    /// Whether each line lives inside a `#[cfg(test)]` item.
    pub in_test_mod: Vec<bool>,
    /// Parsed escape-hatch comment per line, if any.
    pub allows: Vec<Option<AllowComment>>,
    /// Brace-tracked `(name, first_line_idx, last_line_idx)` spans of
    /// every `fn` item (0-based, inclusive).
    pub fn_spans: Vec<(String, usize, usize)>,
}

impl SourceFile {
    /// Parses one file's text into the shared substrate.
    pub fn parse(text: &str) -> SourceFile {
        let mut splitter = LineSplitter::default();
        let (mut code, mut comment) = (Vec::new(), Vec::new());
        for line in text.lines() {
            let (c, m) = splitter.split(line);
            code.push(c);
            comment.push(m);
        }
        let in_test_mod = mark_test_mods(&code);
        let allows = comment.iter().map(|c| parse_allow(c)).collect();
        let fn_spans = mark_fn_spans(&code);
        SourceFile {
            code,
            comment,
            in_test_mod,
            allows,
            fn_spans,
        }
    }

    /// Whether an allow-comment for the rule named `rule` covers 0-based
    /// line `idx` (same line or up to six lines above).
    pub fn allowed(&self, rule: &str, idx: usize) -> bool {
        let lo = idx.saturating_sub(6);
        self.allows[lo..=idx]
            .iter()
            .any(|a| a.as_ref().is_some_and(|a| a.rule_name == rule))
    }

    /// Whether any comment in the window `[idx-above, idx]` contains
    /// `needle` (used for `SAFETY:` and `SeqCst` justifications).
    pub fn comment_near(&self, needle: &str, idx: usize, above: usize) -> bool {
        let lo = idx.saturating_sub(above);
        self.comment[lo..=idx].iter().any(|c| c.contains(needle))
    }
}

/// Parses the escape hatch out of one line's comment text. The rule name
/// must be a plain identifier — documentation that shows the placeholder
/// form (`allow(<rule>)`) is not an allow.
fn parse_allow(comment: &str) -> Option<AllowComment> {
    let pos = comment.find("lint: allow(")?;
    let rest = &comment[pos + "lint: allow(".len()..];
    let close = rest.find(')')?;
    let rule_name = &rest[..close];
    if rule_name.is_empty()
        || !rule_name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    {
        return None;
    }
    let tail = &rest[close + 1..];
    // A reason is any prose after the closing parenthesis beyond
    // separator punctuation (`—`, `-`, `:`) and whitespace.
    let has_reason = tail
        .chars()
        .filter(|c| !c.is_whitespace() && !matches!(c, '—' | '-' | ':' | '–'))
        .count()
        >= 3;
    Some(AllowComment {
        rule_name: rule_name.to_string(),
        has_reason,
    })
}

/// Marks the lines belonging to `#[cfg(test)]` items by brace tracking:
/// from a `#[cfg(test)]` attribute (including compound forms like
/// `#[cfg(all(test, feature = "..."))]`, but not `not(test)`) to the
/// close of the brace block that starts on the next code line (or to the
/// first `;` for braceless items).
fn mark_test_mods(code: &[String]) -> Vec<bool> {
    let mut flags = vec![false; code.len()];
    let mut depth: i64 = 0;
    let mut armed = false;
    let mut region_close: Option<i64> = None;
    for (i, line) in code.iter().enumerate() {
        let test_cfg =
            line.contains("#[cfg(") && !line.contains("not(test") && line_has_token(line, "test");
        if test_cfg {
            armed = true;
        }
        if armed || region_close.is_some() {
            flags[i] = true;
        }
        let opens = line.matches('{').count() as i64;
        let closes = line.matches('}').count() as i64;
        if armed {
            if opens > 0 {
                region_close = Some(depth);
                armed = false;
            } else if line.contains(';') {
                armed = false;
            }
        }
        depth += opens - closes;
        if let Some(d) = region_close {
            if depth <= d {
                region_close = None;
            }
        }
    }
    flags
}

/// Brace-tracks `fn` items into `(name, start, end)` spans (0-based line
/// indices, inclusive). Nested functions and closures extend the
/// innermost enclosing span; rules that walk spans (lock ordering, wire
/// exhaustiveness) only need "which `fn` item is this line inside".
fn mark_fn_spans(code: &[String]) -> Vec<(String, usize, usize)> {
    let mut spans = Vec::new();
    let mut open: Vec<(String, usize, i64)> = Vec::new(); // (name, start, depth at open)
    let mut depth: i64 = 0;
    let mut pending: Option<(String, usize)> = None;
    for (i, line) in code.iter().enumerate() {
        if pending.is_none() {
            if let Some(name) = fn_name_on_line(line) {
                pending = Some((name, i));
            }
        }
        let opens = line.matches('{').count() as i64;
        let closes = line.matches('}').count() as i64;
        if opens > 0 {
            if let Some((name, start)) = pending.take() {
                open.push((name, start, depth));
            }
        } else if line.contains(';') && opens == 0 {
            // Braceless item (trait method declaration): no body to span.
            pending = None;
        }
        depth += opens - closes;
        while let Some((_, _, d)) = open.last() {
            if depth <= *d {
                let (name, start, _) = open.pop().unwrap_or_default();
                spans.push((name, start, i));
            } else {
                break;
            }
        }
    }
    spans.sort_by_key(|s| s.1);
    spans
}

/// Extracts the function name if this code line declares one.
fn fn_name_on_line(line: &str) -> Option<String> {
    let pos = find_token(line, "fn")?;
    let rest = &line[pos + 2..];
    let rest = rest.trim_start();
    let name: String = rest
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

/// Whether `token` appears in `line` with non-identifier characters (or
/// line edges) on both sides.
pub fn line_has_token(line: &str, token: &str) -> bool {
    find_token(line, token).is_some()
}

/// Byte offset of the first token-boundary occurrence of `token`.
pub fn find_token(line: &str, token: &str) -> Option<usize> {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut from = 0;
    while let Some(pos) = line[from..].find(token) {
        let start = from + pos;
        let end = start + token.len();
        let ok_before = start == 0 || !is_ident(line[..start].chars().next_back().unwrap_or(' '));
        let ok_after = end >= line.len() || !is_ident(line[end..].chars().next().unwrap_or(' '));
        if ok_before && ok_after {
            return Some(start);
        }
        from = end;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitter_strips_strings_and_comments() {
        let f = SourceFile::parse("let x = \"unsafe\"; // unsafe prose\n");
        assert!(!line_has_token(&f.code[0], "unsafe"));
        assert!(f.comment[0].contains("unsafe prose"));
    }

    #[test]
    fn multi_line_strings_stay_stripped() {
        // A string spanning lines (with and without a trailing backslash
        // continuation) must not leak its contents into code or comment.
        let f = SourceFile::parse(
            "let s = \"first \\\n    // lint: allow(bad_rule)\\n\";\nlet t = 1;\n",
        );
        assert!(f.allows[1].is_none(), "in-string text parsed as an allow");
        assert!(f.code[2].contains("let t"));
        let raw = SourceFile::parse("let r = r#\"multi\nunsafe line\n\"#;\nlet u = 2;\n");
        assert!(!line_has_token(&raw.code[1], "unsafe"));
        assert!(raw.code[3].contains("let u"));
    }

    #[test]
    fn allow_parsing_requires_identifier_rule_names() {
        let f = SourceFile::parse(
            "// lint: allow(no_unwrap) — proven\n\
             // lint: allow(<rule>) — placeholder docs\n\
             // lint: allow(bad_rule)\n",
        );
        let a0 = f.allows[0].as_ref().expect("real allow parses");
        assert_eq!(a0.rule_name, "no_unwrap");
        assert!(a0.has_reason);
        assert!(f.allows[1].is_none(), "placeholder form is not an allow");
        let a2 = f.allows[2].as_ref().expect("reasonless allow still parses");
        assert!(!a2.has_reason);
    }

    #[test]
    fn fn_spans_cover_bodies() {
        let f = SourceFile::parse(
            "fn alpha() {\n    body();\n}\n\npub fn beta(x: u32) -> u32 {\n    x\n}\n",
        );
        let names: Vec<&str> = f.fn_spans.iter().map(|s| s.0.as_str()).collect();
        assert_eq!(names, ["alpha", "beta"]);
        assert_eq!((f.fn_spans[0].1, f.fn_spans[0].2), (0, 2));
        assert_eq!((f.fn_spans[1].1, f.fn_spans[1].2), (4, 6));
    }

    #[test]
    fn test_mod_marking_tracks_braces() {
        let f = SourceFile::parse(
            "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn live2() {}\n",
        );
        assert_eq!(f.in_test_mod, [false, true, true, true, true, false]);
    }
}
