//! The hermetic Rust lexer: one scan, two synchronized views.
//!
//! This is the substrate every rule family sits on. A single pass over
//! the source produces:
//!
//! 1. **A token stream** ([`Token`]): identifiers, lifetimes, integer /
//!    float literals, string / raw-string / char literals, and
//!    punctuation, each carrying its 1-based line, column, and the
//!    brace-nesting depth it sits at. The item index
//!    ([`crate::index`]) and call graph ([`crate::callgraph`]) parse
//!    this stream.
//! 2. **Blanked per-line code** ([`LineMeta`]): the original line with
//!    comment prose and literal contents replaced by spaces (same
//!    character length, so column arithmetic holds). The line-oriented
//!    rule families (determinism, error-discipline, paper-constants)
//!    match against this view exactly as the v1 analyzer did, which is
//!    what keeps their golden diagnostics byte-identical across the
//!    engine rewrite.
//!
//! Along the way the lexer harvests `// lint:allow(rule-id)`
//! annotations and the `#[cfg(test)]` tail marker, per line.
//!
//! The lexer is deliberately not a full Rust lexer: raw identifiers
//! (`r#match`) tokenize as `r`, `#`, `match`, and trailing-dot floats
//! (`1.`) as an integer plus punctuation. Neither occurs in this
//! workspace and neither affects blanking.

/// What a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`fn`, `Simulation`, `unwrap`).
    Ident,
    /// A lifetime (`'a`) — distinguished from char literals.
    Lifetime,
    /// An integer literal (`42`, `0xD1B`, `1_000u64`).
    Int,
    /// A float literal (`0.3`, `1e9`, `2.5f64`).
    Float,
    /// A string or byte-string literal (`"…"`, `b"…"`), possibly
    /// spanning lines.
    Str,
    /// A raw string literal (`r"…"`, `r#"…"#`, `br#"…"#`).
    RawStr,
    /// A char or byte-char literal (`'x'`, `'\n'`, `b'\0'`).
    Char,
    /// One punctuation character (`.`, `:`, `{`, …). Multi-character
    /// operators appear as adjacent single-character tokens.
    Punct,
}

/// One lexed token.
#[derive(Debug, Clone)]
pub struct Token {
    /// The token's kind.
    pub kind: TokenKind,
    /// The token text. Literal tokens keep their opening quote/prefix
    /// but not their (blanked) contents; `Str`/`RawStr` text is the
    /// literal's *contents* for the taint rules, never matched against
    /// code.
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// 1-based character column of the token's first character.
    pub col: u32,
    /// Brace-nesting depth. An opening `{` and its matching `}` share
    /// the depth of the block they delimit; tokens inside sit one
    /// deeper.
    pub depth: u32,
    /// Whether the token sits at or after the file's `#[cfg(test)]`
    /// marker (this workspace keeps test modules at end of file).
    pub in_test: bool,
}

impl Token {
    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }
}

/// Per-line metadata: the blanked code view plus annotations.
#[derive(Debug, Clone)]
pub struct LineMeta {
    /// The line with comments and literal contents blanked (same
    /// character length as the original).
    pub code: String,
    /// Rule ids named by `// lint:allow(...)` annotations on this line.
    pub allows: Vec<String>,
    /// Whether the line sits at or after `#[cfg(test)]`.
    pub in_test: bool,
}

/// The result of lexing one source file.
#[derive(Debug, Clone)]
pub struct LexedFile {
    /// The token stream, in source order.
    pub tokens: Vec<Token>,
    /// Per-line blanked code and annotations, 0-indexed by line.
    pub lines: Vec<LineMeta>,
}

/// Carry state between lines (strings and block comments span lines).
enum Mode {
    Code,
    BlockComment(u32),
    Str,
    RawStr(u32),
}

/// Lexes a whole source text.
pub fn lex(text: &str) -> LexedFile {
    let mut lx = Lexer {
        tokens: Vec::new(),
        lines: Vec::new(),
        mode: Mode::Code,
        depth: 0,
        pending: None,
    };
    for (line_no, line) in text.lines().enumerate() {
        lx.scan_line(line, line_no);
    }
    // An unterminated multi-line literal still yields its token.
    lx.flush_pending();
    // `#[cfg(test)]` marks the rest of the file, lines and tokens both.
    let first_test = lx
        .lines
        .iter()
        .position(|l| l.code.contains("#[cfg(test)]"));
    if let Some(first) = first_test {
        for l in &mut lx.lines[first..] {
            l.in_test = true;
        }
        for t in &mut lx.tokens {
            if t.line as usize > first {
                t.in_test = true;
            }
        }
    }
    LexedFile {
        tokens: lx.tokens,
        lines: lx.lines,
    }
}

/// A literal token under construction (may span lines).
struct Pending {
    kind: TokenKind,
    text: String,
    line: u32,
    col: u32,
    depth: u32,
}

struct Lexer {
    tokens: Vec<Token>,
    lines: Vec<LineMeta>,
    mode: Mode,
    depth: u32,
    pending: Option<Pending>,
}

impl Lexer {
    fn emit(&mut self, kind: TokenKind, text: String, line: usize, col: usize) {
        self.tokens.push(Token {
            kind,
            text,
            line: line as u32 + 1,
            col: col as u32 + 1,
            depth: self.depth,
            in_test: false,
        });
    }

    fn start_pending(&mut self, kind: TokenKind, line: usize, col: usize) {
        self.pending = Some(Pending {
            kind,
            text: String::new(),
            line: line as u32 + 1,
            col: col as u32 + 1,
            depth: self.depth,
        });
    }

    fn flush_pending(&mut self) {
        if let Some(p) = self.pending.take() {
            self.tokens.push(Token {
                kind: p.kind,
                text: p.text,
                line: p.line,
                col: p.col,
                depth: p.depth,
                in_test: false,
            });
        }
    }

    fn scan_line(&mut self, line: &str, line_no: usize) {
        let chars: Vec<char> = line.chars().collect();
        let mut code = String::with_capacity(chars.len());
        let mut allows = Vec::new();
        let mut i = 0;
        while i < chars.len() {
            match self.mode {
                Mode::BlockComment(depth) => {
                    if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        self.mode = Mode::BlockComment(depth + 1);
                        code.push_str("  ");
                        i += 2;
                    } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        self.mode = if depth == 1 {
                            Mode::Code
                        } else {
                            Mode::BlockComment(depth - 1)
                        };
                        code.push_str("  ");
                        i += 2;
                    } else {
                        code.push(' ');
                        i += 1;
                    }
                }
                Mode::Str => {
                    if chars[i] == '\\' {
                        code.push_str("  ");
                        if let Some(p) = &mut self.pending {
                            p.text.push('\\');
                            if let Some(&c) = chars.get(i + 1) {
                                p.text.push(c);
                            }
                        }
                        i += 2;
                    } else if chars[i] == '"' {
                        self.mode = Mode::Code;
                        self.flush_pending();
                        code.push(' ');
                        i += 1;
                    } else {
                        if let Some(p) = &mut self.pending {
                            p.text.push(chars[i]);
                        }
                        code.push(' ');
                        i += 1;
                    }
                }
                Mode::RawStr(hashes) => {
                    if chars[i] == '"' && closes_raw(&chars, i + 1, hashes) {
                        self.mode = Mode::Code;
                        self.flush_pending();
                        let skip = 1 + hashes as usize;
                        for _ in 0..skip.min(chars.len() - i) {
                            code.push(' ');
                        }
                        i += skip;
                    } else {
                        if let Some(p) = &mut self.pending {
                            p.text.push(chars[i]);
                        }
                        code.push(' ');
                        i += 1;
                    }
                }
                Mode::Code => {
                    let c = chars[i];
                    if c == '/' && chars.get(i + 1) == Some(&'/') {
                        // Line comment: harvest allow annotations, blank
                        // the rest of the line. Doc comments (`///`,
                        // `//!`) are documentation, not directives — an
                        // allow annotation mentioned in prose there must
                        // not suppress anything (or read as a stale
                        // allow).
                        let doc = matches!(chars.get(i + 2), Some(&'/') | Some(&'!'));
                        if !doc {
                            let comment: String = chars[i..].iter().collect();
                            collect_allows(&comment, &mut allows);
                        }
                        for _ in i..chars.len() {
                            code.push(' ');
                        }
                        i = chars.len();
                    } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                        self.mode = Mode::BlockComment(1);
                        code.push_str("  ");
                        i += 2;
                    } else if let Some(hashes) = raw_string_at(&chars, i) {
                        // r"..", r#".."#, br".." etc.: blank the prefix.
                        let prefix = prefix_len(&chars, i) + hashes as usize + 1;
                        self.start_pending(TokenKind::RawStr, line_no, i);
                        for _ in 0..prefix {
                            code.push(' ');
                        }
                        i += prefix;
                        self.mode = Mode::RawStr(hashes);
                    } else if c == '"'
                        || (c == 'b' && chars.get(i + 1) == Some(&'"') && boundary(&chars, i))
                    {
                        let skip = if c == 'b' { 2 } else { 1 };
                        self.start_pending(TokenKind::Str, line_no, i);
                        for _ in 0..skip {
                            code.push(' ');
                        }
                        i += skip;
                        self.mode = Mode::Str;
                    } else if c == '\'' {
                        // Char literal vs lifetime.
                        if chars.get(i + 1) == Some(&'\\') {
                            // Escaped char literal: the char after the
                            // backslash is consumed (it may itself be a
                            // quote, as in '\''), then blank to the
                            // closing quote.
                            let mut j = i + 3;
                            while j < chars.len() && chars[j] != '\'' {
                                j += 1;
                            }
                            let text: String = chars[i..=j.min(chars.len() - 1)].iter().collect();
                            self.emit(TokenKind::Char, text, line_no, i);
                            for _ in i..=j.min(chars.len() - 1) {
                                code.push(' ');
                            }
                            i = j + 1;
                        } else if chars.get(i + 2) == Some(&'\'') {
                            // 'x' char literal.
                            let text: String = chars[i..i + 3].iter().collect();
                            self.emit(TokenKind::Char, text, line_no, i);
                            code.push_str("   ");
                            i += 3;
                        } else {
                            // Lifetime: the quote is blanked, the name
                            // stays visible in the code view.
                            let mut j = i + 1;
                            while j < chars.len() && is_ident_char(chars[j]) {
                                j += 1;
                            }
                            let text: String = chars[i..j].iter().collect();
                            self.emit(TokenKind::Lifetime, text, line_no, i);
                            code.push(' ');
                            for &ch in &chars[i + 1..j] {
                                code.push(ch);
                            }
                            i = j;
                        }
                    } else if is_ident_start(c) {
                        let mut j = i + 1;
                        while j < chars.len() && is_ident_char(chars[j]) {
                            j += 1;
                        }
                        let text: String = chars[i..j].iter().collect();
                        self.emit(TokenKind::Ident, text, line_no, i);
                        for &ch in &chars[i..j] {
                            code.push(ch);
                        }
                        i = j;
                    } else if c.is_ascii_digit() {
                        let (j, kind) = scan_number(&chars, i);
                        let text: String = chars[i..j].iter().collect();
                        self.emit(kind, text, line_no, i);
                        for &ch in &chars[i..j] {
                            code.push(ch);
                        }
                        i = j;
                    } else {
                        if !c.is_whitespace() {
                            match c {
                                '{' => {
                                    self.emit(TokenKind::Punct, c.to_string(), line_no, i);
                                    self.depth += 1;
                                }
                                '}' => {
                                    self.depth = self.depth.saturating_sub(1);
                                    self.emit(TokenKind::Punct, c.to_string(), line_no, i);
                                }
                                _ => self.emit(TokenKind::Punct, c.to_string(), line_no, i),
                            }
                        }
                        code.push(c);
                        i += 1;
                    }
                }
            }
        }
        // A line comment never carries across lines.
        self.lines.push(LineMeta {
            code,
            allows,
            in_test: false,
        });
    }
}

/// Consumes a numeric literal starting at `i`; returns the end index and
/// whether it lexed as an integer or float. Handles `0x`/`0o`/`0b`
/// prefixes, `_` separators, type suffixes (`1u64`, `2.5f32`), decimal
/// points followed by a digit (so `0..10` stays integer + range), and
/// exponents (`1e9`, `2.5e-3`).
fn scan_number(chars: &[char], i: usize) -> (usize, TokenKind) {
    let mut j = i;
    let mut kind = TokenKind::Int;
    let radix_prefixed = chars[j] == '0'
        && matches!(
            chars.get(j + 1),
            Some(&'x') | Some(&'X') | Some(&'o') | Some(&'O') | Some(&'b') | Some(&'B')
        );
    if radix_prefixed {
        j += 2;
        while j < chars.len() && (chars[j].is_ascii_alphanumeric() || chars[j] == '_') {
            j += 1;
        }
        return (j, TokenKind::Int);
    }
    while j < chars.len() && (chars[j].is_ascii_digit() || chars[j] == '_') {
        j += 1;
    }
    if chars.get(j) == Some(&'.') && chars.get(j + 1).is_some_and(|c| c.is_ascii_digit()) {
        kind = TokenKind::Float;
        j += 1;
        while j < chars.len() && (chars[j].is_ascii_digit() || chars[j] == '_') {
            j += 1;
        }
    }
    if matches!(chars.get(j), Some(&'e') | Some(&'E')) {
        let exp_start = if matches!(chars.get(j + 1), Some(&'+') | Some(&'-')) {
            j + 2
        } else {
            j + 1
        };
        if chars.get(exp_start).is_some_and(|c| c.is_ascii_digit()) {
            kind = TokenKind::Float;
            j = exp_start;
            while j < chars.len() && chars[j].is_ascii_digit() {
                j += 1;
            }
        }
    }
    // Type suffix (`u64`, `f64`, `usize`) folds into the literal.
    while j < chars.len() && is_ident_char(chars[j]) {
        if matches!(chars[j], 'f') && kind == TokenKind::Int {
            kind = TokenKind::Float;
        }
        j += 1;
    }
    (j, kind)
}

/// Whether `chars[at..]` holds `hashes` consecutive `#`s (raw-string
/// terminator check).
fn closes_raw(chars: &[char], at: usize, hashes: u32) -> bool {
    let n = hashes as usize;
    chars.len() >= at + n && chars[at..at + n].iter().all(|&c| c == '#')
}

/// Detects a raw-string opener at `i` (`r"`, `r#"`, `br"` ...),
/// returning its hash count.
fn raw_string_at(chars: &[char], i: usize) -> Option<u32> {
    if !boundary(chars, i) {
        return None;
    }
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0u32;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    (chars.get(j) == Some(&'"')).then_some(hashes)
}

/// Length of the `r`/`br` prefix of the raw string starting at `i`.
fn prefix_len(chars: &[char], i: usize) -> usize {
    if chars.get(i) == Some(&'b') {
        2
    } else {
        1
    }
}

/// Whether position `i` starts a fresh token (previous char is not an
/// identifier character), so `br"` in `rebr"` is not a string prefix.
fn boundary(chars: &[char], i: usize) -> bool {
    i == 0 || !is_ident_char(chars[i - 1])
}

/// Identifier start character (no leading digits).
fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_'
}

/// Identifier character test shared with the rules.
pub fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Extracts rule ids from every `lint:allow(a, b)` in a comment.
fn collect_allows(comment: &str, allows: &mut Vec<String>) {
    let mut rest = comment;
    while let Some(at) = rest.find("lint:allow(") {
        let after = &rest[at + "lint:allow(".len()..];
        let Some(close) = after.find(')') else {
            return;
        };
        for id in after[..close].split(',') {
            let id = id.trim();
            if !id.is_empty() {
                allows.push(id.to_string());
            }
        }
        rest = &after[close + 1..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(text: &str) -> Vec<(TokenKind, String)> {
        lex(text)
            .tokens
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn idents_numbers_and_punct_tokenize() {
        let ts = kinds("fn f(x: u64) -> u64 { x + 0x1F }");
        assert!(ts.contains(&(TokenKind::Ident, "fn".into())));
        assert!(ts.contains(&(TokenKind::Ident, "f".into())));
        assert!(ts.contains(&(TokenKind::Int, "0x1F".into())));
        assert!(ts.contains(&(TokenKind::Punct, "{".into())));
    }

    #[test]
    fn float_vs_range_disambiguation() {
        let ts = kinds("let a = 0.3; for i in 0..10 {}");
        assert!(ts.contains(&(TokenKind::Float, "0.3".into())));
        assert!(ts.contains(&(TokenKind::Int, "0".into())));
        assert!(ts.contains(&(TokenKind::Int, "10".into())));
    }

    #[test]
    fn suffixed_and_exponent_literals() {
        let ts = kinds("let a = 1u64; let b = 2.5f32; let c = 1e9;");
        assert!(ts.contains(&(TokenKind::Int, "1u64".into())));
        assert!(ts.contains(&(TokenKind::Float, "2.5f32".into())));
        assert!(ts.contains(&(TokenKind::Float, "1e9".into())));
    }

    #[test]
    fn lifetimes_and_char_literals_are_distinct() {
        let ts = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let q = '\\''; }");
        assert!(ts.contains(&(TokenKind::Lifetime, "'a".into())));
        assert!(ts.contains(&(TokenKind::Char, "'x'".into())));
        assert!(ts.contains(&(TokenKind::Char, "'\\''".into())));
    }

    #[test]
    fn depth_pairs_open_and_close() {
        let lexed = lex("fn f() { if x { y(); } }");
        let braces: Vec<(String, u32)> = lexed
            .tokens
            .iter()
            .filter(|t| t.is_punct('{') || t.is_punct('}'))
            .map(|t| (t.text.clone(), t.depth))
            .collect();
        assert_eq!(
            braces,
            vec![
                ("{".to_string(), 0),
                ("{".to_string(), 1),
                ("}".to_string(), 1),
                ("}".to_string(), 0)
            ]
        );
    }

    #[test]
    fn string_contents_are_token_text_but_blanked_in_code() {
        let lexed = lex("let s = \"panic! inside\"; x.unwrap();");
        assert!(!lexed.lines[0].code.contains("panic!"));
        assert!(lexed.lines[0].code.contains(".unwrap()"));
        let s = lexed
            .tokens
            .iter()
            .find(|t| t.kind == TokenKind::Str)
            .expect("string token");
        assert_eq!(s.text, "panic! inside");
    }

    #[test]
    fn tokens_carry_line_and_col() {
        let lexed = lex("a\n  bb ccc");
        let t: Vec<(String, u32, u32)> = lexed
            .tokens
            .iter()
            .map(|t| (t.text.clone(), t.line, t.col))
            .collect();
        assert_eq!(
            t,
            vec![
                ("a".to_string(), 1, 1),
                ("bb".to_string(), 2, 3),
                ("ccc".to_string(), 2, 6)
            ]
        );
    }

    #[test]
    fn doc_comments_do_not_harvest_allows() {
        let lexed = lex("/// Suppress with `// lint:allow(unwrap)` at the site.\n\
             //! lint:allow(hash-iteration)\n\
             x.unwrap(); // lint:allow(unwrap)\n");
        assert!(lexed.lines[0].allows.is_empty());
        assert!(lexed.lines[1].allows.is_empty());
        assert_eq!(lexed.lines[2].allows, vec!["unwrap".to_string()]);
    }

    #[test]
    fn cfg_test_marks_lines_and_tokens() {
        let lexed = lex("fn a() {}\n#[cfg(test)]\nmod tests { fn b() {} }\n");
        assert!(!lexed.lines[0].in_test);
        assert!(lexed.lines[1].in_test);
        assert!(lexed.lines[2].in_test);
        let b = lexed.tokens.iter().find(|t| t.is_ident("b")).expect("b");
        assert!(b.in_test);
        let a = lexed.tokens.iter().find(|t| t.is_ident("a")).expect("a");
        assert!(!a.in_test);
    }
}
