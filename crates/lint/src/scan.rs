//! A hand-rolled Rust token scanner.
//!
//! The scanner strips comments and string/char literals (so rule patterns
//! never fire on prose or payload text), produces line-accurate tokens, and
//! collects `// ecas-lint: allow(...)` directives found in line comments.
//!
//! It is intentionally *not* a full Rust lexer: it only needs to be precise
//! enough that identifier- and operator-level patterns (method calls,
//! indexing, comparisons, attribute groups) can be matched without false
//! positives from comments, doc examples or string payloads.

/// The coarse classification of a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// An identifier or keyword (`foo`, `fn`, `r#async` → `async`).
    Ident,
    /// A numeric literal, kept verbatim (`42`, `1.5e-3`, `0xEC`).
    Number,
    /// Punctuation; multi-character operators are single tokens (`==`).
    Punct,
}

/// One scanned token with its 1-based source line.
#[derive(Debug, Clone)]
pub(crate) struct Token {
    /// Token classification.
    pub kind: Kind,
    /// Verbatim token text (for raw identifiers, without the `r#` prefix).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Token {
    /// Whether this token is the identifier `text`.
    #[must_use]
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == Kind::Ident && self.text == text
    }

    /// Whether this token is the punctuation `text`.
    #[must_use]
    pub fn is_punct(&self, text: &str) -> bool {
        self.kind == Kind::Punct && self.text == text
    }

    /// Whether this number literal is float-like (`1.0`, `2e9`, `3f64`).
    #[must_use]
    pub fn is_float_literal(&self) -> bool {
        self.kind == Kind::Number
            && !self.text.starts_with("0x")
            && !self.text.starts_with("0b")
            && !self.text.starts_with("0o")
            && (self.text.contains('.')
                || self.text.contains(['e', 'E'])
                || self.text.ends_with("f64")
                || self.text.ends_with("f32"))
    }
}

/// An `// ecas-lint: allow(rule, ..., reason = "...")` directive.
#[derive(Debug, Clone)]
pub(crate) struct Directive {
    /// 1-based line the directive comment sits on.
    pub line: u32,
    /// Rules the directive names.
    pub rules: Vec<String>,
    /// The mandatory justification, if present.
    pub reason: Option<String>,
    /// `true` when the comment shares its line with no code token, so the
    /// directive applies to the next code line instead of its own.
    pub standalone: bool,
    /// Parse error, if the directive could not be understood.
    pub malformed: Option<String>,
}

/// A string literal's content and position. Literals are stripped from the
/// token stream (so rule patterns never fire on payload text); the
/// workspace rules that *do* care about literal contents — the obs-name
/// registry — read them from this side table instead.
#[derive(Debug, Clone)]
pub(crate) struct StrLit {
    /// 1-based line the literal starts on.
    pub line: u32,
    /// Literal content, verbatim (escape sequences unprocessed).
    pub text: String,
    /// Index into `tokens` of the first token *after* the literal.
    /// Literals produce no token of their own, so this anchors them
    /// between `tokens[anchor - 1]` and `tokens[anchor]`.
    pub anchor: usize,
}

/// The result of scanning one source file.
#[derive(Debug, Default)]
pub(crate) struct Scanned {
    /// Code tokens in source order.
    pub tokens: Vec<Token>,
    /// Lint directives found in comments, in source order.
    pub directives: Vec<Directive>,
    /// String literals in source order, anchored into `tokens`.
    pub strings: Vec<StrLit>,
}

/// Multi-character operators, longest first so matching can be greedy.
const OPERATORS: &[&str] = &[
    "..=", "<<=", ">>=", "==", "!=", "<=", ">=", "::", "->", "=>", "&&", "||", "..", "+=", "-=",
    "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>",
];

/// The comment prefix that introduces a lint directive.
const DIRECTIVE_PREFIX: &str = "ecas-lint:";

/// Scans `source`, producing tokens and directives.
#[must_use]
pub(crate) fn scan(source: &str) -> Scanned {
    Scanner::new(source).run()
}

struct Scanner {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    line_has_code: bool,
    out: Scanned,
}

impl Scanner {
    fn new(source: &str) -> Self {
        Self {
            chars: source.chars().collect(),
            pos: 0,
            line: 1,
            line_has_code: false,
            out: Scanned::default(),
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.line_has_code = false;
        }
        Some(c)
    }

    fn push(&mut self, kind: Kind, text: String, line: u32) {
        self.line_has_code = true;
        self.out.tokens.push(Token { kind, text, line });
    }

    fn run(mut self) -> Scanned {
        while let Some(c) = self.peek(0) {
            match c {
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string_literal(),
                '\'' => self.char_or_lifetime(),
                'r' | 'b' if self.raw_or_byte_prefix() => {}
                c if c.is_ascii_digit() => self.number(),
                c if c == '_' || c.is_alphabetic() => self.ident(),
                c if c.is_whitespace() => {
                    self.bump();
                }
                _ => self.punct(),
            }
        }
        self.out
    }

    /// Handles `r"..."`, `r#"..."#`, `br"..."`, `b"..."`, `b'x'` and raw
    /// identifiers `r#ident`. Returns `true` if it consumed anything.
    fn raw_or_byte_prefix(&mut self) -> bool {
        let c = self.peek(0);
        let mut offset = 1;
        if c == Some('b') {
            match self.peek(1) {
                Some('"') => {
                    self.bump();
                    self.string_literal();
                    return true;
                }
                Some('\'') => {
                    self.bump();
                    self.char_or_lifetime();
                    return true;
                }
                Some('r') => offset = 2,
                _ => return false,
            }
        }
        // `r` (or `br`) followed by hashes and a quote is a raw string;
        // `r#` followed by an identifier character is a raw identifier.
        let mut hashes = 0;
        while self.peek(offset + hashes) == Some('#') {
            hashes += 1;
        }
        match self.peek(offset + hashes) {
            Some('"') => {
                for _ in 0..offset + hashes + 1 {
                    self.bump();
                }
                self.raw_string_tail(hashes);
                true
            }
            Some(id) if hashes == 1 && (id == '_' || id.is_alphabetic()) && c == Some('r') => {
                self.bump(); // r
                self.bump(); // #
                self.ident();
                true
            }
            _ => false,
        }
    }

    /// Consumes the body of a raw string until `"` followed by `hashes`
    /// `#` characters.
    fn raw_string_tail(&mut self, hashes: usize) {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.bump() {
            if c == '"' {
                let mut seen = 0;
                while seen < hashes && self.peek(0) == Some('#') {
                    self.bump();
                    seen += 1;
                }
                if seen == hashes {
                    self.record_string(line, text);
                    return;
                }
                text.push('"');
                for _ in 0..seen {
                    text.push('#');
                }
            } else {
                text.push(c);
            }
        }
        self.record_string(line, text);
    }

    fn record_string(&mut self, line: u32, text: String) {
        self.out.strings.push(StrLit {
            line,
            text,
            anchor: self.out.tokens.len(),
        });
    }

    fn line_comment(&mut self) {
        let standalone = !self.line_has_code;
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        // Strip `//`, `///`, `//!` prefixes.
        let body = text.trim_start_matches(['/', '!']).trim();
        if let Some(rest) = body.strip_prefix(DIRECTIVE_PREFIX) {
            let mut directive = parse_directive(rest.trim());
            directive.line = line;
            directive.standalone = standalone;
            self.out.directives.push(directive);
        }
    }

    fn block_comment(&mut self) {
        self.bump(); // /
        self.bump(); // *
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some('/'), Some('*')) => {
                    self.bump();
                    self.bump();
                    depth += 1;
                }
                (Some('*'), Some('/')) => {
                    self.bump();
                    self.bump();
                    depth -= 1;
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => return,
            }
        }
    }

    fn string_literal(&mut self) {
        let line = self.line;
        self.bump(); // opening quote
        let mut text = String::new();
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    text.push(c);
                    if let Some(escaped) = self.bump() {
                        text.push(escaped);
                    }
                }
                '"' => break,
                _ => text.push(c),
            }
        }
        self.record_string(line, text);
    }

    /// Distinguishes char literals (`'a'`, `'\n'`) from lifetimes
    /// (`'static`). A quote followed by an escape or a single character
    /// and a closing quote is a char literal; otherwise a lifetime.
    fn char_or_lifetime(&mut self) {
        self.bump(); // '
        match self.peek(0) {
            Some('\\') => {
                // Escaped char literal: consume to the closing quote.
                self.bump();
                while let Some(c) = self.bump() {
                    if c == '\'' {
                        break;
                    }
                }
            }
            Some(c) if c == '_' || c.is_alphabetic() => {
                // Could be 'x' (char) or 'xyz (lifetime).
                let mut len = 0;
                while matches!(self.peek(len), Some(i) if i == '_' || i.is_alphanumeric()) {
                    len += 1;
                }
                let is_char = self.peek(len) == Some('\'');
                for _ in 0..len {
                    self.bump();
                }
                if is_char {
                    self.bump(); // closing quote
                }
            }
            Some(_) => {
                // Any other single char literal like '3' or '['.
                self.bump();
                if self.peek(0) == Some('\'') {
                    self.bump();
                }
            }
            None => {}
        }
    }

    fn number(&mut self) {
        let line = self.line;
        let mut text = String::new();
        let after_dot = matches!(self.out.tokens.last(), Some(t) if t.is_punct("."));
        while let Some(c) = self.peek(0) {
            let take = if c.is_alphanumeric() || c == '_' {
                true
            } else if c == '.' {
                // Only part of the number for `1.5`-style literals: the
                // next char must be a digit, we must not already hold a
                // dot, and `x.0.1` tuple chains stay punctuated.
                !after_dot
                    && !text.contains('.')
                    && matches!(self.peek(1), Some(d) if d.is_ascii_digit())
            } else if c == '+' || c == '-' {
                matches!(text.chars().last(), Some('e' | 'E')) && !text.starts_with("0x")
            } else {
                false
            };
            if !take {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.push(Kind::Number, text, line);
    }

    fn ident(&mut self) {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '_' || c.is_alphanumeric() {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(Kind::Ident, text, line);
    }

    fn punct(&mut self) {
        let line = self.line;
        for op in OPERATORS {
            if self.matches_str(op) {
                for _ in 0..op.chars().count() {
                    self.bump();
                }
                self.push(Kind::Punct, (*op).to_string(), line);
                return;
            }
        }
        if let Some(c) = self.bump() {
            self.push(Kind::Punct, c.to_string(), line);
        }
    }

    fn matches_str(&self, s: &str) -> bool {
        s.chars().enumerate().all(|(i, c)| self.peek(i) == Some(c))
    }
}

/// Parses the payload of a directive comment, e.g.
/// `allow(panic-safety, reason = "segment index is ladder-validated")`.
/// Shared with the manifest scanner, which finds the same directives in
/// `Cargo.toml` `#` comments.
pub(crate) fn parse_directive(rest: &str) -> Directive {
    let mut directive = Directive {
        line: 0,
        rules: Vec::new(),
        reason: None,
        standalone: false,
        malformed: None,
    };
    let Some(args) = rest
        .strip_prefix("allow")
        .map(str::trim_start)
        .and_then(|r| r.strip_prefix('('))
    else {
        directive.malformed = Some(format!(
            "expected `allow(<rule>, reason = \"...\")`, found `{rest}`"
        ));
        return directive;
    };
    let Some(end) = args.rfind(')') else {
        directive.malformed = Some("unclosed `allow(` directive".to_string());
        return directive;
    };
    let body = &args[..end];

    // Split on top-level commas; the reason string may contain commas, so
    // track whether we are inside quotes.
    let mut items = Vec::new();
    let mut current = String::new();
    let mut in_quotes = false;
    for c in body.chars() {
        match c {
            '"' => {
                in_quotes = !in_quotes;
                current.push(c);
            }
            ',' if !in_quotes => {
                items.push(std::mem::take(&mut current));
            }
            _ => current.push(c),
        }
    }
    items.push(current);

    for item in items {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        if let Some(value) = item.strip_prefix("reason") {
            let value = value.trim_start();
            let Some(value) = value.strip_prefix('=') else {
                directive.malformed = Some("`reason` must be `reason = \"...\"`".to_string());
                return directive;
            };
            let value = value.trim();
            if value.len() >= 2 && value.starts_with('"') && value.ends_with('"') {
                let reason = value[1..value.len() - 1].trim().to_string();
                if reason.is_empty() {
                    directive.malformed = Some("empty `reason` string".to_string());
                    return directive;
                }
                directive.reason = Some(reason);
            } else {
                directive.malformed = Some("`reason` must be a quoted string".to_string());
                return directive;
            }
        } else {
            directive.rules.push(item.to_string());
        }
    }
    if directive.rules.is_empty() {
        directive.malformed = Some("directive names no rules".to_string());
    }
    directive
}

/// Returns the 1-based line ranges (inclusive) covered by `#[cfg(test)]`
/// items — test modules, functions or statements embedded in library
/// source. Rules skip findings on these lines.
#[must_use]
pub(crate) fn test_line_ranges(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if is_cfg_test_attr(tokens, i) {
            let start_line = tokens[i].line;
            let mut j = skip_attr(tokens, i);
            // Skip any further attributes on the same item.
            while matches!(tokens.get(j), Some(t) if t.is_punct("#"))
                && matches!(tokens.get(j + 1), Some(t) if t.is_punct("["))
            {
                j = skip_attr(tokens, j);
            }
            // Find the item body `{ ... }`, or a `;` for brace-less items.
            let mut end_line = tokens.get(j).map_or(start_line, |t| t.line);
            while let Some(t) = tokens.get(j) {
                end_line = t.line;
                if t.is_punct(";") {
                    break;
                }
                if t.is_punct("{") {
                    let close = matching_close(tokens, j, "{", "}");
                    end_line = tokens.get(close).map_or(end_line, |t| t.line);
                    j = close;
                    break;
                }
                j += 1;
            }
            ranges.push((start_line, end_line));
            i = j + 1;
        } else {
            i += 1;
        }
    }
    ranges
}

/// Whether a `#[...]` attribute group starting at `i` mentions both `cfg`
/// and `test` (covers `#[cfg(test)]` and `#[cfg(all(test, ...))]`).
fn is_cfg_test_attr(tokens: &[Token], i: usize) -> bool {
    if !(matches!(tokens.get(i), Some(t) if t.is_punct("#"))
        && matches!(tokens.get(i + 1), Some(t) if t.is_punct("[")))
    {
        return false;
    }
    let close = matching_close(tokens, i + 1, "[", "]");
    let mut saw_cfg = false;
    let mut saw_test = false;
    for t in tokens.get(i + 2..close).unwrap_or(&[]) {
        saw_cfg |= t.is_ident("cfg");
        saw_test |= t.is_ident("test");
    }
    saw_cfg && saw_test
}

/// Given `#` at `i` and `[` at `i + 1`, returns the index just past the
/// closing `]`.
fn skip_attr(tokens: &[Token], i: usize) -> usize {
    matching_close(tokens, i + 1, "[", "]") + 1
}

/// Index of the token closing the group opened at `open_idx`; saturates at
/// the last token when unbalanced.
#[must_use]
pub(crate) fn matching_close(tokens: &[Token], open_idx: usize, open: &str, close: &str) -> usize {
    let mut depth = 0usize;
    let mut j = open_idx;
    while let Some(t) = tokens.get(j) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    tokens.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<String> {
        scan(src).tokens.into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn strips_comments_and_strings() {
        let toks = texts("let x = \"unwrap()\"; // .unwrap()\n/* panic! */ y");
        assert_eq!(toks, ["let", "x", "=", ";", "y"]);
    }

    #[test]
    fn raw_strings_have_no_escapes() {
        let toks = texts(r####"let s = r#"a \" b"#; done"####);
        assert_eq!(toks, ["let", "s", "=", ";", "done"]);
    }

    #[test]
    fn lifetimes_do_not_eat_code() {
        let toks = texts("fn f<'a>(x: &'a str) -> char { 'x' }");
        assert!(toks.contains(&"str".to_string()));
        assert!(!toks.contains(&"x'".to_string()));
    }

    #[test]
    fn float_literals_are_single_tokens() {
        let s = scan("a == 1.5e-3; b.0 == 2; 0..10");
        let nums: Vec<_> = s
            .tokens
            .iter()
            .filter(|t| t.kind == Kind::Number)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(nums, ["1.5e-3", "0", "2", "0", "10"]);
    }

    #[test]
    fn tuple_chains_stay_punctuated() {
        let s = scan("pair.0.1");
        let nums: Vec<_> = s
            .tokens
            .iter()
            .filter(|t| t.kind == Kind::Number)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(nums, ["0", "1"]);
    }

    #[test]
    fn operators_are_greedy() {
        let toks = texts("a != b == c .. d");
        assert_eq!(toks, ["a", "!=", "b", "==", "c", "..", "d"]);
    }

    #[test]
    fn directives_are_parsed() {
        let s = scan("x(); // ecas-lint: allow(panic-safety, reason = \"static data\")\n");
        assert_eq!(s.directives.len(), 1);
        let d = &s.directives[0];
        assert_eq!(d.rules, ["panic-safety"]);
        assert_eq!(d.reason.as_deref(), Some("static data"));
        assert!(!d.standalone);
        assert!(d.malformed.is_none());
    }

    #[test]
    fn standalone_directive_detected() {
        let s = scan("  // ecas-lint: allow(determinism, reason = \"calibration only\")\nfoo();");
        assert!(s.directives[0].standalone);
    }

    #[test]
    fn directive_without_reason_is_noted() {
        let s = scan("// ecas-lint: allow(panic-safety)\n");
        assert_eq!(s.directives[0].reason, None);
        assert!(s.directives[0].malformed.is_none());
    }

    #[test]
    fn malformed_directive_is_flagged() {
        let s = scan("// ecas-lint: allow panic-safety\n");
        assert!(s.directives[0].malformed.is_some());
    }

    #[test]
    fn string_literals_are_recorded_with_anchors() {
        let s = scan("r.add(\"sim/stalls\", 1);");
        // tokens: r . add ( , 1 ) ;   — the literal anchors at the `,`.
        assert_eq!(s.strings.len(), 1);
        assert_eq!(s.strings[0].text, "sim/stalls");
        assert_eq!(s.strings[0].line, 1);
        assert!(s.tokens[s.strings[0].anchor].is_punct(","));
        assert!(s.tokens[s.strings[0].anchor - 1].is_punct("("));
    }

    #[test]
    fn raw_string_literals_are_recorded() {
        let s = scan(r####"let s = r#"a "quoted" b"#;"####);
        assert_eq!(s.strings.len(), 1);
        assert_eq!(s.strings[0].text, "a \"quoted\" b");
    }

    #[test]
    fn cfg_test_mod_ranges() {
        let src =
            "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() { x.unwrap(); }\n}\nfn c() {}\n";
        let s = scan(src);
        let ranges = test_line_ranges(&s.tokens);
        assert_eq!(ranges, vec![(2, 5)]);
    }

    #[test]
    fn cfg_test_use_statement_is_bounded() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn later() { body(); }\n";
        let ranges = test_line_ranges(&scan(src).tokens);
        assert_eq!(ranges, vec![(1, 2)]);
    }
}
