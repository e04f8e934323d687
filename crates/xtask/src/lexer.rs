//! A minimal Rust lexer producing a spanned token stream.
//!
//! It lexes the whole file in one pass and yields two coordinated views:
//!
//! * a token stream ([`Token`]) with 1-based start lines, used by the
//!   token-aware rules (casts, float equality, atomics, spawns, fsyncs);
//! * sanitised per-line text ([`Line`]) where string/char bodies are
//!   blanked and comments removed, used by the pattern-matching rules.
//!
//! The lexer understands raw strings with any number of `#`s (`r##"…"##`),
//! byte and byte-raw strings, multi-line strings (interior lines produce no
//! sanitised text at all), lifetimes vs char literals, and *nested* block
//! comments (Rust block comments nest, unlike C).
//!
//! Two justification-comment tags are recognised and recorded per line:
//! `// invariant: <why>` (rules R1/R2/R7–R9, R13) and `// ordering: <why>`
//! (rule R11). The grammar is documented in `DESIGN.md` § Static analysis.

use std::path::{Path, PathBuf};

/// What a [`Token`] is. Identifier text is kept; literal bodies are not
/// (no rule needs them, and dropping them is what makes the sanitised
/// views safe to pattern-match).
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// An identifier or keyword (`fn`, `lock`, `Relaxed`, ...).
    Ident(String),
    /// A lifetime or loop label such as `'a` (name without the quote).
    Lifetime(String),
    /// A char or byte literal (`'x'`, `b'\n'`).
    Char,
    /// A string literal of any flavour (plain, raw, byte, byte-raw).
    Str,
    /// A numeric literal; `float` is true for fractional, exponent, or
    /// `f32`/`f64`-suffixed forms.
    Number {
        /// True when the literal is floating-point shaped.
        float: bool,
    },
    /// Punctuation, maximal-munched (`==`, `..=`, `::`, `->`, ...).
    Punct(String),
}

/// A token plus the 1-based line its first character sits on.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The classified token.
    pub kind: TokenKind,
    /// 1-based start line.
    pub line: usize,
}

impl Token {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// True when this token is the exact punctuation `p`.
    pub fn is_punct(&self, p: &str) -> bool {
        matches!(&self.kind, TokenKind::Punct(s) if s == p)
    }

    /// True when this token is the exact identifier `w`.
    pub fn is_ident(&self, w: &str) -> bool {
        matches!(&self.kind, TokenKind::Ident(s) if s == w)
    }
}

/// Index of the first token of the statement holding `toks[i]`: just past
/// the nearest `;`, `{` or `}` before it.
pub fn statement_start(toks: &[Token], i: usize) -> usize {
    toks[..i]
        .iter()
        .rposition(|t| t.is_punct(";") || t.is_punct("{") || t.is_punct("}"))
        .map_or(0, |p| p + 1)
}

/// Which justification-comment tag a rule accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tag {
    /// `// invariant: <why this cannot fire>` — panics, casts, discards.
    Invariant,
    /// `// ordering: <why relaxed is sound>` — atomic-ordering audit.
    Ordering,
}

/// One source line after sanitisation.
#[derive(Debug, Clone)]
pub struct Line {
    /// 1-based line number.
    pub number: usize,
    /// The line with comments removed and literal bodies blanked out.
    pub code: String,
    /// Whether the raw line carries an `// invariant:` justification.
    pub invariant: bool,
    /// Whether the raw line carries an `// ordering:` justification.
    pub ordering: bool,
    /// Whether the line sits inside a `#[cfg(test)]` item.
    pub in_test: bool,
}

/// A lexed source file: the token stream plus the per-line views every
/// rule consumes.
#[derive(Debug)]
pub struct SourceFile {
    /// Path the file was read from (used verbatim in diagnostics).
    pub path: PathBuf,
    /// The full token stream, in source order.
    pub tokens: Vec<Token>,
    /// Sanitised lines, index `n - 1` for line `n`.
    pub lines: Vec<Line>,
}

impl SourceFile {
    /// Lexes `source`, attributing diagnostics to `path`.
    pub fn lex(path: &Path, source: &str) -> SourceFile {
        let mut lx = Lexer::new(source);
        lx.run();
        let mut lines: Vec<Line> = lx
            .texts
            .into_iter()
            .enumerate()
            .map(|(i, code)| Line {
                number: i + 1,
                code,
                invariant: lx.invariant[i],
                ordering: lx.ordering[i],
                in_test: false,
            })
            .collect();
        mark_cfg_test(&mut lines);
        SourceFile {
            path: path.to_path_buf(),
            tokens: lx.tokens,
            lines,
        }
    }

    /// Whether 1-based `line` sits inside a `#[cfg(test)]` item. Out-of-range
    /// lines answer `false`.
    pub fn in_test(&self, line: usize) -> bool {
        line.checked_sub(1)
            .and_then(|i| self.lines.get(i))
            .is_some_and(|l| l.in_test)
    }

    /// Whether 1-based `line` carries the justification `tag`, either on the
    /// line itself or in the comment block (comment-only or blank lines)
    /// immediately above it. This lets a justification live on its own line,
    /// where rustfmt keeps it and multi-line explanations stay readable.
    pub fn justified(&self, line: usize, tag: Tag) -> bool {
        let has = |l: &Line| match tag {
            Tag::Invariant => l.invariant,
            Tag::Ordering => l.ordering,
        };
        let Some(i) = line.checked_sub(1).filter(|&i| i < self.lines.len()) else {
            return false;
        };
        if has(&self.lines[i]) {
            return true;
        }
        let mut j = i;
        while j > 0 && self.lines[j - 1].code.trim().is_empty() {
            j -= 1;
            if has(&self.lines[j]) {
                return true;
            }
        }
        false
    }
}

/// Marks `#[cfg(test)]` items by brace depth. A pending attribute attaches
/// to the next `{`-opened item; a `;` before any brace cancels it (the
/// attribute sat on a brace-less item such as a `use`).
fn mark_cfg_test(lines: &mut [Line]) {
    let mut depth: i64 = 0;
    let mut pending = false;
    let mut skip_depth: Option<i64> = None;
    for line in lines.iter_mut() {
        let mut in_test = skip_depth.is_some();
        if line.code.contains("#[cfg(test)]") || line.code.contains("#[cfg(all(test") {
            pending = true;
            in_test = true;
        }
        for c in line.code.chars() {
            match c {
                '{' => {
                    if pending && skip_depth.is_none() {
                        skip_depth = Some(depth);
                        pending = false;
                        in_test = true;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if skip_depth == Some(depth) {
                        skip_depth = None;
                    }
                }
                ';' if pending && skip_depth.is_none() => {
                    pending = false;
                    in_test = true;
                }
                _ => {}
            }
        }
        line.in_test = in_test || skip_depth.is_some();
    }
}

struct Lexer {
    chars: Vec<char>,
    i: usize,
    line: usize,
    tokens: Vec<Token>,
    texts: Vec<String>,
    invariant: Vec<bool>,
    ordering: Vec<bool>,
}

impl Lexer {
    fn new(source: &str) -> Lexer {
        Lexer {
            chars: source.chars().collect(),
            i: 0,
            line: 1,
            tokens: Vec::new(),
            texts: vec![String::new()],
            invariant: vec![false],
            ordering: vec![false],
        }
    }

    fn peek(&self, k: usize) -> Option<char> {
        self.chars.get(self.i + k).copied()
    }

    /// Consumes one char, tracking line boundaries. Consumed chars are NOT
    /// echoed to the sanitised text; callers decide what to emit.
    fn bump(&mut self) -> Option<char> {
        let c = *self.chars.get(self.i)?;
        self.i += 1;
        if c == '\n' {
            self.line += 1;
            self.texts.push(String::new());
            self.invariant.push(false);
            self.ordering.push(false);
        }
        Some(c)
    }

    fn text(&mut self, s: &str) {
        if let Some(last) = self.texts.last_mut() {
            last.push_str(s);
        }
    }

    fn token(&mut self, kind: TokenKind, line: usize) {
        self.tokens.push(Token { kind, line });
    }

    fn run(&mut self) {
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                self.bump();
            } else if c.is_whitespace() {
                self.bump();
                let mut buf = [0u8; 4];
                self.text(c.encode_utf8(&mut buf));
            } else if c == '/' && self.peek(1) == Some('/') {
                self.line_comment();
            } else if c == '/' && self.peek(1) == Some('*') {
                self.block_comment();
            } else if (c == 'r' || c == 'b') && self.try_literal_prefix() {
                // handled inside
            } else if c == '"' {
                self.string();
            } else if c == '\'' {
                self.quote();
            } else if c.is_ascii_digit() {
                self.number();
            } else if c.is_alphanumeric() || c == '_' {
                self.ident();
            } else {
                self.punct();
            }
        }
    }

    /// Handles `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, and `b'…'` when the
    /// cursor sits on the `r`/`b`; returns false when it is a plain
    /// identifier after all.
    fn try_literal_prefix(&mut self) -> bool {
        let first = self.peek(0);
        let mut k = 1;
        if first == Some('b') {
            match self.peek(1) {
                Some('\'') => {
                    // Byte char literal: consume `b`, then the char body.
                    self.bump();
                    self.quote_char_body();
                    return true;
                }
                Some('r') => k = 2,
                Some('"') => {
                    // b"…" supports escapes like a normal string.
                    self.bump();
                    self.string();
                    return true;
                }
                _ => return false,
            }
        }
        // Now expecting `#`* then `"` (raw string, possibly byte-raw).
        let mut hashes = 0;
        while self.peek(k) == Some('#') {
            hashes += 1;
            k += 1;
        }
        if self.peek(k) != Some('"') {
            return false;
        }
        let line = self.line;
        for _ in 0..=k {
            self.bump(); // prefix + opening quote
        }
        // Raw body: no escapes; ends at `"` followed by `hashes` hashes.
        loop {
            match self.bump() {
                None => break,
                Some('"') => {
                    let mut ok = true;
                    for h in 0..hashes {
                        if self.peek(h) != Some('#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        for _ in 0..hashes {
                            self.bump();
                        }
                        break;
                    }
                }
                Some(_) => {}
            }
        }
        self.token(TokenKind::Str, line);
        self.text("\"\"");
        true
    }

    /// A plain (escaped) string literal; the cursor sits on the opening `"`.
    /// May span lines: interior lines contribute no sanitised text.
    fn string(&mut self) {
        let line = self.line;
        self.bump();
        loop {
            match self.bump() {
                None => break,
                Some('\\') => {
                    self.bump();
                }
                Some('"') => break,
                Some(_) => {}
            }
        }
        self.token(TokenKind::Str, line);
        self.text("\"\"");
    }

    /// The body of a char literal after an optional `b`; cursor on `'`.
    fn quote_char_body(&mut self) {
        let line = self.line;
        self.bump(); // opening '
        if self.peek(0) == Some('\\') {
            self.bump();
            self.bump(); // the escaped char
            while let Some(c) = self.peek(0) {
                // Multi-char escapes: \x7f, \u{…}
                self.bump();
                if c == '\'' {
                    break;
                }
            }
        } else {
            self.bump(); // the char
            self.bump(); // closing '
        }
        self.token(TokenKind::Char, line);
        self.text("''");
    }

    /// Disambiguates `'a` (lifetime) from `'a'` (char literal); cursor on `'`.
    fn quote(&mut self) {
        if self.peek(1) == Some('\\') {
            self.quote_char_body();
            return;
        }
        let is_ident = |c: char| c.is_alphanumeric() || c == '_';
        if self.peek(1).is_some_and(is_ident) {
            // Scan the identifier run after the quote.
            let mut k = 2;
            while self.peek(k).is_some_and(is_ident) {
                k += 1;
            }
            if self.peek(k) == Some('\'') {
                self.quote_char_body();
            } else {
                let line = self.line;
                self.bump(); // '
                let mut name = String::new();
                for _ in 1..k {
                    if let Some(c) = self.bump() {
                        name.push(c);
                    }
                }
                self.text(&format!("'{name}"));
                self.token(TokenKind::Lifetime(name), line);
            }
        } else if self.peek(2) == Some('\'') {
            // Non-identifier char such as `' '` or `'('`.
            self.quote_char_body();
        } else {
            // A stray quote; emit as punctuation and move on.
            let line = self.line;
            self.bump();
            self.text("'");
            self.token(TokenKind::Punct("'".to_string()), line);
        }
    }

    fn number(&mut self) {
        let line = self.line;
        let mut float = false;
        let mut consumed = String::new();
        let take = |lx: &mut Lexer, out: &mut String| {
            if let Some(c) = lx.bump() {
                out.push(c);
            }
        };
        if self.peek(0) == Some('0') && matches!(self.peek(1), Some('x' | 'o' | 'b')) {
            take(self, &mut consumed);
            take(self, &mut consumed);
            while self
                .peek(0)
                .is_some_and(|c| c.is_ascii_hexdigit() || c == '_')
            {
                take(self, &mut consumed);
            }
        } else {
            while self.peek(0).is_some_and(|c| c.is_ascii_digit() || c == '_') {
                take(self, &mut consumed);
            }
            // A fractional point, unless it starts a `..` range or a method
            // call on the literal.
            if self.peek(0) == Some('.') && self.peek(1).is_some_and(|c| c.is_ascii_digit()) {
                float = true;
                take(self, &mut consumed);
                while self.peek(0).is_some_and(|c| c.is_ascii_digit() || c == '_') {
                    take(self, &mut consumed);
                }
            }
            if matches!(self.peek(0), Some('e' | 'E'))
                && self
                    .peek(1)
                    .is_some_and(|c| c.is_ascii_digit() || c == '+' || c == '-')
            {
                float = true;
                take(self, &mut consumed);
                take(self, &mut consumed);
                while self.peek(0).is_some_and(|c| c.is_ascii_digit() || c == '_') {
                    take(self, &mut consumed);
                }
            }
        }
        // Type suffix: `u32`, `f64`, ...
        let mut suffix = String::new();
        while self
            .peek(0)
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
        {
            if let Some(c) = self.bump() {
                suffix.push(c);
            }
        }
        if suffix == "f32" || suffix == "f64" {
            float = true;
        }
        consumed.push_str(&suffix);
        self.text(&consumed);
        self.token(TokenKind::Number { float }, line);
    }

    fn ident(&mut self) {
        let line = self.line;
        let mut word = String::new();
        while self
            .peek(0)
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
        {
            if let Some(c) = self.bump() {
                word.push(c);
            }
        }
        self.text(&word);
        self.token(TokenKind::Ident(word), line);
    }

    /// Maximal-munch punctuation so `==` never splits into `=` `=` and
    /// `..=` never leaves a stray `=` to pair with a neighbour.
    fn punct(&mut self) {
        const THREE: [&str; 4] = ["<<=", ">>=", "..=", "..."];
        const TWO: [&str; 19] = [
            "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=", "*=", "/=", "%=",
            "^=", "&=", "|=", "<<", "..",
        ];
        let line = self.line;
        let at = |lx: &Lexer, s: &str| s.chars().enumerate().all(|(k, c)| lx.peek(k) == Some(c));
        let emit = |lx: &mut Lexer, s: &str| {
            for _ in 0..s.chars().count() {
                lx.bump();
            }
            lx.text(s);
            lx.token(TokenKind::Punct(s.to_string()), line);
        };
        for p in THREE {
            if at(self, p) {
                emit(self, p);
                return;
            }
        }
        // `>>` is deliberately absent from TWO: keeping it split avoids
        // mis-lexing nested generics `Vec<Vec<u8>>`; no rule needs `>>`.
        for p in TWO {
            if at(self, p) {
                emit(self, p);
                return;
            }
        }
        if let Some(c) = self.peek(0) {
            let mut buf = [0u8; 4];
            let s = c.encode_utf8(&mut buf).to_string();
            emit(self, &s);
        }
    }

    fn line_comment(&mut self) {
        // Collect the comment text (for justification tags), then drop it.
        let line = self.line;
        let mut body = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            self.bump();
            body.push(c);
        }
        let tag = body.trim_start_matches('/').trim_start();
        let idx = line - 1;
        if tag.starts_with("invariant:") {
            self.invariant[idx] = true;
        }
        if tag.starts_with("ordering:") {
            self.ordering[idx] = true;
        }
    }

    /// Block comments nest in Rust: `/* a /* b */ c */` is one comment.
    fn block_comment(&mut self) {
        self.bump();
        self.bump();
        let mut depth = 1usize;
        while depth > 0 {
            match self.peek(0) {
                None => break,
                Some('/') if self.peek(1) == Some('*') => {
                    self.bump();
                    self.bump();
                    depth += 1;
                }
                Some('*') if self.peek(1) == Some('/') => {
                    self.bump();
                    self.bump();
                    depth -= 1;
                }
                Some(_) => {
                    self.bump();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex(src: &str) -> SourceFile {
        SourceFile::lex(Path::new("t.rs"), src)
    }

    #[test]
    fn strings_and_comments_are_stripped() {
        let f =
            lex("let s = \"contains .unwrap() and panic!\"; // and .expect( here\nlet c = 'x';");
        assert!(!f.lines[0].code.contains(".unwrap()"));
        assert!(!f.lines[0].code.contains("panic!"));
        assert!(!f.lines[0].code.contains(".expect("));
        assert_eq!(f.lines[1].code, "let c = '';");
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let f = lex("fn f<'a>(x: &'a str) -> &'a str { x }");
        assert!(f.lines[0].code.contains("<'a>"), "{}", f.lines[0].code);
        assert_eq!(
            f.tokens
                .iter()
                .filter(|t| matches!(t.kind, TokenKind::Lifetime(_)))
                .count(),
            3
        );
        assert!(!f.tokens.iter().any(|t| t.kind == TokenKind::Char));
        // The inherited bug class: `'a>(…` used to be eaten as a char
        // literal, swallowing the rest of the signature.
        let g = lex("impl<'a, T> Foo<'a, T> { fn g(&'a self) { x.unwrap(); } }");
        assert!(g.lines[0].code.contains(".unwrap()"), "{}", g.lines[0].code);
    }

    #[test]
    fn char_literals_of_all_shapes_are_blanked() {
        let f = lex(r"let a = 'x'; let b = '\n'; let c = ' '; let d = '\u{7f}'; let e = b'q';");
        assert_eq!(
            f.tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Char)
                .count(),
            5
        );
        assert!(!f.lines[0].code.contains('x'), "{}", f.lines[0].code);
    }

    #[test]
    fn raw_strings_with_any_hash_count_are_stripped() {
        let f = lex("let s = r\"panic!\"; let t = r#\"x.unwrap()\"#; let u = r##\"a \"# b\"##; y");
        assert!(!f.lines[0].code.contains("panic!"));
        assert!(!f.lines[0].code.contains(".unwrap()"));
        assert!(f.lines[0].code.ends_with('y'), "{}", f.lines[0].code);
        let g = lex("let v = br#\"bytes.unwrap()\"#;");
        assert!(!g.lines[0].code.contains(".unwrap()"));
    }

    #[test]
    fn multi_line_strings_leak_nothing() {
        let f = lex("let s = \"line one panic!\nline two .unwrap()\nend\"; tail()");
        assert!(!f.lines[0].code.contains("panic!"));
        assert!(f.lines[1].code.is_empty(), "{:?}", f.lines[1].code);
        assert!(f.lines[2].code.contains("tail()"));
    }

    #[test]
    fn block_comments_nest_and_span_lines() {
        let f = lex("a /* panic!\n /* nested */ still panic!\n*/ b.unwrap()");
        assert!(!f.lines[0].code.contains("panic!"));
        assert!(!f.lines[1].code.contains("panic!"));
        assert!(f.lines[2].code.contains(".unwrap()"));
    }

    #[test]
    fn justification_tags_are_recorded_per_line() {
        let f = lex(
            "x.unwrap(); // invariant: validated above\ny.load(o); // ordering: monotonic\nz();",
        );
        assert!(f.lines[0].invariant && !f.lines[0].ordering);
        assert!(f.lines[1].ordering && !f.lines[1].invariant);
        assert!(!f.lines[2].invariant && !f.lines[2].ordering);
        assert!(f.justified(1, Tag::Invariant));
        assert!(f.justified(2, Tag::Ordering));
        assert!(!f.justified(3, Tag::Invariant));
    }

    #[test]
    fn justification_blocks_above_count() {
        let f = lex(
            "// ordering: monotonic counter, readers tolerate staleness\nc.fetch_add(1, Relaxed);",
        );
        assert!(f.justified(2, Tag::Ordering));
        let g = lex("// ordering: only for the line below\nlet a = 1;\nc.load(Relaxed);");
        assert!(!g.justified(3, Tag::Ordering));
    }

    #[test]
    fn cfg_test_regions_are_marked() {
        let f = lex(
            "fn lib() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\nfn t() { y.unwrap(); }\n}\nfn lib2() { z.unwrap(); }",
        );
        let flags: Vec<bool> = f.lines.iter().map(|l| l.in_test).collect();
        assert_eq!(flags, [false, true, true, true, true, false]);
    }

    #[test]
    fn cfg_test_on_braceless_item_does_not_leak() {
        let f = lex("#[cfg(test)]\nuse std::collections::HashMap;\nfn lib() { x.unwrap(); }");
        assert!(f.lines[1].in_test);
        assert!(!f.lines[2].in_test, "pending attr leaked past the `;`");
    }

    #[test]
    fn numbers_classify_floats() {
        let f =
            lex("let a = 1; let b = 2.5; let c = 1e-9; let d = 3f64; let e = 0x10; let g = 7_000;");
        let floats: Vec<bool> = f
            .tokens
            .iter()
            .filter_map(|t| match t.kind {
                TokenKind::Number { float } => Some(float),
                _ => None,
            })
            .collect();
        assert_eq!(floats, [false, true, true, true, false, false]);
    }

    #[test]
    fn punctuation_is_maximal_munched() {
        let f = lex("if x == 0.5 && y != 2.0 { for i in 0..=9 { a += i; } }");
        assert!(f.tokens.iter().any(|t| t.is_punct("==")));
        assert!(f.tokens.iter().any(|t| t.is_punct("!=")));
        assert!(f.tokens.iter().any(|t| t.is_punct("..=")));
        assert!(f.tokens.iter().any(|t| t.is_punct("&&")));
        assert!(!f.tokens.iter().any(|t| t.is_punct("=")));
    }

    #[test]
    fn token_lines_are_one_based_and_accurate() {
        let f = lex("first()\nsecond()\n\nfourth()");
        let on = |w: &str| f.tokens.iter().find(|t| t.is_ident(w)).map(|t| t.line);
        assert_eq!(on("first"), Some(1));
        assert_eq!(on("second"), Some(2));
        assert_eq!(on("fourth"), Some(4));
    }
}
