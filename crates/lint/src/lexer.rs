//! A comment- and string-aware Rust lexer.
//!
//! This is not a full Rust lexer: it produces exactly the token stream
//! the lint rules need — identifiers, numbers, string/char literals,
//! lifetimes and single-byte punctuation — with line/column positions.
//! What it must get *right* is skipping: a
//! forbidden identifier inside a string literal, a `//` comment, a
//! nested `/* */` block or a doc comment must never surface as an
//! identifier token, or every rule would drown in false positives.

/// Token classification. Literal contents are never inspected by rules,
/// so strings, raw strings, byte strings and char literals collapse into
/// [`TokKind::Str`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `atomically`, `Instant`, ...).
    Ident,
    /// Numeric literal (integers, floats, any radix).
    Num,
    /// String, raw string, byte string or char literal.
    Str,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
    /// A single punctuation byte (`::` is two `Punct(b':')` tokens).
    Punct(u8),
}

/// One token with its byte span and 1-based position.
#[derive(Debug, Clone, Copy)]
pub struct Tok {
    /// Classification.
    pub kind: TokKind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based source line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
}

fn ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_' || c >= 0x80
}

fn ident_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_' || c >= 0x80
}

/// Lexes `src` into tokens; comments are skipped.
pub fn lex(src: &str) -> Vec<Tok> {
    Lexer {
        b: src.as_bytes(),
        i: 0,
        line: 1,
        line_start: 0,
        toks: Vec::new(),
    }
    .run()
}

struct Lexer<'a> {
    b: &'a [u8],
    i: usize,
    line: u32,
    line_start: usize,
    toks: Vec<Tok>,
}

impl Lexer<'_> {
    fn col(&self, pos: usize) -> u32 {
        (pos - self.line_start + 1) as u32
    }

    fn newline(&mut self) {
        self.i += 1;
        self.line += 1;
        self.line_start = self.i;
    }

    fn push(&mut self, kind: TokKind, start: usize) {
        let (line, col) = (self.line, self.col(start));
        self.push_at(kind, start, line, col);
    }

    /// Pushes a token whose start position was captured before the body
    /// was consumed (multiline strings move `line_start` past `start`).
    fn push_at(&mut self, kind: TokKind, start: usize, line: u32, col: u32) {
        self.toks.push(Tok {
            kind,
            start,
            end: self.i,
            line,
            col,
        });
    }

    fn at(&self, off: usize) -> u8 {
        self.b.get(self.i + off).copied().unwrap_or(0)
    }

    fn run(mut self) -> Vec<Tok> {
        while self.i < self.b.len() {
            let c = self.b[self.i];
            match c {
                b'\n' => self.newline(),
                _ if c.is_ascii_whitespace() => self.i += 1,
                b'/' if self.at(1) == b'/' => self.line_comment(),
                b'/' if self.at(1) == b'*' => self.block_comment(),
                b'"' => self.string(self.i),
                b'\'' => self.char_or_lifetime(),
                b'r' | b'b' if self.raw_or_byte_literal() => {}
                _ if ident_start(c) => self.ident(),
                _ if c.is_ascii_digit() => self.number(),
                _ => {
                    let start = self.i;
                    self.i += 1;
                    self.push(TokKind::Punct(c), start);
                }
            }
        }
        self.toks
    }

    fn line_comment(&mut self) {
        while self.i < self.b.len() && self.b[self.i] != b'\n' {
            self.i += 1;
        }
    }

    fn block_comment(&mut self) {
        // Rust block comments nest.
        let mut depth = 1usize;
        self.i += 2;
        while self.i < self.b.len() && depth > 0 {
            match self.b[self.i] {
                b'\n' => self.newline(),
                b'/' if self.at(1) == b'*' => {
                    depth += 1;
                    self.i += 2;
                }
                b'*' if self.at(1) == b'/' => {
                    depth -= 1;
                    self.i += 2;
                }
                _ => self.i += 1,
            }
        }
    }

    /// Ordinary string literal starting at the current `"`; `start` is
    /// where the token began (before any `b` prefix).
    fn string(&mut self, start: usize) {
        let (line, col) = (self.line, self.col(start));
        self.i += 1; // opening quote
        while self.i < self.b.len() {
            match self.b[self.i] {
                b'\\' => self.i += 2,
                b'\n' => self.newline(),
                b'"' => {
                    self.i += 1;
                    break;
                }
                _ => self.i += 1,
            }
        }
        self.push_at(TokKind::Str, start, line, col);
    }

    /// Raw string starting at the current `r`/first `#`; `start` is
    /// where the token began.
    fn raw_string(&mut self, start: usize, hashes: usize) {
        let (line, col) = (self.line, self.col(start));
        // Past `r` + hashes + opening quote.
        self.i += 1 + hashes + 1;
        let closer_len = 1 + hashes;
        while self.i < self.b.len() {
            if self.b[self.i] == b'\n' {
                self.newline();
                continue;
            }
            if self.b[self.i] == b'"'
                && self.b[self.i + 1..]
                    .iter()
                    .take(hashes)
                    .filter(|&&c| c == b'#')
                    .count()
                    == hashes
            {
                self.i += closer_len;
                break;
            }
            self.i += 1;
        }
        self.push_at(TokKind::Str, start, line, col);
    }

    /// Handles `r"..."`, `r#"..."#`, `r#ident`, `b"..."`, `br#"..."#`
    /// and `b'x'`. Returns false when the `r`/`b` is just the start of a
    /// plain identifier, leaving the position untouched.
    fn raw_or_byte_literal(&mut self) -> bool {
        let start = self.i;
        let mut j = 0usize;
        if self.at(j) == b'b' {
            j += 1;
            if self.at(j) == b'\'' {
                // Byte char literal b'x'.
                self.i += 1;
                self.char_literal(start);
                return true;
            }
            if self.at(j) == b'"' {
                self.i += 1;
                self.string(start);
                return true;
            }
        }
        if self.at(j) == b'r' {
            j += 1;
            let mut hashes = 0usize;
            while self.at(j + hashes) == b'#' {
                hashes += 1;
            }
            if self.at(j + hashes) == b'"' {
                self.i += j - 1; // consume any `b`; raw_string eats from `r`
                self.raw_string(start, hashes);
                return true;
            }
            if j == 1 && hashes == 1 && ident_start(self.at(2)) {
                // Raw identifier r#type: lex as an identifier whose text
                // includes the r# prefix (rules match bare names, so raw
                // identifiers simply never match — which is correct).
                self.i += 2;
                while self.i < self.b.len() && ident_continue(self.b[self.i]) {
                    self.i += 1;
                }
                self.push(TokKind::Ident, start);
                return true;
            }
        }
        false
    }

    /// Char literal whose opening quote is at the current position.
    fn char_literal(&mut self, start: usize) {
        self.i += 1; // opening quote
        while self.i < self.b.len() {
            match self.b[self.i] {
                b'\\' => self.i += 2,
                b'\'' => {
                    self.i += 1;
                    break;
                }
                b'\n' => break, // unterminated; don't eat the file
                _ => self.i += 1,
            }
        }
        self.push(TokKind::Str, start);
    }

    fn char_or_lifetime(&mut self) {
        let start = self.i;
        // `'a` followed by anything but a closing quote is a lifetime;
        // `'x'` and `'\n'` are char literals.
        if self.at(1) != b'\\' && ident_start(self.at(1)) && self.at(2) != b'\'' {
            self.i += 2;
            while self.i < self.b.len() && ident_continue(self.b[self.i]) {
                self.i += 1;
            }
            self.push(TokKind::Lifetime, start);
        } else {
            self.char_literal(start);
        }
    }

    fn ident(&mut self) {
        let start = self.i;
        while self.i < self.b.len() && ident_continue(self.b[self.i]) {
            self.i += 1;
        }
        self.push(TokKind::Ident, start);
    }

    fn number(&mut self) {
        let start = self.i;
        let mut seen_dot = false;
        self.i += 1;
        while self.i < self.b.len() {
            let c = self.b[self.i];
            if c.is_ascii_alphanumeric() || c == b'_' {
                self.i += 1;
            } else if (c == b'+' || c == b'-')
                && matches!(self.b[self.i - 1], b'e' | b'E')
                && self.at(1).is_ascii_digit()
            {
                // Exponent sign: 1e-5. (Hex like 0x1e is misparsed into
                // the number too; no rule inspects numbers, so this only
                // has to avoid losing identifier tokens — it doesn't.)
                self.i += 1;
            } else if c == b'.' && !seen_dot && self.at(1).is_ascii_digit() {
                // Float 1.25 — but not the range 0..10.
                seen_dot = true;
                self.i += 1;
            } else {
                break;
            }
        }
        self.push(TokKind::Num, start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        let toks = lex(src);
        toks.iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| src[t.start..t.end].to_string())
            .collect()
    }

    #[test]
    fn comments_and_strings_hide_identifiers() {
        let src = r##"
            // Instant::now in a comment
            /* nested /* Instant::now */ still comment */
            let s = "Instant::now";
            let r = r#"Instant::now"#;
            let b = b"Instant::now";
            let real = other;
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"Instant".to_string()), "{ids:?}");
        assert!(ids.contains(&"real".to_string()));
        assert!(ids.contains(&"other".to_string()));
    }

    #[test]
    fn lifetimes_and_chars_are_distinguished() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes = toks.iter().filter(|t| t.kind == TokKind::Lifetime).count();
        let chars = toks.iter().filter(|t| t.kind == TokKind::Str).count();
        // `str` in the signature is an Ident; the two char literals are Str.
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 2);
    }

    #[test]
    fn ranges_do_not_merge_into_floats() {
        let toks = lex("for i in 0..10 { a[i] }");
        let dots = toks
            .iter()
            .filter(|t| t.kind == TokKind::Punct(b'.'))
            .count();
        assert_eq!(dots, 2, "0..10 must keep both range dots");
    }

    #[test]
    fn positions_are_one_based() {
        let toks = lex("ab\n  cd // note\n");
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
        assert_eq!(toks.len(), 2, "the comment is no token");
    }

    #[test]
    fn multiline_strings_track_lines() {
        let toks = lex("let s = \"a\nb\";\nafter");
        let after = toks.last().unwrap();
        assert_eq!(after.line, 3);
    }
}
