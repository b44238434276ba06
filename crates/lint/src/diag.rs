//! Diagnostics: rustc-style rendering plus machine-readable JSON.
//!
//! All JSON this crate emits (the `--json` report and the diagnostic
//! objects inside it) is hand-assembled; [`push_json_str`] is the one
//! place that knows how to escape a string for it.

use std::fmt::Write as _;

/// One finding, anchored to a file position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// The rule that produced it.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// `file:line:col: error[rule]: message` — the shape editors and CI
    /// annotations already know how to parse.
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{}: error[{}]: {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }

    /// Serialises one diagnostic as a JSON object.
    pub fn to_json(&self, out: &mut String) {
        out.push_str("{\"file\":");
        push_json_str(out, &self.file);
        let _ = write!(
            out,
            ",\"line\":{},\"col\":{},\"rule\":",
            self.line, self.col
        );
        push_json_str(out, self.rule);
        out.push_str(",\"message\":");
        push_json_str(out, &self.message);
        out.push('}');
    }
}

/// Appends `s` to `out` as a quoted, escaped JSON string literal.
pub fn push_json_str(out: &mut String, s: &str) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_rustc_shaped() {
        let d = Diagnostic {
            file: "crates/x/src/lib.rs".into(),
            line: 7,
            col: 13,
            rule: "atomic-side-effect",
            message: "boom".into(),
        };
        assert_eq!(
            d.render(),
            "crates/x/src/lib.rs:7:13: error[atomic-side-effect]: boom"
        );
    }

    #[test]
    fn json_escaping_handles_quotes_and_controls() {
        let quoted = |s: &str| {
            let mut out = String::new();
            push_json_str(&mut out, s);
            out
        };
        assert_eq!(quoted("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(quoted("\u{1}"), "\"\\u0001\"");
    }
}
