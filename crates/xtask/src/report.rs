//! Diagnostic rendering: the human `file:line: [R#] message` format and a
//! deterministic JSON report for CI archiving.
//!
//! JSON output is an array of `{file, line, rule, message}` objects sorted
//! by `(file, line, rule, message)` — byte-stable across runs on the same
//! tree, so archived reports diff cleanly.

use std::fmt;
use std::path::PathBuf;

/// A single rule violation, printed as `file:line: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The file the violation sits in, as scanned.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (`R1` … `R13`).
    pub rule: &'static str,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Sorts diagnostics into the canonical report order.
pub fn sort(violations: &mut [Violation]) {
    violations.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
}

/// Renders the (already sorted) diagnostics as a JSON array. No trailing
/// newline; the caller decides framing.
pub fn to_json(violations: &[Violation]) -> String {
    let mut out = String::from("[");
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {\"file\": \"");
        out.push_str(&escape(&v.file.display().to_string()));
        out.push_str("\", \"line\": ");
        out.push_str(&v.line.to_string());
        out.push_str(", \"rule\": \"");
        out.push_str(&escape(v.rule));
        out.push_str("\", \"message\": \"");
        out.push_str(&escape(&v.message));
        out.push_str("\"}");
    }
    if !violations.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out
}

/// Minimal JSON string escaping: quotes, backslashes, and control chars.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn v(file: &str, line: usize, rule: &'static str, msg: &str) -> Violation {
        Violation {
            file: Path::new(file).to_path_buf(),
            line,
            rule,
            message: msg.to_string(),
        }
    }

    #[test]
    fn display_matches_the_documented_format() {
        assert_eq!(
            v("src/lib.rs", 7, "R1", "no").to_string(),
            "src/lib.rs:7: [R1] no"
        );
    }

    #[test]
    fn sort_orders_by_file_line_rule_message() {
        let mut vs = vec![
            v("b.rs", 1, "R2", "x"),
            v("a.rs", 9, "R1", "x"),
            v("a.rs", 2, "R7", "x"),
            v("a.rs", 2, "R1", "x"),
        ];
        sort(&mut vs);
        let order: Vec<String> = vs
            .iter()
            .map(|v| format!("{}:{}", v.file.display(), v.rule))
            .collect();
        assert_eq!(order, ["a.rs:R1", "a.rs:R7", "a.rs:R1", "b.rs:R2"]);
        assert_eq!(vs[0].line, 2);
    }

    #[test]
    fn json_is_deterministic_and_escaped() {
        let vs = vec![v("a.rs", 1, "R1", "uses `\"weird\"\\path`")];
        let one = to_json(&vs);
        let two = to_json(&vs);
        assert_eq!(one, two);
        assert!(one.contains("\\\"weird\\\""), "{one}");
        assert!(one.contains("\\\\path"), "{one}");
        assert_eq!(to_json(&[]), "[]");
    }
}
