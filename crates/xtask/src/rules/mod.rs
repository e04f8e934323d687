//! The rule modules and the trait that binds them to the driver.
//!
//! Every rule is an independent unit struct implementing [`Rule`]: it sees
//! one lexed file at a time. The scope wiring — which directories each
//! rule runs over — lives in `main.rs`; the rules themselves are
//! scope-agnostic and fully exercised by the fixture corpus under
//! `fixtures/`.

pub mod atomics;
pub mod durability;
pub mod hygiene;
pub mod panics;
pub mod threads;

use crate::lexer::SourceFile;
use crate::report::Violation;

/// A diagnostic of `rule` at `line` of `file`.
pub fn violation(file: &SourceFile, line: usize, rule: &'static str, message: String) -> Violation {
    Violation {
        file: file.path.clone(),
        line,
        rule,
        message,
    }
}

/// A per-file analysis: sees one lexed file, appends diagnostics.
pub trait Rule {
    /// The stable rule identifier (`R1` … `R13`).
    fn id(&self) -> &'static str;
    /// Scans `file` and appends any violations to `out`.
    fn check(&self, file: &SourceFile, out: &mut Vec<Violation>);
}

#[cfg(test)]
pub mod tests {
    //! Shared helpers for the fixture-corpus self-tests.
    use super::*;
    use std::path::Path;

    /// Runs a per-file rule over an inline or `include_str!`-ed fixture,
    /// lexed under a synthetic name, and returns its diagnostics.
    pub fn run_rule(rule: &dyn Rule, src: &str) -> Vec<Violation> {
        let file = SourceFile::lex(Path::new("fixture.rs"), src);
        let mut out = Vec::new();
        rule.check(&file, &mut out);
        out
    }

    /// The 1-based lines a rule flags in `src`, in report order.
    pub fn flagged_lines(rule: &dyn Rule, src: &str) -> Vec<usize> {
        let mut out = run_rule(rule, src);
        crate::report::sort(&mut out);
        out.into_iter().map(|v| v.line).collect()
    }
}
