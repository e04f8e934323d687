//! The hygiene rules: R2 (no lossy casts in binary-format modules), R3
//! (crate-root attributes), R4 (no float equality), R5 (no wall clocks).
//!
//! R4 is the one rule here that genuinely benefits from the token stream:
//! it inspects `==`/`!=` punctuation tokens adjacent to float-shaped
//! number literals, so ranges (`0.0..1.0`) and `..=` never false-positive.

use crate::lexer::{SourceFile, Tag, TokenKind};
use crate::report::Violation;
use crate::rules::{violation, Rule};

/// R2: numeric `as` casts in binary-format modules; width changes must go
/// through `From`/`TryFrom` or the checked codec helpers so truncation is
/// impossible by construction.
pub struct NoLossyCasts;

const NUMERIC_TYPES: [&str; 13] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "isize", "f32", "f64",
];

impl Rule for NoLossyCasts {
    fn id(&self) -> &'static str {
        "R2"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Violation>) {
        // Token view: `as` is an identifier-shaped keyword; a numeric type
        // name directly after it is the cast target.
        for pair in file.tokens.windows(2) {
            if !pair[0].is_ident("as") {
                continue;
            }
            let Some(ty) = pair[1].ident() else { continue };
            if !NUMERIC_TYPES.contains(&ty) {
                continue;
            }
            let line = pair[1].line;
            if file.in_test(line) || file.justified(line, Tag::Invariant) {
                continue;
            }
            out.push(violation(
                file,
                line,
                self.id(),
                format!(
                    "`as {ty}` cast in a binary-format module; use \
                     `From`/`TryFrom` or the checked codec helpers"
                ),
            ));
        }
    }
}

/// R3: every crate root declares `#![forbid(unsafe_code)]` and
/// `#![deny(missing_docs)]`.
pub struct CrateRootAttrs;

impl Rule for CrateRootAttrs {
    fn id(&self) -> &'static str {
        "R3"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Violation>) {
        for required in ["#![forbid(unsafe_code)]", "#![deny(missing_docs)]"] {
            if !file.lines.iter().any(|l| l.code.contains(required)) {
                out.push(violation(
                    file,
                    1,
                    self.id(),
                    format!("crate root does not declare `{required}`"),
                ));
            }
        }
    }
}

/// R4: `==` / `!=` adjacent to a float-shaped literal. Detection is a
/// literal-adjacency heuristic (an exact type-aware check needs full
/// inference); it is a tripwire, not a proof.
pub struct NoFloatEquality;

impl Rule for NoFloatEquality {
    fn id(&self) -> &'static str {
        "R4"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Violation>) {
        let toks = &file.tokens;
        for (i, tok) in toks.iter().enumerate() {
            if !tok.is_punct("==") && !tok.is_punct("!=") {
                continue;
            }
            let float_at = |k: Option<usize>| {
                k.and_then(|k| toks.get(k))
                    .is_some_and(|t| matches!(t.kind, TokenKind::Number { float: true }))
            };
            // Look one past a possible unary minus on the right.
            let right = if toks.get(i + 1).is_some_and(|t| t.is_punct("-")) {
                Some(i + 2)
            } else {
                Some(i + 1)
            };
            if !float_at(i.checked_sub(1)) && !float_at(right) {
                continue;
            }
            let line = tok.line;
            if file.in_test(line) || file.justified(line, Tag::Invariant) {
                continue;
            }
            out.push(violation(
                file,
                line,
                self.id(),
                "exact `==`/`!=` against a float literal; compare through \
                 `trajectory::float` or justify with `// invariant:`"
                    .to_string(),
            ));
        }
    }
}

/// R5: no `std::time` / `Instant` outside `mst-bench` and the executor's
/// clock module: library code must stay deterministic and clock-free so
/// results are reproducible.
pub struct NoClocks;

impl Rule for NoClocks {
    fn id(&self) -> &'static str {
        "R5"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Violation>) {
        for line in &file.lines {
            if line.in_test || file.justified(line.number, Tag::Invariant) {
                continue;
            }
            let has_instant = file
                .tokens
                .iter()
                .any(|t| t.line == line.number && t.is_ident("Instant"));
            if line.code.contains("std::time") || has_instant {
                out.push(violation(
                    file,
                    line.number,
                    self.id(),
                    "wall-clock access in library code; timing belongs in \
                     `mst-bench`"
                        .to_string(),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::tests::{flagged_lines, run_rule};

    #[test]
    fn r2_fixture_corpus() {
        let bad = run_rule(&NoLossyCasts, include_str!("../../fixtures/r2_bad.rs"));
        assert_eq!(bad.len(), 2, "{bad:?}");
        assert!(bad.iter().all(|v| v.rule == "R2"));
        let good = run_rule(&NoLossyCasts, include_str!("../../fixtures/r2_good.rs"));
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn r2_ignores_non_numeric_casts() {
        assert!(run_rule(&NoLossyCasts, "let d = x as &dyn Trait;").is_empty());
        assert!(run_rule(&NoLossyCasts, "let x = y as u32z;").is_empty());
        assert_eq!(flagged_lines(&NoLossyCasts, "let x = y as u32;"), [1]);
    }

    #[test]
    fn r3_fixture_corpus() {
        let bad = run_rule(&CrateRootAttrs, include_str!("../../fixtures/r3_bad.rs"));
        assert_eq!(bad.len(), 2, "{bad:?}");
        let good = run_rule(&CrateRootAttrs, include_str!("../../fixtures/r3_good.rs"));
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn r4_fixture_corpus() {
        let bad = run_rule(&NoFloatEquality, include_str!("../../fixtures/r4_bad.rs"));
        assert_eq!(bad.len(), 3, "{bad:?}");
        let good = run_rule(&NoFloatEquality, include_str!("../../fixtures/r4_good.rs"));
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn r4_token_heuristic_edges() {
        for hit in [
            "if x == 0.0 {",
            "if 1.5 != y {",
            "x == 1e-9",
            "x == -2.5",
            "x == 3f64",
        ] {
            assert_eq!(run_rule(&NoFloatEquality, hit).len(), 1, "{hit}");
        }
        for miss in [
            "if x == 0 {",
            "if x <= 0.5 {",
            "for i in 0..=10 {",
            "let r = 0.0..1.0;",
            "a == b",
            "let s = \"0.5 == x\";",
        ] {
            assert!(run_rule(&NoFloatEquality, miss).is_empty(), "{miss}");
        }
    }

    #[test]
    fn r5_fixture_corpus() {
        let bad = run_rule(&NoClocks, include_str!("../../fixtures/r5_bad.rs"));
        assert_eq!(bad.len(), 2, "{bad:?}");
        let good = run_rule(&NoClocks, include_str!("../../fixtures/r5_good.rs"));
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn r5_ignores_lookalike_identifiers() {
        let out = run_rule(
            &NoClocks,
            "let instantaneous = 1; struct NotAnInstantiation;",
        );
        assert!(out.is_empty(), "{out:?}");
    }
}
