//! R11: `Relaxed` is often right here (monotone bounds, post-join marks,
//! stats) and wrong where it looks the same, so each `Relaxed` carries an
//! `// ordering: <why relaxed is sound>` on a line of its statement up to
//! the ordering, or in the comment block above one.

use crate::lexer::{statement_start, SourceFile, Tag};
use crate::report::Violation;
use crate::rules::{violation, Rule};

/// R11: every `Relaxed` ordering carries an `// ordering:` justification.
pub struct AtomicOrdering;

impl Rule for AtomicOrdering {
    fn id(&self) -> &'static str {
        "R11"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Violation>) {
        let toks = &file.tokens;
        for (i, tok) in toks.iter().enumerate() {
            if !tok.is_ident("Relaxed") || file.in_test(tok.line) {
                continue;
            }
            let start = toks[statement_start(toks, i)].line;
            if !(start..=tok.line).any(|l| file.justified(l, Tag::Ordering)) {
                let why = "`Relaxed` without an `// ordering: <why relaxed is sound>`; \
                           explain the handshake or upgrade the ordering";
                out.push(violation(file, tok.line, self.id(), why.to_string()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::tests::{flagged_lines, run_rule};

    #[test]
    fn r11_fixture_corpus() {
        let bad = include_str!("../../fixtures/r11_bad.rs");
        assert_eq!(flagged_lines(&AtomicOrdering, bad), [4, 5]);
        let good = run_rule(&AtomicOrdering, include_str!("../../fixtures/r11_good.rs"));
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn relaxed_without_justification_is_flagged() {
        let src = "let v = self.bits.load(Ordering::Relaxed);";
        assert_eq!(flagged_lines(&AtomicOrdering, src), [1]);
        // A justification covers its own statement only.
        let stale = "// ordering: only for the line below\nlet a = 1;\nc.load(Relaxed);";
        assert_eq!(flagged_lines(&AtomicOrdering, stale), [3]);
    }

    #[test]
    fn stronger_orderings_need_no_justification() {
        let src = "a.load(Acquire); b.store(1, Ordering::Release); c.swap(2, SeqCst);";
        assert!(run_rule(&AtomicOrdering, src).is_empty());
    }

    #[test]
    fn justification_placements_all_excuse() {
        for src in [
            "c.fetch_add(1, Ordering::Relaxed); // ordering: monotonic counter",
            "// ordering: monotone lattice\nself.bits.fetch_min(v, Ordering::Relaxed);",
            "// ordering: join edge\nself.started_us\n    .fetch_min(now, Ordering::Relaxed);",
            "s.stats\n    // ordering: startup seeding\n    .store(v, Ordering::Relaxed);",
            "#[cfg(test)]\nmod t { fn f() { c.load(Relaxed); } }",
        ] {
            assert!(run_rule(&AtomicOrdering, src).is_empty(), "{src}");
        }
    }

    #[test]
    fn bare_relaxed_after_use_import_is_still_a_site() {
        let src = "counter.fetch_add(1, Relaxed);";
        assert_eq!(flagged_lines(&AtomicOrdering, src), [1]);
    }

    #[test]
    fn non_atomic_swaps_are_not_sites() {
        let src = "items.swap(0, 1); let x = page.load(store)?;";
        assert!(run_rule(&AtomicOrdering, src).is_empty());
    }
}
