//! R8's spawn half: a detached thread can outlive the executor and turn a
//! clean shutdown into a flaky one, so a `spawn(` whose statement names
//! `thread` or `Builder` must not pass its `JoinHandle` to `drop` or leave
//! it in statement position (`let _ = spawn(..)` is R8's `let _` scan).
//! Scoped `s.spawn(..)` joins structurally and never names `thread`.

use crate::lexer::{statement_start, SourceFile, Tag, Token};
use crate::report::Violation;
use crate::rules::{violation, Rule};

/// R8, spawn half: no `JoinHandle` dropped on the spot.
pub struct DetachedSpawns;

impl Rule for DetachedSpawns {
    fn id(&self) -> &'static str {
        "R8"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Violation>) {
        let toks = &file.tokens;
        for (i, tok) in toks.iter().enumerate() {
            let line = tok.line;
            if !tok.is_ident("spawn")
                || !toks.get(i + 1).is_some_and(|t| t.is_punct("("))
                || file.in_test(line)
                || file.justified(line, Tag::Invariant)
            {
                continue;
            }
            let head = &toks[statement_start(toks, i)..i];
            let names = |w: &str| head.iter().any(|t| t.is_ident(w));
            let thread_spawn = names("thread") || names("Builder");
            if thread_spawn && (names("drop") || statement_position(head, &toks[i..])) {
                let why = "detached thread: the `JoinHandle` is dropped on the spot; keep \
                           it and join it on shutdown (or justify with `// invariant:`)";
                out.push(violation(file, line, self.id(), why.to_string()));
            }
        }
    }
}

/// How a token moves the bracket depth.
fn depth(t: &Token) -> i32 {
    let any = |ps: [&str; 3]| ps.iter().any(|p| t.is_punct(p));
    i32::from(any(["(", "[", "{"])) - i32::from(any([")", "]", "}"]))
}

/// True when nothing receives the spawn's value: the statement binds,
/// assigns and returns nothing, the call sits in no open argument list,
/// and the statement ends in `;` rather than as a value.
fn statement_position(head: &[Token], rest: &[Token]) -> bool {
    let receives = |t: &Token| t.is_ident("let") || t.is_ident("return") || t.is_punct("=");
    if head.iter().any(receives) || head.iter().map(depth).sum::<i32>() > 0 {
        return false;
    }
    let mut d = 0;
    for t in rest {
        d += depth(t);
        // Closing the enclosing list or a `,` hands the value on; `;` drops it.
        if d < 0 || (d == 0 && (t.is_punct(",") || t.is_punct(";"))) {
            return d == 0 && t.is_punct(";");
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::tests::{flagged_lines, run_rule};

    #[test]
    fn r12_fixture_corpus() {
        let bad = include_str!("../../fixtures/r8_bad.rs"); // R12's cases live in R8's
        assert_eq!(flagged_lines(&DetachedSpawns, bad), [11, 13, 14]);
        assert!(run_rule(&DetachedSpawns, include_str!("../../fixtures/r8_good.rs")).is_empty());
    }

    #[test]
    fn statement_position_spawn_is_detached() {
        let src = "fn f() {\n    std::thread::spawn(move || work());\n    \
                   thread::Builder::new().name(n).spawn(work)?;\n    drop(thread::spawn(w));\n}";
        assert_eq!(flagged_lines(&DetachedSpawns, src), [2, 3, 4]);
    }

    #[test]
    fn bound_pushed_and_returned_handles_pass() {
        for src in [
            "fn f() { let _ = thread::spawn(worker); }", // R8's `let _` scan
            "fn f() { self.handle = Some(thread::spawn(worker)); }",
            "fn f() { workers.push(thread::Builder::new().name(n).spawn(w)?); }",
            "fn f() -> J { return thread::spawn(worker); }",
            "fn f() -> J { thread::spawn(worker) }",
            "let c = { thread::Builder::new().spawn(move || { a(); b(); })? };",
        ] {
            assert!(run_rule(&DetachedSpawns, src).is_empty(), "{src}");
        }
    }

    #[test]
    fn scoped_spawns_are_out_of_scope() {
        let src = "fn f() { thread::scope(|s| { s.spawn(a); }); thread::scope(|s| s.spawn(b)); }";
        assert!(run_rule(&DetachedSpawns, src).is_empty());
    }

    #[test]
    fn test_code_and_invariants_are_exempt() {
        let src = "#[cfg(test)]\nmod t { fn f() { thread::spawn(w); } }";
        assert!(run_rule(&DetachedSpawns, src).is_empty());
        let excused = "// invariant: fire-and-forget logger, exits with the process\n\
                       fn f() { std::thread::spawn(log_pump); }";
        assert!(run_rule(&DetachedSpawns, excused).is_empty());
    }
}
