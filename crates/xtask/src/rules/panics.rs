//! The panic-shaped rules: R1 (no panicking constructs), R7 (no lock
//! unwraps), R8 (no discarded fallible calls; its spawn half, no dropped
//! `JoinHandle`, is `threads::DetachedSpawns`), R9 (no socket unwraps).
//!
//! All four are pattern rules over the sanitised line view; `#[cfg(test)]`
//! code is exempt and a line can opt out with an `// invariant:`
//! justification (see `DESIGN.md` § Static analysis).

use crate::lexer::{SourceFile, Tag};
use crate::report::Violation;
use crate::rules::{violation, Rule};

/// R1: no `unwrap()` / `expect(` / `panic!` / `todo!` / `unimplemented!` /
/// `unreachable!` in library code.
pub struct NoPanics;

const PANIC_PATTERNS: [&str; 6] = [
    ".unwrap()",
    ".expect(",
    "panic!",
    "todo!",
    "unimplemented!",
    "unreachable!",
];

impl Rule for NoPanics {
    fn id(&self) -> &'static str {
        "R1"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Violation>) {
        for line in &file.lines {
            if line.in_test || file.justified(line.number, Tag::Invariant) {
                continue;
            }
            for pat in PANIC_PATTERNS {
                if line.code.contains(pat) {
                    out.push(violation(
                        file,
                        line.number,
                        self.id(),
                        format!(
                            "`{pat}` in library code; return an error or add \
                             `// invariant: <why this cannot fire>`"
                        ),
                    ));
                }
            }
        }
    }
}

/// R7: unwrapping a lock guard. Poisoning (a panic on another thread while
/// it held the guard) must become an error — `IndexError::Poisoned` in the
/// index layer — not a second panic that takes the whole pool down.
pub struct NoLockUnwrap;

const LOCK_UNWRAP_PATTERNS: [&str; 3] =
    [".lock().unwrap()", ".read().unwrap()", ".write().unwrap()"];

impl Rule for NoLockUnwrap {
    fn id(&self) -> &'static str {
        "R7"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Violation>) {
        for line in &file.lines {
            if line.in_test || file.justified(line.number, Tag::Invariant) {
                continue;
            }
            for pat in LOCK_UNWRAP_PATTERNS {
                if line.code.contains(pat) {
                    out.push(violation(
                        file,
                        line.number,
                        self.id(),
                        format!(
                            "`{pat}` panics on a poisoned lock; map the \
                             `PoisonError` to an error (e.g. \
                             `IndexError::Poisoned`) instead"
                        ),
                    ));
                }
            }
        }
    }
}

/// R8: a discarded fallible call. `let _ = call(...)` and a
/// statement-ending `.ok();` both swallow a `Result` without looking at
/// it — with the fault-injection layer in place, that is how torn pages
/// and checksum mismatches vanish. The right-hand side must be
/// call-shaped (starts with an identifier and applies arguments) so the
/// idiomatic unused-parameter silencers (`let _ = n;`,
/// `let _ = (bound, n);`, `let _ = &reason;`) stay legal.
pub struct NoResultDiscards;

impl Rule for NoResultDiscards {
    fn id(&self) -> &'static str {
        "R8"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Violation>) {
        for line in &file.lines {
            if line.in_test || file.justified(line.number, Tag::Invariant) {
                continue;
            }
            let code = line.code.trim();
            for marker in ["let _ = ", "let _ ="] {
                let Some(pos) = code.find(marker) else {
                    continue;
                };
                let rhs = code[pos + marker.len()..].trim_start();
                if rhs.starts_with(|c: char| c.is_alphanumeric() || c == '_') && rhs.contains('(') {
                    out.push(violation(
                        file,
                        line.number,
                        self.id(),
                        "`let _ =` discards a call result; handle the \
                         `Result` (or justify with `// invariant:`)"
                            .to_string(),
                    ));
                }
                break;
            }
            // A trailing `.ok();` is only a discard when nothing receives
            // the value: assignments and `return` statements keep it.
            if code.ends_with(".ok();") && !code.contains('=') && !code.starts_with("return") {
                out.push(violation(
                    file,
                    line.number,
                    self.id(),
                    "statement-ending `.ok();` swallows an error; handle \
                     the `Result` (or justify with `// invariant:`)"
                        .to_string(),
                ));
            }
        }
    }
}

/// R9: socket-bearing tokens. A line that both touches one of these and
/// unwraps is almost certainly unwrapping the socket call's result. The
/// method patterns carry a leading dot so ordinary identifiers (a local
/// named `accept`, `ExecHandle::shutdown()`) stay out of scope.
pub struct NoSocketUnwraps;

const SOCKET_TOKENS: [&str; 16] = [
    "TcpListener",
    "TcpStream",
    "UdpSocket",
    ".accept()",
    ".connect(",
    ".local_addr()",
    ".peer_addr()",
    ".set_read_timeout(",
    ".set_write_timeout(",
    ".set_nodelay(",
    ".set_nonblocking(",
    ".set_ttl(",
    ".take_error()",
    ".try_clone()",
    ".shutdown(Shutdown",
    ".incoming()",
];

impl Rule for NoSocketUnwraps {
    fn id(&self) -> &'static str {
        "R9"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Violation>) {
        for line in &file.lines {
            if line.in_test || file.justified(line.number, Tag::Invariant) {
                continue;
            }
            let code = &line.code;
            if !code.contains(".unwrap()") && !code.contains(".expect(") {
                continue;
            }
            if SOCKET_TOKENS.iter().any(|t| code.contains(t)) {
                out.push(violation(
                    file,
                    line.number,
                    self.id(),
                    "socket I/O result unwrapped; peers disconnect and \
                     binds fail in normal operation, so handle the error \
                     (or justify with `// invariant:`)"
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
    fn r1_fixture_corpus() {
        let bad = run_rule(&NoPanics, include_str!("../../fixtures/r1_bad.rs"));
        assert_eq!(bad.len(), 3, "{bad:?}");
        assert!(bad.iter().all(|v| v.rule == "R1"));
        let good = run_rule(&NoPanics, include_str!("../../fixtures/r1_good.rs"));
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn r1_reports_accurate_lines() {
        let src = "fn a() {}\nfn b() { x.unwrap(); }\nfn c() { panic!(\"boom\") }";
        assert_eq!(flagged_lines(&NoPanics, src), [2, 3]);
    }

    #[test]
    fn r1_does_not_flag_unwrap_or_variants() {
        let out = run_rule(
            &NoPanics,
            "let v = x.unwrap_or(0) + y.unwrap_or_else(|| 1);",
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn r1_invariant_block_above_excuses() {
        let excused = "// invariant: the store caps page ids well below u32::MAX,\n\
                       // so this conversion is lossless.\n\
                       let id = u32::try_from(n).expect(\"capped\");";
        assert!(run_rule(&NoPanics, excused).is_empty());
        let stale = "// invariant: only applies to the line below\n\
                     let a = first();\n\
                     b.unwrap();";
        assert_eq!(flagged_lines(&NoPanics, stale), [3]);
    }

    #[test]
    fn r7_fixture_corpus() {
        let bad = run_rule(&NoLockUnwrap, include_str!("../../fixtures/r7_bad.rs"));
        assert_eq!(bad.len(), 3, "{bad:?}");
        assert!(bad.iter().all(|v| v.rule == "R7"));
        let good = run_rule(&NoLockUnwrap, include_str!("../../fixtures/r7_good.rs"));
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn r8_fixture_corpus() {
        let bad = include_str!("../../fixtures/r8_bad.rs");
        assert_eq!(flagged_lines(&NoResultDiscards, bad), [5, 6, 7, 12]);
        let good = include_str!("../../fixtures/r8_good.rs");
        assert!(run_rule(&NoResultDiscards, good).is_empty());
    }

    #[test]
    fn r9_fixture_corpus() {
        let bad = run_rule(&NoSocketUnwraps, include_str!("../../fixtures/r9_bad.rs"));
        assert_eq!(bad.len(), 6, "{bad:?}");
        assert!(bad.iter().all(|v| v.rule == "R9"));
        let good = run_rule(&NoSocketUnwraps, include_str!("../../fixtures/r9_good.rs"));
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn r9_covers_socket_option_setters() {
        // The satellite extension: timeout/nodelay setters pair with the
        // unwrap check exactly like accept/connect-shaped tokens.
        for call in [
            "s.set_read_timeout(Some(d)).unwrap();",
            "s.set_write_timeout(None).expect(\"t\");",
            "s.set_nodelay(true).unwrap();",
            "s.set_ttl(64).unwrap();",
            "let s2 = s.try_clone().unwrap();",
        ] {
            assert_eq!(run_rule(&NoSocketUnwraps, call).len(), 1, "{call}");
        }
        // Handled results on the same calls stay legal.
        for call in [
            "s.set_read_timeout(Some(d))?;",
            "if s.set_nodelay(true).is_err() { return; }",
        ] {
            assert!(run_rule(&NoSocketUnwraps, call).is_empty(), "{call}");
        }
    }
}
