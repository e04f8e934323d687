//! `cargo xtask` — the workspace's static-analysis driver.
//!
//! The framework lives in three modules: [`lexer`] turns each source file
//! into spanned tokens plus a sanitised line view, [`rules`] holds the
//! independent per-file rules (R1–R5, R7–R9, R11, R13; R6, R10 and R12
//! are retired), and [`report`] renders deterministic human and JSON
//! diagnostics. The rule ledger and the justification grammar
//! (`// invariant:` / `// ordering:`) are documented in `DESIGN.md`
//! § Static analysis; this file only wires rules to the directories they
//! scan.
//!
//! Usage:
//!
//! ```text
//! cargo run -p xtask -- check [--json] [--root <path>]
//! ```
//!
//! Exits 0 when clean, 1 with diagnostics, 2 on usage errors.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod lexer;
mod report;
mod rules;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use lexer::SourceFile;
use report::Violation;
use rules::atomics::AtomicOrdering;
use rules::durability::UnsyncedHandles;
use rules::hygiene::{CrateRootAttrs, NoClocks, NoFloatEquality, NoLossyCasts};
use rules::panics::{NoLockUnwrap, NoPanics, NoResultDiscards, NoSocketUnwraps};
use rules::threads::DetachedSpawns;
use rules::Rule;

// ---------------------------------------------------------------------------
// Tree walking and rule wiring
// ---------------------------------------------------------------------------

/// Collects `.rs` files under `dir` recursively, sorted for stable output.
fn rs_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else {
        return out;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            out.extend(rs_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out
}

/// Reads and lexes one file; unreadable paths are silently skipped (the
/// scope lists name files that may not exist in every tree).
fn lex(path: &Path) -> Option<SourceFile> {
    let src = fs::read_to_string(path).ok()?;
    Some(SourceFile::lex(path, &src))
}

/// Runs a set of per-file rules over every file in `paths`.
fn apply(active: &[&dyn Rule], paths: &[PathBuf], out: &mut Vec<Violation>) {
    for path in paths {
        if let Some(file) = lex(path) {
            for rule in active {
                rule.check(&file, out);
            }
        }
    }
}

/// The rule → scope wiring for this repository, rooted at `root`.
fn run_check(root: &Path) -> Vec<Violation> {
    let mut out = Vec::new();

    // R1 + R8: panic-free, discard-free library code in the algorithm,
    // execution, serving, and durability crates.
    let panic_scope: Vec<PathBuf> = [
        "crates/trajectory/src",
        "crates/index/src",
        "crates/core/src",
        "crates/exec/src",
        "crates/serve/src",
        "crates/wal/src",
    ]
    .iter()
    .flat_map(|dir| rs_files(&root.join(dir)))
    .collect();
    apply(&[&NoPanics, &NoResultDiscards], &panic_scope, &mut out);

    // R13: the WAL crate's crash-safety argument is fsync discipline —
    // every writable file handle must reach a durability barrier in the
    // function that created it.
    apply(
        &[&UnsyncedHandles],
        &rs_files(&root.join("crates/wal/src")),
        &mut out,
    );

    // R2: cast-free binary-format modules: the shared codec and every
    // format on top of it (pages, index images, WAL frames, snapshots and
    // wire frames).
    let codec_scope: Vec<PathBuf> = [
        "crates/index/src/codec.rs",
        "crates/index/src/node.rs",
        "crates/index/src/persist.rs",
        "crates/index/src/pagestore.rs",
        "crates/index/src/checksum.rs",
        "crates/wal/src/record.rs",
        "crates/wal/src/snapshot.rs",
        "crates/serve/src/protocol.rs",
    ]
    .iter()
    .map(|path| root.join(path))
    .collect();
    apply(&[&NoLossyCasts], &codec_scope, &mut out);

    // R3: attributes on every crate root (workspace crates + root package).
    let mut roots = vec![root.join("src/lib.rs")];
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        let mut dirs: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        dirs.sort();
        for dir in dirs {
            for candidate in ["src/lib.rs", "src/main.rs"] {
                let p = dir.join(candidate);
                if p.is_file() {
                    roots.push(p);
                    break;
                }
            }
        }
    }
    apply(&[&CrateRootAttrs], &roots, &mut out);

    // R4/R5: all library source. The tolerance module is the R4
    // allowlist; mst-bench plus the executor's clock module are the R5
    // allowlist; xtask scans everything but itself (its sources quote the
    // forbidden patterns in diagnostics and fixtures).
    let float_allowlist = root.join("crates/trajectory/src/float.rs");
    let clock_allowlist = root.join("crates/exec/src/clock.rs");
    let mut lib_dirs = vec![root.join("src")];
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        let mut dirs: Vec<_> = entries.flatten().map(|e| e.path()).collect();
        dirs.sort();
        for dir in dirs {
            if dir.file_name().is_some_and(|n| n == "xtask") {
                continue;
            }
            lib_dirs.push(dir.join("src"));
        }
    }
    for dir in &lib_dirs {
        let in_bench = dir.ends_with("bench/src");
        for path in rs_files(dir) {
            let Some(file) = lex(&path) else { continue };
            if path != float_allowlist {
                NoFloatEquality.check(&file, &mut out);
            }
            if !in_bench && path != clock_allowlist {
                NoClocks.check(&file, &mut out);
            }
        }
    }

    // R7, R9, R11 and R8's spawn half: lock and socket results are never
    // unwrapped, relaxed atomics say why, and threads are never detached,
    // in all library source plus the examples (showcase code models the
    // same discipline). Integration tests are test code and may unwrap.
    let mut lib_files: Vec<PathBuf> = lib_dirs.iter().flat_map(|d| rs_files(d)).collect();
    lib_files.extend(rs_files(&root.join("examples")));
    apply(
        &[
            &NoLockUnwrap,
            &NoSocketUnwraps,
            &AtomicOrdering,
            &DetachedSpawns,
        ],
        &lib_files,
        &mut out,
    );

    report::sort(&mut out);
    out
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

fn usage() -> ExitCode {
    eprintln!("usage: cargo run -p xtask -- check [--json] [--root <path>]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut check = false;
    let mut json = false;
    let mut root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."));
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(p) => root = PathBuf::from(p),
                None => return usage(),
            },
            "--json" => json = true,
            "check" if !check => check = true,
            _ => return usage(),
        }
    }
    if !check {
        return usage();
    }
    // A mistyped --root must not silently scan nothing and report clean.
    if !root.join("crates").is_dir() {
        eprintln!(
            "xtask check: {} does not contain a `crates/` directory; nothing to scan",
            root.display()
        );
        return ExitCode::from(2);
    }
    let violations = run_check(&root);
    if json {
        // JSON goes to stdout for archiving; the human diagnostics still
        // reach the terminal via stderr so a failing CI log stays readable.
        println!("{}", report::to_json(&violations));
    }
    if violations.is_empty() {
        if !json {
            println!("xtask check: clean");
        }
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("{v}");
        }
        eprintln!("xtask check: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------------
// Integration tests over the committed fixture trees
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/tree")
    }

    fn tree_clean() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/tree_clean")
    }

    #[test]
    fn seeded_tree_trips_every_rule() {
        let vs = run_check(&tree());
        let hit = |rule: &str, file: &str, line: usize| {
            vs.iter()
                .any(|v| v.rule == rule && v.file.ends_with(file) && v.line == line)
        };
        assert!(hit("R1", "trajectory/src/lib.rs", 6), "{vs:#?}");
        assert!(hit("R8", "trajectory/src/lib.rs", 7), "{vs:#?}");
        assert!(hit("R2", "index/src/codec.rs", 4), "{vs:#?}");
        // Every format on the codec sits in the R2 scope: dropping a file
        // from it fails here.
        for format in [
            "index/src/node.rs",
            "index/src/persist.rs",
            "wal/src/record.rs",
            "wal/src/snapshot.rs",
            "serve/src/protocol.rs",
        ] {
            assert!(hit("R2", format, 4), "{format}: {vs:#?}");
        }
        // The R1/R8 library sweep covers the substrate files.
        assert!(hit("R1", "index/src/metric.rs", 4), "{vs:#?}");
        assert!(hit("R8", "index/src/metric.rs", 5), "{vs:#?}");
        assert!(hit("R3", "index/src/lib.rs", 1), "{vs:#?}");
        assert_eq!(vs.iter().filter(|v| v.rule == "R3").count(), 2, "{vs:#?}");
        assert!(hit("R4", "core/src/lib.rs", 6), "{vs:#?}");
        assert!(hit("R5", "datagen/src/lib.rs", 5), "{vs:#?}");
        assert!(hit("R7", "bench/src/lib.rs", 10), "{vs:#?}");
        assert!(hit("R9", "serve/src/server.rs", 4), "{vs:#?}");
        assert!(hit("R1", "serve/src/server.rs", 4), "{vs:#?}");
        // R8's spawn half and R11 cover all library source.
        assert!(hit("R8", "exec/src/lib.rs", 6), "{vs:#?}");
        assert!(hit("R11", "wal/src/io.rs", 13), "{vs:#?}");
        // The durability rule covers the WAL crate: dropping
        // `crates/wal/src` from the R13 scope fails here.
        assert!(hit("R13", "wal/src/io.rs", 6), "{vs:#?}");
        assert_eq!(vs.len(), 20, "{vs:#?}");
        // The report comes back in canonical order.
        let mut sorted = vs.clone();
        report::sort(&mut sorted);
        assert_eq!(vs, sorted);
        // The seeded bench crate uses `std::time` without tripping R5
        // (bench is the allowlist) — only its lock unwrap is reported.
        assert!(!vs
            .iter()
            .any(|v| v.rule == "R5" && v.file.ends_with("bench/src/lib.rs")));
    }

    #[test]
    fn clean_tree_reports_nothing() {
        let vs = run_check(&tree_clean());
        assert!(vs.is_empty(), "{vs:#?}");
    }

    /// The static analysis is part of tier-1: the repository's own tree
    /// must pass every rule, so `cargo test` fails where `ci.sh` would.
    #[test]
    fn real_tree_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let vs = run_check(&root);
        assert!(vs.is_empty(), "{}", report::to_json(&vs));
    }

    #[test]
    fn json_report_is_deterministic() {
        let one = report::to_json(&run_check(&tree()));
        let two = report::to_json(&run_check(&tree()));
        assert_eq!(one, two);
        assert!(one.contains("\"rule\": \"R11\""), "{one}");
        assert!(one.contains("\"rule\": \"R13\""), "{one}");
    }

    #[test]
    fn missing_tree_scans_nothing() {
        let vs = run_check(&tree().join("no-such-dir"));
        assert!(vs.is_empty(), "{vs:#?}");
    }
}
