//! R10: the inter-procedural lock-order audit.
//!
//! The executor and server layer their Mutexes (job queue, result slots,
//! connection registry, shard index) and a single inconsistent nesting
//! order is a deadlock that no test reliably reproduces. This rule builds
//! a conservative lock graph from the token stream and fails the check on
//! any acquisition cycle.
//!
//! The model, in full (also documented in `DESIGN.md` § Static analysis):
//!
//! * A **lock identity** is `filestem.field` — the receiver identifier of a
//!   `.lock()` call, qualified by the file it appears in. Every Mutex in
//!   this workspace is a private field used only from its defining module,
//!   so the qualification keeps same-named fields in different files
//!   distinct without needing type inference.
//! * A **guard is born** when a `.lock()` result is bound: a plain
//!   `let g = x.lock()…;` holds until its enclosing block closes or an
//!   explicit `drop(g)`; an `if let` / `while let` / `match` head
//!   acquisition holds through that construct's brace group only. A
//!   `.lock()` whose result is consumed in-statement (`.ok()` chains,
//!   call arguments) is a temporary: it creates edges but never holds.
//! * An **edge A → B** is recorded when B is acquired while a guard of A
//!   is live — directly, or through a call: each named call made while A
//!   is held contributes A → L for every lock L in the callee's transitive
//!   lock set (callees resolve by name across the whole scanned set; all
//!   same-named functions are unioned — except that a call never resolves
//!   *up* the crate layering of [`LAYERS`]: `mst-index` cannot call into
//!   `mst-exec`, so a `Vec::push` in the index crate is not the job
//!   queue's `push`). Only free calls, path calls
//!   (`Type::helper(…)`), and method calls on `self` resolve; a method
//!   call on a local (`stream.shutdown(…)`, `guard.items.len()`)
//!   dispatches on a value the analysis cannot type, so matching it by
//!   bare name would fabricate edges — held guards included, whose lock
//!   is already accounted for.
//! * A **violation** is any cycle: a 2-cycle is the classic AB/BA
//!   inconsistent nesting order, a self-edge is a re-entrant acquisition
//!   (instant deadlock on `std::sync::Mutex`).
//!
//! The analysis is deliberately over-approximate (name-matched calls,
//! guard lifetimes rounded up to block ends) and under-approximate in
//! corners it cannot see (guards smuggled through return values bind at
//! the caller via the same `.lock()` pattern, so the common helper shape
//! is still covered). It is a tripwire against lock-order drift, not a
//! proof of deadlock freedom.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

use crate::lexer::{SourceFile, Token, TokenKind};
use crate::report::Violation;
use crate::rules::WorkspaceRule;

/// The whole-workspace lock-order rule.
pub struct LockOrder;

/// The crates the concurrency audits cover, in dependency order (each may
/// depend only on those before it). Callee resolution respects it.
pub const LAYERS: [&str; 5] = ["index", "core", "exec", "wal", "serve"];

/// A file's position in [`LAYERS`], read off its `crates/<name>/` path
/// component; `None` outside the layered crates.
fn layer(file: &std::path::Path) -> Option<usize> {
    let mut parts = file.components().map(|c| c.as_os_str());
    parts.find(|c| *c == "crates")?;
    let krate = parts.next()?;
    LAYERS.iter().position(|l| krate == *l)
}

/// True unless calling from `caller`'s crate into `callee`'s would run
/// against the dependency order.
fn may_call(caller: &FnInfo, callee: &FnInfo) -> bool {
    match (layer(&caller.file), layer(&callee.file)) {
        (Some(from), Some(to)) => to <= from,
        _ => true,
    }
}

impl WorkspaceRule for LockOrder {
    fn id(&self) -> &'static str {
        "R10"
    }

    fn check(&self, files: &[SourceFile], out: &mut Vec<Violation>) {
        let fns = extract_functions(files);
        let edges = build_edges(&fns);
        report_cycles(self.id(), &edges, out);
    }
}

/// A named call made while zero or more guards were held.
struct CallSite {
    callee: String,
    held: Vec<String>,
    line: usize,
}

/// A held-while-acquiring pair observed inside one function.
struct EdgeRec {
    from: String,
    to: String,
    line: usize,
}

/// Everything the audit extracts from one `fn` body.
struct FnInfo {
    name: String,
    file: PathBuf,
    /// Locks this body acquires directly.
    direct: Vec<String>,
    calls: Vec<CallSite>,
    edges: Vec<EdgeRec>,
}

/// A live guard during the body scan.
struct Guard {
    name: Option<String>,
    lock: String,
    /// The brace depth the guard lives at; popped once depth drops below.
    scope: i32,
}

#[derive(PartialEq, Clone, Copy)]
enum Pend {
    /// `let g = …;` — commits a block-scoped guard at the `;`.
    Plain,
    /// `if let` / `while let` — commits a construct-scoped guard at `{`.
    Cond,
    /// `match head {` — commits an anonymous construct-scoped guard at `{`.
    Head,
}

/// A statement in flight that may become a guard binding.
struct Pending {
    kind: Pend,
    names: Vec<String>,
    lock: Option<String>,
    consumed: bool,
    depth: i32,
    paren: i32,
}

const CALLEE_SKIP: [&str; 24] = [
    "if", "while", "for", "match", "loop", "return", "break", "continue", "let", "fn", "else",
    "move", "in", "as", "where", "impl", "use", "mod", "Some", "Ok", "Err", "None", "drop", "lock",
];

fn extract_functions(files: &[SourceFile]) -> Vec<FnInfo> {
    let mut out = Vec::new();
    for file in files {
        let toks = &file.tokens;
        for i in 0..toks.len() {
            if !toks[i].is_ident("fn") || file.in_test(toks[i].line) {
                continue;
            }
            let Some(name) = toks.get(i + 1).and_then(Token::ident) else {
                continue;
            };
            // The body is the first `{` outside any parens/brackets in the
            // signature; a `;` first means a trait method without a body.
            let mut j = i + 2;
            let mut pdepth = 0i32;
            let mut open = None;
            while j < toks.len() {
                if let TokenKind::Punct(p) = &toks[j].kind {
                    match p.as_str() {
                        "(" | "[" => pdepth += 1,
                        ")" | "]" => pdepth -= 1,
                        "{" if pdepth == 0 => {
                            open = Some(j);
                            break;
                        }
                        ";" if pdepth == 0 => break,
                        _ => {}
                    }
                }
                j += 1;
            }
            if let Some(open) = open {
                out.push(scan_body(file, name, open));
            }
        }
    }
    out
}

/// Walks one function body, tracking live guards, and records direct
/// acquisitions, held-while-acquiring edges, and call sites.
fn scan_body(file: &SourceFile, name: &str, open: usize) -> FnInfo {
    let toks = &file.tokens;
    let stem = file.stem();
    let mut info = FnInfo {
        name: name.to_string(),
        file: file.path.clone(),
        direct: Vec::new(),
        calls: Vec::new(),
        edges: Vec::new(),
    };
    let mut guards: Vec<Guard> = Vec::new();
    let mut pending: Option<Pending> = None;
    let mut depth: i32 = 1;
    let mut paren: i32 = 0;
    let mut i = open + 1;
    while i < toks.len() && depth > 0 {
        let tok = &toks[i];
        match &tok.kind {
            TokenKind::Punct(p) => match p.as_str() {
                "{" => {
                    depth += 1;
                    if let Some(pd) = pending.take() {
                        match pd.kind {
                            // A construct head ends at its `{`; commit the
                            // guard scoped to the construct's brace group.
                            Pend::Cond | Pend::Head => {
                                if let (Some(lock), false) = (pd.lock, pd.consumed) {
                                    guards.push(Guard {
                                        name: pd.names.last().cloned(),
                                        lock,
                                        scope: depth,
                                    });
                                }
                            }
                            // A `{` inside a plain let (struct literal,
                            // block expression) does not end the statement.
                            Pend::Plain => pending = Some(pd),
                        }
                    }
                }
                "}" => {
                    depth -= 1;
                    guards.retain(|g| g.scope <= depth);
                    if pending.as_ref().is_some_and(|pd| pd.depth > depth) {
                        pending = None;
                    }
                }
                "(" | "[" => paren += 1,
                ")" | "]" => paren -= 1,
                ";" => {
                    if pending
                        .as_ref()
                        .is_some_and(|pd| pd.depth == depth && pd.paren == paren)
                    {
                        let pd = pending.take().expect("checked above");
                        if pd.kind == Pend::Plain && !pd.consumed {
                            if let Some(lock) = pd.lock {
                                guards.push(Guard {
                                    name: pd.names.last().cloned(),
                                    lock,
                                    scope: depth,
                                });
                            }
                        }
                    }
                }
                "." => {
                    if is_lock_call(toks, i) {
                        let lock = format!("{stem}.{}", receiver_name(toks, i));
                        for g in &guards {
                            info.edges.push(EdgeRec {
                                from: g.lock.clone(),
                                to: lock.clone(),
                                line: tok.line,
                            });
                        }
                        info.direct.push(lock.clone());
                        if let Some(pd) = pending.as_mut() {
                            // Only a lock in the binding chain itself (not
                            // nested in call arguments or closures) makes
                            // the binding a guard.
                            if pd.lock.is_none() && pd.paren == paren {
                                pd.lock = Some(lock);
                            }
                        }
                        i += 4; // `.` `lock` `(` `)`
                        continue;
                    }
                    // A method chained onto an acquired lock consumes the
                    // guard within the statement (`.ok()`, `.and_then(…)`),
                    // except the error-mapping/asserting adapters that
                    // still yield the guard.
                    if let Some(pd) = pending.as_mut() {
                        if pd.lock.is_some() && pd.paren == paren {
                            if let Some(m) = toks.get(i + 1).and_then(Token::ident) {
                                if m != "map_err" && m != "expect" && m != "unwrap" {
                                    pd.consumed = true;
                                }
                            }
                        }
                    }
                }
                _ => {}
            },
            TokenKind::Ident(w) => match w.as_str() {
                "let" => {
                    let kind = if i > open
                        && toks
                            .get(i - 1)
                            .is_some_and(|t| t.is_ident("if") || t.is_ident("while"))
                    {
                        Pend::Cond
                    } else {
                        Pend::Plain
                    };
                    // Capture the pattern's binding idents up to the `=`,
                    // then resume the main scan on the right-hand side.
                    let mut names = Vec::new();
                    let mut j = i + 1;
                    let mut pdepth = 0i32;
                    let mut eq = None;
                    while j < toks.len() {
                        match &toks[j].kind {
                            TokenKind::Punct(p) => match p.as_str() {
                                "(" | "[" => pdepth += 1,
                                ")" | "]" => pdepth -= 1,
                                "=" if pdepth == 0 => {
                                    eq = Some(j);
                                    break;
                                }
                                ";" | "{" => break,
                                _ => {}
                            },
                            TokenKind::Ident(n) => {
                                if !matches!(
                                    n.as_str(),
                                    "mut" | "ref" | "Ok" | "Some" | "Err" | "None" | "_"
                                ) {
                                    names.push(n.clone());
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    if let Some(eq) = eq {
                        pending = Some(Pending {
                            kind,
                            names,
                            lock: None,
                            consumed: false,
                            depth,
                            paren,
                        });
                        i = eq + 1;
                        continue;
                    }
                }
                "match" => {
                    pending = Some(Pending {
                        kind: Pend::Head,
                        names: Vec::new(),
                        lock: None,
                        consumed: false,
                        depth,
                        paren,
                    });
                }
                "else" => {
                    // `let Ok(g) = x.lock() else { … };` — the binding
                    // survives past the else block like a plain let.
                    if let Some(pd) = pending.take() {
                        if pd.kind == Pend::Plain && !pd.consumed {
                            if let Some(lock) = pd.lock {
                                guards.push(Guard {
                                    name: pd.names.last().cloned(),
                                    lock,
                                    scope: depth,
                                });
                            }
                        }
                    }
                }
                "drop" => {
                    if toks.get(i + 1).is_some_and(|t| t.is_punct("(")) {
                        if let Some(n) = toks.get(i + 2).and_then(Token::ident) {
                            if toks.get(i + 3).is_some_and(|t| t.is_punct(")")) {
                                guards.retain(|g| g.name.as_deref() != Some(n));
                                i += 4;
                                continue;
                            }
                        }
                    }
                }
                _ => {
                    if toks.get(i + 1).is_some_and(|t| t.is_punct("("))
                        && !CALLEE_SKIP.contains(&w.as_str())
                    {
                        // Resolve free calls, path calls (`Type::helper(…)`),
                        // and method calls on `self`. A method call on a
                        // local (`stream.shutdown(…)`, `guard.items.len()`)
                        // dispatches on a value this analysis cannot type;
                        // matching it by bare name would fabricate edges to
                        // unrelated same-named functions — including calls
                        // through a held guard, whose lock is already
                        // accounted for.
                        let resolved = if i >= 1 && toks[i - 1].is_punct(".") {
                            receiver_base(toks, i - 1) == Some("self")
                        } else {
                            true
                        };
                        if resolved {
                            info.calls.push(CallSite {
                                callee: w.clone(),
                                held: guards.iter().map(|g| g.lock.clone()).collect(),
                                line: tok.line,
                            });
                        }
                    }
                }
            },
            _ => {}
        }
        i += 1;
    }
    info
}

/// True when `toks[dot]` starts the exact sequence `. lock ( )`.
fn is_lock_call(toks: &[Token], dot: usize) -> bool {
    toks[dot].is_punct(".")
        && toks.get(dot + 1).is_some_and(|t| t.is_ident("lock"))
        && toks.get(dot + 2).is_some_and(|t| t.is_punct("("))
        && toks.get(dot + 3).is_some_and(|t| t.is_punct(")"))
}

/// The base identifier of the receiver chain ending at the separator at
/// `sep`: `self.queue.inner.` → `self`; `guard.items.` → `guard`.
/// Index/call groups inside the chain are skipped; a chain rooted in
/// anything other than an identifier yields `None`.
fn receiver_base(toks: &[Token], sep: usize) -> Option<&str> {
    let mut j = sep as i64;
    let mut base = None;
    loop {
        match &toks[j as usize].kind {
            TokenKind::Punct(p) if p == "." || p == "::" => j -= 1,
            _ => break,
        }
        if j < 0 {
            break;
        }
        // Skip one trailing index/call group in this segment.
        if let TokenKind::Punct(p) = &toks[j as usize].kind {
            if p == "]" || p == ")" {
                let (close, open) = if p == "]" { ("]", "[") } else { (")", "(") };
                let mut d = 1;
                j -= 1;
                while j >= 0 && d > 0 {
                    if let TokenKind::Punct(q) = &toks[j as usize].kind {
                        if q == close {
                            d += 1;
                        } else if q == open {
                            d -= 1;
                        }
                    }
                    j -= 1;
                }
            }
        }
        if j < 0 {
            break;
        }
        match &toks[j as usize].kind {
            TokenKind::Ident(w) => {
                base = Some(w.as_str());
                j -= 1;
            }
            _ => break,
        }
        if j < 0 {
            break;
        }
    }
    base
}

/// The receiver identifier of a `.lock()` call: the last path segment
/// before the dot, skipping one trailing index/call group
/// (`slots[i].lock()`, `cell().lock()`).
fn receiver_name(toks: &[Token], dot: usize) -> String {
    let mut j = dot as i64 - 1;
    if j >= 0 {
        if let TokenKind::Punct(p) = &toks[j as usize].kind {
            if p == "]" || p == ")" {
                let (close, open) = if p == "]" { ("]", "[") } else { (")", "(") };
                let mut d = 1;
                j -= 1;
                while j >= 0 && d > 0 {
                    if let TokenKind::Punct(q) = &toks[j as usize].kind {
                        if q == close {
                            d += 1;
                        } else if q == open {
                            d -= 1;
                        }
                    }
                    j -= 1;
                }
            }
        }
    }
    while j >= 0 {
        match &toks[j as usize].kind {
            TokenKind::Ident(w) => return w.clone(),
            TokenKind::Punct(p) if p == "." || p == "::" => j -= 1,
            _ => break,
        }
    }
    "anon".to_string()
}

/// Folds per-function facts into the global edge map. Call edges use the
/// callee's *transitive* lock set, computed to a fixpoint so chains like
/// `submit → queue.push → queue.inner` resolve through any depth.
fn build_edges(fns: &[FnInfo]) -> BTreeMap<(String, String), (PathBuf, usize)> {
    let mut registry: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (idx, f) in fns.iter().enumerate() {
        registry.entry(&f.name).or_default().push(idx);
    }
    let mut locksets: Vec<BTreeSet<String>> = fns
        .iter()
        .map(|f| f.direct.iter().cloned().collect())
        .collect();
    loop {
        let mut changed = false;
        for idx in 0..fns.len() {
            for call in &fns[idx].calls {
                let Some(callees) = registry.get(call.callee.as_str()) else {
                    continue;
                };
                for &c in callees {
                    if c == idx || !may_call(&fns[idx], &fns[c]) {
                        continue;
                    }
                    let add: Vec<String> = locksets[c]
                        .iter()
                        .filter(|l| !locksets[idx].contains(*l))
                        .cloned()
                        .collect();
                    if !add.is_empty() {
                        changed = true;
                        locksets[idx].extend(add);
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    let mut edges: BTreeMap<(String, String), (PathBuf, usize)> = BTreeMap::new();
    let mut add = |from: &str, to: &str, file: &PathBuf, line: usize| {
        let key = (from.to_string(), to.to_string());
        let loc = (file.clone(), line);
        let entry = edges.entry(key).or_insert_with(|| loc.clone());
        if loc < *entry {
            *entry = loc;
        }
    };
    for f in fns {
        for e in &f.edges {
            add(&e.from, &e.to, &f.file, e.line);
        }
        for call in &f.calls {
            if call.held.is_empty() {
                continue;
            }
            let Some(callees) = registry.get(call.callee.as_str()) else {
                continue;
            };
            for &c in callees.iter().filter(|&&c| may_call(f, &fns[c])) {
                for lock in &locksets[c] {
                    for held in &call.held {
                        add(held, lock, &f.file, call.line);
                    }
                }
            }
        }
    }
    edges
}

/// DFS cycle detection over the edge map; every cycle found becomes one
/// violation anchored at its lexicographically first edge location.
fn report_cycles(
    rule: &'static str,
    edges: &BTreeMap<(String, String), (PathBuf, usize)>,
    out: &mut Vec<Violation>,
) {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        adj.entry(from).or_default().push(to);
        adj.entry(to).or_default();
    }

    // Self-edges are re-entrant acquisitions; report them directly.
    for ((from, to), (file, line)) in edges {
        if from == to {
            out.push(Violation {
                file: file.clone(),
                line: *line,
                rule,
                message: format!(
                    "re-entrant acquisition: `{from}` is (transitively) \
                     acquired while already held — `std::sync::Mutex` \
                     deadlocks immediately"
                ),
            });
        }
    }

    let mut state: BTreeMap<&str, u8> = BTreeMap::new();
    let mut cycles: BTreeSet<Vec<String>> = BTreeSet::new();
    let nodes: Vec<&str> = adj.keys().copied().collect();
    for node in nodes {
        if state.get(node).copied().unwrap_or(0) == 0 {
            dfs(node, &adj, &mut state, &mut Vec::new(), &mut cycles);
        }
    }
    for cycle in cycles {
        if cycle.len() < 2 {
            continue; // self-edges already reported above
        }
        // Anchor the diagnostic at the smallest (file, line) among the
        // cycle's edges so the report is stable across runs.
        let mut loc: Option<(PathBuf, usize)> = None;
        for k in 0..cycle.len() {
            let key = (cycle[k].clone(), cycle[(k + 1) % cycle.len()].clone());
            if let Some(l) = edges.get(&key) {
                if loc.as_ref().map_or(true, |best| l < best) {
                    loc = Some(l.clone());
                }
            }
        }
        let (file, line) = loc.unwrap_or_else(|| (PathBuf::from("?"), 0));
        let path = cycle.join(" -> ");
        let first = &cycle[0];
        out.push(Violation {
            file,
            line,
            rule,
            message: format!(
                "lock-order cycle: {path} -> {first}; these locks must \
                 nest in one consistent order everywhere"
            ),
        });
    }
}

fn dfs<'a>(
    node: &'a str,
    adj: &BTreeMap<&'a str, Vec<&'a str>>,
    state: &mut BTreeMap<&'a str, u8>,
    stack: &mut Vec<&'a str>,
    cycles: &mut BTreeSet<Vec<String>>,
) {
    state.insert(node, 1);
    stack.push(node);
    for &next in adj.get(node).into_iter().flatten() {
        match state.get(next).copied().unwrap_or(0) {
            0 => dfs(next, adj, state, stack, cycles),
            1 => {
                let pos = stack.iter().position(|&n| n == next).unwrap_or(0);
                let mut cycle: Vec<String> = stack[pos..].iter().map(|s| s.to_string()).collect();
                // Canonical rotation: smallest lock name first, so the
                // same cycle discovered from different entry points
                // deduplicates.
                if let Some(k) = (0..cycle.len()).min_by_key(|&k| &cycle[k]) {
                    cycle.rotate_left(k);
                }
                cycles.insert(cycle);
            }
            _ => {}
        }
    }
    stack.pop();
    state.insert(node, 2);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::SourceFile;
    use std::path::Path;

    fn check_files(named: &[(&str, &str)]) -> Vec<Violation> {
        let files: Vec<SourceFile> = named
            .iter()
            .map(|(name, src)| SourceFile::lex(Path::new(name), src))
            .collect();
        let mut out = Vec::new();
        LockOrder.check(&files, &mut out);
        out
    }

    #[test]
    fn r10_fixture_corpus() {
        let bad = check_files(&[("r10_bad.rs", include_str!("../../fixtures/r10_bad.rs"))]);
        assert!(
            bad.iter()
                .any(|v| v.rule == "R10" && v.message.contains("lock-order cycle")),
            "{bad:?}"
        );
        let good = check_files(&[("r10_good.rs", include_str!("../../fixtures/r10_good.rs"))]);
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn opposite_orders_in_one_file_form_a_cycle() {
        let src = "
            fn ab(s: &S) { let a = s.left.lock()?; let b = s.right.lock()?; use2(a, b); }
            fn ba(s: &S) { let b = s.right.lock()?; let a = s.left.lock()?; use2(a, b); }
        ";
        let out = check_files(&[("pair.rs", src)]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(
            out[0]
                .message
                .contains("pair.left -> pair.right -> pair.left"),
            "{}",
            out[0].message
        );
    }

    #[test]
    fn consistent_order_is_clean() {
        let src = "
            fn one(s: &S) { let a = s.left.lock()?; let b = s.right.lock()?; use2(a, b); }
            fn two(s: &S) { let a = s.left.lock()?; let b = s.right.lock()?; use2(a, b); }
        ";
        assert!(check_files(&[("pair.rs", src)]).is_empty());
    }

    #[test]
    fn drop_releases_the_guard() {
        let src = "
            fn ab(s: &S) { let a = s.left.lock()?; drop(a); let b = s.right.lock()?; }
            fn ba(s: &S) { let b = s.right.lock()?; drop(b); let a = s.left.lock()?; }
        ";
        assert!(check_files(&[("pair.rs", src)]).is_empty());
    }

    #[test]
    fn if_let_guard_ends_at_the_construct() {
        // The guard from an `if let` head does not leak past its block, so
        // the second acquisition is sequential, not nested.
        let src = "
            fn seq(s: &S) {
                if let Ok(g) = s.left.lock() { touch(g); }
                if let Ok(h) = s.right.lock() { touch(h); }
            }
            fn rev(s: &S) { let b = s.right.lock()?; let a = s.left.lock()?; use2(a, b); }
        ";
        assert!(check_files(&[("pair.rs", src)]).is_empty());
    }

    #[test]
    fn interprocedural_cycle_through_a_call() {
        let a = "
            fn push(q: &Q) { let g = q.inner.lock()?; g.push_back(1); }
        ";
        let b = "
            fn collect(s: &S) { let slot = s.slots.lock()?; push(s.queue); drop(slot); }
            fn refill(s: &S) { let g = s.queue2.inner2.lock()?; grab(s); }
            fn grab(s: &S) { let slot = s.slots.lock()?; touch(slot); }
        ";
        // collect: batch.slots -> queue.inner (via call). No cycle yet.
        let out = check_files(&[("queue.rs", a), ("batch.rs", b)]);
        assert!(out.is_empty(), "{out:?}");
        // Now make the queue call back into a function that takes slots:
        let a2 = "
            fn push(q: &Q) { let g = q.inner.lock()?; grab(q.owner); }
        ";
        let out2 = check_files(&[("queue.rs", a2), ("batch.rs", b)]);
        assert!(
            out2.iter().any(|v| v.message.contains("lock-order cycle")),
            "{out2:?}"
        );
    }

    #[test]
    fn calls_never_resolve_up_the_crate_layering() {
        // The index crate cannot call into the executor: a `Vec::push`
        // under the directory lock is not the job queue's locking `push`.
        let queue = "fn push(q: &Q) { let g = q.inner.lock()?; relock(q); }";
        let metric = "
            fn relock(t: &T) { let d = t.directory.lock()?; touch(d); }
            fn insert(&mut self) { let d = self.directory.lock()?; self.leaves.push(1); }
        ";
        let layered = check_files(&[
            ("crates/exec/src/queue.rs", queue),
            ("crates/index/src/metric.rs", metric),
        ]);
        assert!(layered.is_empty(), "{layered:?}");
        // The same two files with no layering to go by resolve by bare
        // name, and the phantom cycle appears.
        let flat = check_files(&[("queue.rs", queue), ("metric.rs", metric)]);
        assert!(
            flat.iter().any(|v| v.message.contains("lock-order cycle")),
            "{flat:?}"
        );
    }

    #[test]
    fn reentrant_acquisition_is_a_self_edge() {
        let src =
            "fn twice(s: &S) { let a = s.inner.lock()?; let b = s.inner.lock()?; use2(a, b); }";
        let out = check_files(&[("q.rs", src)]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("re-entrant"), "{}", out[0].message);
    }

    #[test]
    fn consumed_lock_results_do_not_hold() {
        // `.ok().and_then(...)` consumes the guard inside the statement;
        // the binding is a value, not a guard, so no edge to later locks.
        let src = "
            fn take(s: &S) {
                let v = s.right.lock().ok().and_then(|mut g| g.take());
                let a = s.left.lock()?;
                use2(v, a);
            }
            fn fwd(s: &S) { let a = s.left.lock()?; let b = s.right.lock()?; use2(a, b); }
        ";
        assert!(check_files(&[("pair.rs", src)]).is_empty());
    }

    #[test]
    fn calls_through_a_held_guard_are_not_resolved() {
        // `guard.helper()` dereferences into the protected object; resolving
        // it by name against an unrelated `fn helper` that locks the same
        // mutex would be a phantom re-entrancy.
        let src = "
            fn read(s: &S) { let guard = s.inner.lock()?; guard.helper(); }
            fn helper(s: &S) { let g = s.inner.lock()?; touch(g); }
        ";
        assert!(check_files(&[("q.rs", src)]).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "
            #[cfg(test)]
            mod tests {
                fn ab(s: &S) { let a = s.left.lock()?; let b = s.right.lock()?; use2(a, b); }
                fn ba(s: &S) { let b = s.right.lock()?; let a = s.left.lock()?; use2(a, b); }
            }
        ";
        assert!(check_files(&[("pair.rs", src)]).is_empty());
    }
}
