//! `lock-order`: deadlock-shape analysis over guard-binding scopes.
//!
//! The rule builds a per-crate lock acquisition graph from the token
//! stream. An *acquisition* is a `.lock()` / `.read()` / `.write()` call
//! with empty parentheses (the empty argument list is what separates a
//! `Mutex`/`RwLock` acquisition from `io::Read::read(&mut buf)`); the lock
//! is named by the last identifier before the dot (`self.snapshot.read()`
//! acquires `snapshot`). A guard *persists* when the acquisition sits in a
//! `let` binding (until its block closes or the variable is `drop`ped) or
//! in a `for`/`match`/`if`/`while` head (until the body closes — slightly
//! conservative for `if`/`while`, whose condition temporaries really die
//! earlier). Any acquisition while guards are held adds held→new edges.
//!
//! Three violation shapes come out of the walk:
//! 1. a cycle in any crate's acquisition graph (ABBA deadlock shape),
//! 2. re-acquiring a lock name already held (self-deadlock for `Mutex`,
//!    writer-starvation hazard for `RwLock`),
//! 3. holding any guard across a blocking call — LP solves (`solve`,
//!    `solve_warm`, and the sequence-table solves `solve_table` and
//!    `compute_with_seed` that a cache miss runs) or network I/O
//!    (`write_all`, `read_*`, `connect`, `accept`) — which turns one slow
//!    tenant into a lock convoy for every other tenant.
//!
//! Known limits (by design — this is lexical, intra-procedural analysis):
//! locks acquired inside callees are invisible, and a guard returned from a
//! function is treated as transient at the return site. Lock names are
//! field names, so two different objects sharing a field name merge into
//! one graph node — conservative in the cycle direction. Test code
//! (`#[cfg(test)]` / `tests/`) is exempt: tests may sequence locks freely.

use super::{prev, violation};
use crate::context::FileContext;
use crate::lexer::TokenKind;
use crate::report::Violation;
use std::collections::{BTreeMap, BTreeSet};

/// Guard-producing method names (with empty argument lists).
const ACQUIRE: &[&str] = &["lock", "read", "write"];

/// Calls that block for unbounded or long times: LP solver entry points,
/// the sequence-table solves behind a cache miss, and socket I/O. Holding
/// any lock across these is a convoy hazard.
const BLOCKING: &[&str] = &[
    "solve",
    "solve_warm",
    "solve_table",
    "compute_with_seed",
    "write_all",
    "read_line",
    "read_exact",
    "read_to_string",
    "connect",
    "accept",
];

/// A live lock guard during the lexical walk.
struct Guard {
    /// Lock name (receiver field/variable identifier).
    lock: String,
    /// Binding variable, when bound via `let` (enables `drop(var)`).
    var: Option<String>,
    /// Brace depth the guard lives at; it dies when the walk closes back
    /// below this depth.
    depth: usize,
}

/// Where an edge was first observed: (path, line, col).
type Site = (String, u32, u32);

/// Per-crate acquisition graphs: crate key → (held → acquired) → first site.
type EdgeMap = BTreeMap<String, BTreeMap<(String, String), Site>>;

/// Runs the lock-order analysis over the whole file set (the graph spans
/// files within a crate: `ingest` in one file and `serve` in another must
/// still agree on order).
pub fn check(files: &[FileContext], out: &mut Vec<Violation>) {
    let mut edges: EdgeMap = BTreeMap::new();
    for ctx in files {
        scan_file(ctx, &mut edges, out);
    }
    for (krate, graph) in &edges {
        find_cycles(krate, graph, out);
    }
}

/// The graph partition a file belongs to: its crate directory (locks never
/// cross crate boundaries by value in this workspace).
fn crate_key(path: &str) -> String {
    let mut parts = path.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or("crates").to_owned(),
        Some(first) => first.to_owned(),
        None => "unknown".to_owned(),
    }
}

fn scan_file(ctx: &FileContext, edges: &mut EdgeMap, out: &mut Vec<Violation>) {
    let tokens = &ctx.tokens;
    let krate = crate_key(&ctx.path);
    let mut depth = 0usize;
    let mut guards: Vec<Guard> = Vec::new();
    // `let [mut] <ident> =` seen, awaiting the initializer: (var, depth).
    let mut pending_let: Option<(String, usize)> = None;
    // Between a `for`/`match`/`if`/`while` keyword and its body `{`.
    let mut control_head = false;
    for i in 0..tokens.len() {
        let t = &tokens[i];
        match t.kind {
            TokenKind::Punct => match t.text.as_bytes()[0] {
                b'{' => {
                    depth += 1;
                    control_head = false;
                }
                b'}' => {
                    depth = depth.saturating_sub(1);
                    guards.retain(|g| g.depth <= depth);
                }
                b';' => {
                    pending_let = None;
                    control_head = false;
                }
                _ => {}
            },
            TokenKind::Ident if !ctx.is_test(i) => match t.text.as_str() {
                "let" => {
                    let mut j = i + 1;
                    if tokens.get(j).is_some_and(|n| n.is_ident("mut")) {
                        j += 1;
                    }
                    if tokens.get(j).is_some_and(|n| n.kind == TokenKind::Ident)
                        && tokens.get(j + 1).is_some_and(|n| n.is_punct('='))
                    {
                        pending_let = Some((tokens[j].text.clone(), depth));
                    }
                }
                "for" | "while" | "if" | "match" => control_head = true,
                "drop"
                    if tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
                        && tokens.get(i + 3).is_some_and(|n| n.is_punct(')')) =>
                {
                    if let Some(var) = tokens.get(i + 2).filter(|n| n.kind == TokenKind::Ident) {
                        guards.retain(|g| g.var.as_deref() != Some(var.text.as_str()));
                    }
                }
                name if ACQUIRE.contains(&name)
                    && prev(tokens, i).is_some_and(|p| p.is_punct('.'))
                    && tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
                    && tokens.get(i + 2).is_some_and(|n| n.is_punct(')')) =>
                {
                    let recv = i
                        .checked_sub(2)
                        .and_then(|j| tokens.get(j))
                        .filter(|r| r.kind == TokenKind::Ident)
                        .map(|r| r.text.clone())
                        .unwrap_or_else(|| "<expr>".to_owned());
                    if guards.iter().any(|g| g.lock == recv) {
                        out.push(violation(
                            ctx,
                            t,
                            "lock-order",
                            format!(
                                "lock `{recv}` re-acquired while already held; a Mutex \
                                 self-deadlocks and an RwLock read-under-read stalls \
                                 behind a queued writer"
                            ),
                        ));
                    }
                    for g in &guards {
                        if g.lock != recv {
                            edges
                                .entry(krate.clone())
                                .or_default()
                                .entry((g.lock.clone(), recv.clone()))
                                .or_insert_with(|| (ctx.path.clone(), t.line, t.col));
                        }
                    }
                    if let Some((var, let_depth)) = pending_let.take() {
                        guards.push(Guard {
                            lock: recv,
                            var: Some(var),
                            depth: let_depth,
                        });
                    } else if control_head {
                        guards.push(Guard {
                            lock: recv,
                            var: None,
                            depth: depth + 1,
                        });
                    }
                }
                name if BLOCKING.contains(&name)
                    && tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
                    && prev(tokens, i).is_some_and(|p| p.is_punct('.') || p.is_punct(':'))
                    && !guards.is_empty() =>
                {
                    let held = guards
                        .iter()
                        .map(|g| format!("`{}`", g.lock))
                        .collect::<Vec<_>>()
                        .join(", ");
                    out.push(violation(
                        ctx,
                        t,
                        "lock-order",
                        format!(
                            "blocking call `{name}(…)` while holding {held}; an LP \
                             solve or socket write under a lock convoys every other \
                             tenant — release the guard first"
                        ),
                    ));
                }
                _ => {}
            },
            _ => {}
        }
    }
}

/// DFS cycle detection over one crate's acquisition graph; each back edge
/// yields one violation anchored at the edge that closes the cycle.
fn find_cycles(krate: &str, graph: &BTreeMap<(String, String), Site>, out: &mut Vec<Violation>) {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    let mut nodes: BTreeSet<&str> = BTreeSet::new();
    for (from, to) in graph.keys() {
        adj.entry(from).or_default().push(to);
        nodes.insert(from);
        nodes.insert(to);
    }
    let mut color: BTreeMap<&str, u8> = nodes.iter().map(|&n| (n, 0u8)).collect();
    let mut stack: Vec<&str> = Vec::new();
    for &node in &nodes {
        if color[node] == 0 {
            dfs(node, &adj, &mut color, &mut stack, graph, krate, out);
        }
    }
}

fn dfs<'a>(
    node: &'a str,
    adj: &BTreeMap<&'a str, Vec<&'a str>>,
    color: &mut BTreeMap<&'a str, u8>,
    stack: &mut Vec<&'a str>,
    graph: &BTreeMap<(String, String), Site>,
    krate: &str,
    out: &mut Vec<Violation>,
) {
    color.insert(node, 1);
    stack.push(node);
    for &next in adj.get(node).into_iter().flatten() {
        match color.get(next).copied().unwrap_or(0) {
            0 => dfs(next, adj, color, stack, graph, krate, out),
            1 => {
                // Back edge node→next closes a cycle through the gray stack.
                let cycle = match stack.iter().position(|&s| s == next) {
                    Some(pos) => {
                        let mut c: Vec<&str> = stack[pos..].to_vec();
                        c.push(next);
                        c.join(" -> ")
                    }
                    None => format!("{node} -> {next} -> {node}"),
                };
                if let Some((path, line, col)) = graph.get(&(node.to_owned(), next.to_owned())) {
                    out.push(Violation {
                        rule: "lock-order".to_owned(),
                        path: path.clone(),
                        line: *line,
                        col: *col,
                        message: format!(
                            "lock acquisition cycle in crate `{krate}`: {cycle}; two \
                             threads taking these locks in opposite orders deadlock"
                        ),
                    });
                }
            }
            _ => {}
        }
    }
    stack.pop();
    color.insert(node, 2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_sources(sources: &[(&str, &str)]) -> Vec<Violation> {
        let files: Vec<FileContext> = sources
            .iter()
            .map(|(path, src)| FileContext::new(path, src))
            .collect();
        let mut out = Vec::new();
        check(&files, &mut out);
        out
    }

    #[test]
    fn consistent_order_is_clean_and_opposite_order_cycles() {
        let ab = "fn f(s: &S) { let a = s.state.lock(); let b = s.ledger.lock(); }";
        let ab2 = "fn g(s: &S) { let a = s.state.lock(); let b = s.ledger.lock(); }";
        assert!(check_sources(&[
            ("crates/server/src/a.rs", ab),
            ("crates/server/src/b.rs", ab2),
        ])
        .is_empty());
        let ba = "fn g(s: &S) { let b = s.ledger.lock(); let a = s.state.lock(); }";
        let v = check_sources(&[
            ("crates/server/src/a.rs", ab),
            ("crates/server/src/b.rs", ba),
        ]);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("cycle"));
    }

    #[test]
    fn same_names_in_different_crates_do_not_interact() {
        let ab = "fn f(s: &S) { let a = s.state.lock(); let b = s.ledger.lock(); }";
        let ba = "fn g(s: &S) { let b = s.ledger.lock(); let a = s.state.lock(); }";
        assert!(check_sources(&[
            ("crates/server/src/a.rs", ab),
            ("crates/runtime/src/b.rs", ba),
        ])
        .is_empty());
    }

    #[test]
    fn blocking_call_under_guard_flagged_and_freed_by_drop() {
        let bad = "fn f(s: &S) { let g = s.model.lock(); s.lp.solve(&m); }";
        let v = check_sources(&[("crates/runtime/src/x.rs", bad)]);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("solve"));
        let good = "fn f(s: &S) { let g = s.model.lock(); drop(g); s.lp.solve(&m); }";
        assert!(check_sources(&[("crates/runtime/src/x.rs", good)]).is_empty());
        let scoped = "fn f(s: &S) { { let g = s.model.lock(); } s.lp.solve(&m); }";
        assert!(check_sources(&[("crates/runtime/src/x.rs", scoped)]).is_empty());
    }

    #[test]
    fn control_head_guard_lives_for_the_body() {
        let bad = "fn f(s: &S) { for c in s.streams.lock().drain(..) { c.write_all(b\"x\"); } }";
        let v = check_sources(&[("crates/server/src/x.rs", bad)]);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("write_all"));
        let after = "fn f(s: &S) { for c in s.streams.lock().drain(..) { push(c); } s.out.write_all(b\"x\"); }";
        assert!(check_sources(&[("crates/server/src/x.rs", after)]).is_empty());
    }

    #[test]
    fn reacquisition_while_held_flagged() {
        let bad = "fn f(s: &S) { let a = s.state.lock(); let b = s.state.lock(); }";
        let v = check_sources(&[("crates/server/src/x.rs", bad)]);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("re-acquired"));
    }

    #[test]
    fn io_read_with_arguments_is_not_an_acquisition() {
        let good = "fn f(s: &mut TcpStream, buf: &mut [u8]) { let n = s.read(buf); }";
        assert!(check_sources(&[("crates/server/src/x.rs", good)]).is_empty());
        // …and tests may lock in any order.
        let test_code = "#[cfg(test)] mod tests { fn g(s: &S) { let b = s.ledger.lock(); let a = s.state.lock(); s.lp.solve(&m); } }";
        let ab = "fn f(s: &S) { let a = s.state.lock(); let b = s.ledger.lock(); }";
        assert!(check_sources(&[
            ("crates/server/src/a.rs", ab),
            ("crates/server/src/b.rs", test_code),
        ])
        .is_empty());
    }
}
