//! The rule families and the driver that runs them over a file set.
//!
//! Every rule works on the token stream of [`FileContext`] — no type
//! information, no macro expansion. That makes each rule a *sound-by-
//! convention* check: it matches the shapes this workspace actually uses
//! (fully-qualified `std::time::Instant` paths, `.lock()`/`.read()`/
//! `.write()` guard bindings, `StdRng::seed_from_u64` construction) and the
//! fixture corpus plus the live-workspace self-check pin down both
//! directions. Known limits are documented per rule; the escape hatch for
//! a justified exception is a `lint:allow` directive, never a weaker rule.

mod confine;
mod float;
mod locks;
mod panic_free;

use crate::context::FileContext;
use crate::lexer::{Token, TokenKind};
use crate::report::Violation;

/// A rule family's id and one-line summary (used by `--list` and docs).
#[derive(Clone, Copy, Debug)]
pub struct RuleInfo {
    /// Kebab-case rule id, as named in `lint:allow(<id>)`.
    pub id: &'static str,
    /// One-line description of what the rule enforces.
    pub summary: &'static str,
}

/// Every rule the tool knows, including the meta-rule that audits the
/// `lint:allow` directives themselves.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "rng-confinement",
        summary: "RNG construction and raw sampling only at sanctioned seeded call sites; \
                  nondeterministic entropy sources banned everywhere",
    },
    RuleInfo {
        id: "clock-confinement",
        summary: "std::time::{Instant, SystemTime} confined to crates/observe/src/clock.rs",
    },
    RuleInfo {
        id: "net-confinement",
        summary: "TcpListener confined to crates/server/src/protocol.rs; TcpStream to the \
                  server crate's protocol/client modules",
    },
    RuleInfo {
        id: "publish-confinement",
        summary: "a release's diagnostic fields (true_answer, argmin_index, .delta, .x) \
                  banned in crates/server/src non-test code",
    },
    RuleInfo {
        id: "float-total-cmp",
        summary: "partial_cmp().unwrap()/expect() banned workspace-wide; use f64::total_cmp",
    },
    RuleInfo {
        id: "float-eq",
        summary: "float-literal ==/!= comparisons banned in budget/noise arithmetic",
    },
    RuleInfo {
        id: "float-cast",
        summary: "lossy narrowing `as` casts banned in budget/noise arithmetic",
    },
    RuleInfo {
        id: "panic-freedom",
        summary: "unwrap/expect/panic!/assert!/indexing banned on the server request path",
    },
    RuleInfo {
        id: "lock-order",
        summary: "lock acquisition graph must be acyclic; no lock held across LP solves or \
                  network I/O; no lock re-acquired while held",
    },
    RuleInfo {
        id: "lint-allow",
        summary: "every lint:allow directive must name a known rule, carry a justification, \
                  and suppress something",
    },
];

/// Whether `id` names a known rule (excluding the meta-rule, which cannot
/// itself be suppressed).
pub fn is_known_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id && r.id != "lint-allow")
}

/// Runs every rule over `files` and returns the raw violations, before
/// `lint:allow` suppression is applied ([`crate::lint_files`] owns that
/// step so suppressions are recorded centrally).
pub fn check_files(files: &[FileContext]) -> Vec<Violation> {
    let mut out = Vec::new();
    for ctx in files {
        confine::check_rng(ctx, &mut out);
        confine::check_clock(ctx, &mut out);
        confine::check_net(ctx, &mut out);
        confine::check_publish(ctx, &mut out);
        float::check_total_cmp(ctx, &mut out);
        float::check_float_eq(ctx, &mut out);
        float::check_float_cast(ctx, &mut out);
        panic_free::check(ctx, &mut out);
    }
    locks::check(files, &mut out);
    out.sort_by(|a, b| (&a.path, a.line, a.col, &a.rule).cmp(&(&b.path, b.line, b.col, &b.rule)));
    out
}

/// Builds a violation anchored at token `t`.
pub(crate) fn violation(ctx: &FileContext, t: &Token, rule: &str, message: String) -> Violation {
    Violation {
        rule: rule.to_owned(),
        path: ctx.path.clone(),
        line: t.line,
        col: t.col,
        message,
    }
}

/// The token before `i`, if any.
pub(crate) fn prev(tokens: &[Token], i: usize) -> Option<&Token> {
    i.checked_sub(1).and_then(|j| tokens.get(j))
}

/// Whether tokens starting at `i` spell the identifier/punct sequence in
/// `pattern` (multi-byte operators are written as consecutive single-byte
/// entries, e.g. `::` is `":", ":"`).
pub(crate) fn seq_matches(tokens: &[Token], i: usize, pattern: &[&str]) -> bool {
    pattern.iter().enumerate().all(|(k, want)| {
        tokens.get(i + k).is_some_and(|t| match t.kind {
            TokenKind::Ident => t.text == *want,
            TokenKind::Punct => t.text == *want,
            _ => false,
        })
    })
}

/// Index of the token closing the group opened at `open` (`(`→`)` etc.),
/// if the group is balanced.
pub(crate) fn matching(
    tokens: &[Token],
    open: usize,
    open_ch: char,
    close_ch: char,
) -> Option<usize> {
    let mut depth = 0i64;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(open_ch) {
            depth += 1;
        } else if t.is_punct(close_ch) {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}
