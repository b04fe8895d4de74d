//! Confinement rules: randomness, clocks and sockets may each live only in
//! their sanctioned home, because each one is a channel through which
//! nondeterminism or untracked side effects could leak into a release. The
//! fields of a release that are not differentially private are confined
//! too: the server crate, which answers tenants, may not read them.

use super::{prev, seq_matches, violation};
use crate::context::FileContext;
use crate::report::Violation;

/// Crates whose non-test code sits on (or under) the release path: a stray
/// RNG there could break bit-identical replay. `rmdp-noise` itself is the
/// sanctioned sampling home (its functions take a caller-seeded `Rng`);
/// `graph`, `baselines` and `experiments` are offline harnesses seeded at
/// their top level.
const RNG_CONFINED: &[&str] = &[
    "core",
    "sql",
    "server",
    "krelation",
    "lp",
    "runtime",
    "observe",
];

/// Entropy sources that are nondeterministic by construction. Banned in
/// *all* code, tests included: a test that passes under one entropy draw
/// and fails under another is flaky by design.
const NONDETERMINISTIC: &[&str] = &["thread_rng", "from_entropy", "OsRng", "ThreadRng"];

/// Seeded-construction entry points: fine in tests and harnesses, but in
/// confined crates every generator must descend from the session's logged
/// seed schedule, so fresh construction needs a sanctioned (allow-listed)
/// call site.
const CONSTRUCTORS: &[&str] = &["seed_from_u64", "from_seed", "from_rng"];

/// Raw sampling methods. In confined crates all sampling must flow through
/// `rmdp-noise`'s distribution functions, which own the replay-stable
/// rejection loops and NaN guards.
const RAW_SAMPLING: &[&str] = &[
    "gen",
    "gen_range",
    "gen_bool",
    "gen_ratio",
    "sample",
    "sample_iter",
    "fill_bytes",
    "next_u32",
    "next_u64",
];

/// Randomness confinement (`rng-confinement`).
pub fn check_rng(ctx: &FileContext, out: &mut Vec<Violation>) {
    let in_confined = RNG_CONFINED.iter().any(|c| ctx.in_crate_src(c));
    for (i, t) in ctx.tokens.iter().enumerate() {
        if t.kind != crate::lexer::TokenKind::Ident {
            continue;
        }
        if NONDETERMINISTIC.contains(&t.text.as_str()) {
            out.push(violation(
                ctx,
                t,
                "rng-confinement",
                format!(
                    "`{}` is a nondeterministic entropy source; every draw must descend \
                     from the seeded, replay-logged sampler paths",
                    t.text
                ),
            ));
            continue;
        }
        if !in_confined || ctx.is_test(i) {
            continue;
        }
        if CONSTRUCTORS.contains(&t.text.as_str()) {
            out.push(violation(
                ctx,
                t,
                "rng-confinement",
                format!(
                    "RNG construction (`{}`) outside a sanctioned call site; seed \
                     derivation on the release path must be confined so replay stays \
                     bit-identical",
                    t.text
                ),
            ));
            continue;
        }
        // Raw sampling: a method call `.gen(…)` / `.gen::<T>(…)` / `.sample(…)`.
        if RAW_SAMPLING.contains(&t.text.as_str())
            && prev(&ctx.tokens, i).is_some_and(|p| p.is_punct('.'))
            && ctx
                .tokens
                .get(i + 1)
                .is_some_and(|n| n.is_punct('(') || n.is_punct(':'))
        {
            out.push(violation(
                ctx,
                t,
                "rng-confinement",
                format!(
                    "raw sampling call `.{}(…)`; sampling on the release path must go \
                     through rmdp-noise's distribution functions",
                    t.text
                ),
            ));
        }
    }
}

/// The single file allowed to read a wall clock.
const CLOCK_HOME: &str = "crates/observe/src/clock.rs";

/// Clock confinement (`clock-confinement`): subsumes the old CI grep for
/// `std::time::(Instant|SystemTime)` and is stricter — it also catches
/// grouped imports (`use std::time::{Duration, Instant}`) and bare
/// `Instant::…` path uses, and it narrows the sanctioned surface from the
/// whole observe crate to `clock.rs`.
pub fn check_clock(ctx: &FileContext, out: &mut Vec<Violation>) {
    if ctx.path == CLOCK_HOME {
        return;
    }
    let clocky = |name: &str| name == "Instant" || name == "SystemTime";
    let mut i = 0;
    while i < ctx.tokens.len() {
        // Fully-qualified path or `std::time::{…}` group.
        if seq_matches(&ctx.tokens, i, &["std", ":", ":", "time", ":", ":"]) {
            let after = i + 6;
            if let Some(t) = ctx.tokens.get(after) {
                if clocky(&t.text) {
                    out.push(clock_violation(ctx, t));
                    i = after + 1;
                    continue;
                }
                if t.is_punct('{') {
                    if let Some(close) = super::matching(&ctx.tokens, after, '{', '}') {
                        for t in &ctx.tokens[after..close] {
                            if clocky(&t.text) {
                                out.push(clock_violation(ctx, t));
                            }
                        }
                        i = close + 1;
                        continue;
                    }
                }
            }
        }
        // Bare `Instant::…` / `SystemTime::…` (reachable only via an import,
        // which is itself flagged — this catches the uses too).
        let t = &ctx.tokens[i];
        if clocky(&t.text) && seq_matches(&ctx.tokens, i + 1, &[":", ":"]) {
            out.push(clock_violation(ctx, t));
        }
        i += 1;
    }
}

fn clock_violation(ctx: &FileContext, t: &crate::lexer::Token) -> Violation {
    violation(
        ctx,
        t,
        "clock-confinement",
        format!(
            "`{}` outside {CLOCK_HOME}; all wall-clock reads go through \
             rmdp_observe::Clock so telemetry stays mockable and deterministic",
            t.text
        ),
    )
}

/// Network confinement (`net-confinement`): subsumes the old CI grep for
/// `TcpListener` outside `crates/server/` and is stricter — listeners are
/// pinned to `protocol.rs` (the one module whose shutdown discipline closes
/// them), streams to the server crate's wire modules, and `UdpSocket` has
/// no sanctioned home at all.
pub fn check_net(ctx: &FileContext, out: &mut Vec<Violation>) {
    for t in &ctx.tokens {
        let (allowed, why): (&[&str], &str) = match t.text.as_str() {
            "TcpListener" => (
                &["crates/server/src/protocol.rs"],
                "all listening sockets must answer to ServerHandle's shutdown/drain \
                 discipline",
            ),
            "TcpStream" => (
                &[
                    "crates/server/src/protocol.rs",
                    "crates/server/src/client.rs",
                ],
                "wire connections live in the server crate's protocol/client modules",
            ),
            "UdpSocket" => (&[], "the workspace has no sanctioned UDP surface"),
            _ => continue,
        };
        if t.kind == crate::lexer::TokenKind::Ident && !allowed.contains(&ctx.path.as_str()) {
            out.push(violation(
                ctx,
                t,
                "net-confinement",
                format!("`{}` outside its sanctioned module: {why}", t.text),
            ));
        }
    }
}

/// Fields of `rmdp_core::Release` that are not differentially private and
/// whose names are distinctive enough to flag wherever they appear.
const UNPUBLISHABLE: &[&str] = &["true_answer", "argmin_index"];

/// The release's other diagnostic fields. Their names are common words, so
/// they are flagged only as field accesses (`.delta`, `.x`).
const UNPUBLISHABLE_FIELDS: &[&str] = &["delta", "x"];

/// Publish confinement (`publish-confinement`): the server crate's non-test
/// code may not touch a release's diagnostic fields, so no encoder change
/// can put one on the wire. A token rule sees names, not types: a field
/// read through a rename (a destructuring binding, a getter defined in
/// another crate) passes unseen. Splitting the release type so the server
/// never holds the diagnostics closes that gap.
pub fn check_publish(ctx: &FileContext, out: &mut Vec<Violation>) {
    if !ctx.in_crate_src("server") {
        return;
    }
    let tokens = &ctx.tokens;
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != crate::lexer::TokenKind::Ident || ctx.is_test(i) {
            continue;
        }
        // `.x` but not the range or struct-update `..x`.
        let field_access = prev(tokens, i).is_some_and(|p| p.is_punct('.'))
            && !i
                .checked_sub(2)
                .and_then(|j| tokens.get(j))
                .is_some_and(|p| p.is_punct('.'));
        if UNPUBLISHABLE.contains(&t.text.as_str())
            || (field_access && UNPUBLISHABLE_FIELDS.contains(&t.text.as_str()))
        {
            out.push(violation(
                ctx,
                t,
                "publish-confinement",
                format!(
                    "`{}` is a diagnostic field of a release, not a differentially \
                     private value; the server crate answers tenants and may not read it",
                    t.text
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_all(path: &str, src: &str) -> Vec<Violation> {
        let ctx = FileContext::new(path, src);
        let mut out = Vec::new();
        check_rng(&ctx, &mut out);
        check_clock(&ctx, &mut out);
        check_net(&ctx, &mut out);
        check_publish(&ctx, &mut out);
        out
    }

    #[test]
    fn thread_rng_is_banned_even_in_tests() {
        let v = check_all(
            "tests/something.rs",
            "fn f() { let mut r = rand::thread_rng(); }",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "rng-confinement");
    }

    #[test]
    fn seeded_construction_flagged_only_in_confined_nontest_code() {
        let bad = "fn f() { let r = StdRng::seed_from_u64(1); }";
        assert_eq!(check_all("crates/core/src/x.rs", bad).len(), 1);
        assert_eq!(check_all("crates/experiments/src/x.rs", bad).len(), 0);
        let in_test = format!("#[cfg(test)] mod tests {{ {bad} }}");
        assert_eq!(check_all("crates/core/src/x.rs", &in_test).len(), 0);
    }

    #[test]
    fn raw_sampling_needs_the_noise_crate() {
        let bad = "fn f(r: &mut R) { let x: f64 = r.gen_range(0.0..1.0); }";
        assert_eq!(check_all("crates/krelation/src/x.rs", bad).len(), 1);
        assert_eq!(check_all("crates/noise/src/x.rs", bad).len(), 0);
        // `gen` as a plain identifier (not a method call) is fine.
        assert_eq!(
            check_all("crates/core/src/x.rs", "fn f() { let gen = 3; }").len(),
            0
        );
    }

    #[test]
    fn clock_paths_are_confined_to_clock_rs() {
        let qualified = "fn f() { let t = std::time::Instant::now(); }";
        let grouped = "use std::time::{Duration, Instant};";
        let bare_use = "use std::time::Instant;\nfn f() { let t = Instant::now(); }";
        assert!(!check_all("crates/sql/src/x.rs", qualified).is_empty());
        assert!(!check_all("crates/sql/src/x.rs", grouped).is_empty());
        assert_eq!(check_all("crates/sql/src/x.rs", bare_use).len(), 2);
        assert!(check_all("crates/observe/src/clock.rs", qualified).is_empty());
        // Duration alone is not a clock read.
        assert!(check_all("crates/sql/src/x.rs", "use std::time::Duration;").is_empty());
    }

    #[test]
    fn sockets_are_confined() {
        let listener = "use std::net::TcpListener;";
        assert!(!check_all("crates/runtime/src/x.rs", listener).is_empty());
        assert!(check_all("crates/server/src/protocol.rs", listener).is_empty());
        let stream = "use std::net::TcpStream;";
        assert!(!check_all("crates/sql/src/x.rs", stream).is_empty());
        assert!(check_all("crates/server/src/client.rs", stream).is_empty());
    }

    #[test]
    fn diagnostic_fields_are_confined_out_of_the_server() {
        let leak = "fn f(r: &Release) -> f64 { r.true_answer + r.delta + r.x }";
        assert_eq!(check_all("crates/server/src/x.rs", leak).len(), 3);
        assert!(check_all("crates/sql/src/x.rs", leak).is_empty());
        let argmin = "fn f(r: &Release) -> usize { r.argmin_index }";
        assert_eq!(check_all("crates/server/src/x.rs", argmin).len(), 1);
        // Bare names, ranges and struct updates are not field reads.
        let clean = "fn f(x: f64, delta: f64, s: S) -> S { for _ in 0..x {} S { ..s } }";
        assert!(check_all("crates/server/src/x.rs", clean).is_empty());
        let in_test = format!("#[cfg(test)] mod tests {{ {leak} }}");
        assert!(check_all("crates/server/src/x.rs", &in_test).is_empty());
    }
}
