//! Fixture corpus: every rule family catches its seeded violation, and
//! each fixture's clean twin — same virtual path, disciplined code — lints
//! clean. Fixtures live under `crates/lint/fixtures/` (excluded from the
//! workspace scan) and are linted here under *virtual* paths, so the
//! path-scoped rules see them exactly as they would see live code.

use rmdp_lint::{lint_files, FileContext, LintReport};

fn fixture(rel: &str) -> String {
    let path = format!("{}/fixtures/{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

fn lint_at(virtual_path: &str, rel: &str) -> LintReport {
    lint_files(&[FileContext::new(virtual_path, &fixture(rel))])
}

/// Asserts the bad fixture trips `rule` at least `min` times and nothing
/// else, and that its clean twin is violation-free.
fn assert_pair(virtual_path: &str, dir: &str, rule: &str, min: usize) {
    let bad = lint_at(virtual_path, &format!("{dir}/bad.rs"));
    assert!(
        bad.violations.len() >= min,
        "{dir}/bad.rs: expected >= {min} violations, got:\n{}",
        bad.render_text()
    );
    for v in &bad.violations {
        assert_eq!(
            v.rule,
            rule,
            "unexpected rule in {dir}/bad.rs:\n{}",
            bad.render_text()
        );
        assert_eq!(v.path, virtual_path);
        assert!(v.line > 0 && v.col > 0, "violations carry 1-based spans");
    }
    let clean = lint_at(virtual_path, &format!("{dir}/clean.rs"));
    assert!(
        clean.is_clean(),
        "{dir}/clean.rs should lint clean:\n{}",
        clean.render_text()
    );
}

#[test]
fn rng_confinement_catches_unsanctioned_call_sites() {
    // thread_rng + seed_from_u64 + two gen_range calls.
    assert_pair("crates/core/src/sampler.rs", "rng", "rng-confinement", 4);
}

#[test]
fn clock_confinement_catches_instant_and_system_time() {
    // Grouped import, Instant::now, std::time::SystemTime::now.
    assert_pair(
        "crates/runtime/src/timing.rs",
        "clock",
        "clock-confinement",
        3,
    );
}

#[test]
fn net_confinement_catches_listener_and_udp() {
    // TcpListener (import + bind) and UdpSocket (import + bind).
    let bad = lint_at("crates/runtime/src/side_channel.rs", "net/bad.rs");
    assert!(bad.violations.len() >= 4, "{}", bad.render_text());
    assert!(bad.violations.iter().all(|v| v.rule == "net-confinement"));
    // The clean twin lives at the sanctioned stream home — and the same
    // code anywhere else would be flagged.
    let clean = lint_at("crates/server/src/client.rs", "net/clean.rs");
    assert!(clean.is_clean(), "{}", clean.render_text());
    let misplaced = lint_at("crates/runtime/src/side_channel.rs", "net/clean.rs");
    assert!(
        !misplaced.is_clean(),
        "TcpStream outside the server crate must be flagged"
    );
}

#[test]
fn float_rules_catch_sort_eq_and_cast() {
    let bad = lint_at("crates/noise/src/scale.rs", "float/bad.rs");
    let rules: Vec<&str> = bad.violations.iter().map(|v| v.rule.as_str()).collect();
    assert!(rules.contains(&"float-total-cmp"), "{}", bad.render_text());
    assert!(rules.contains(&"float-eq"), "{}", bad.render_text());
    assert!(rules.contains(&"float-cast"), "{}", bad.render_text());
    let clean = lint_at("crates/noise/src/scale.rs", "float/clean.rs");
    assert!(clean.is_clean(), "{}", clean.render_text());
}

#[test]
fn panic_freedom_catches_the_request_path_idioms() {
    // Indexing, unwrap, expect, panic!.
    assert_pair("crates/server/src/handler.rs", "panic", "panic-freedom", 4);
}

#[test]
fn panic_fixture_is_ignored_off_the_request_path() {
    let elsewhere = lint_at("crates/graph/src/handler.rs", "panic/bad.rs");
    assert!(
        elsewhere
            .violations
            .iter()
            .all(|v| v.rule != "panic-freedom"),
        "{}",
        elsewhere.render_text()
    );
}

#[test]
fn lock_order_catches_cycle_convoy_and_reacquisition() {
    let bad = lint_at("crates/server/src/convoy.rs", "locks/bad.rs");
    let messages: Vec<&str> = bad.violations.iter().map(|v| v.message.as_str()).collect();
    assert!(
        messages.iter().any(|m| m.contains("cycle")),
        "{}",
        bad.render_text()
    );
    assert!(
        messages.iter().any(|m| m.contains("blocking call `solve(")),
        "{}",
        bad.render_text()
    );
    assert!(
        messages
            .iter()
            .any(|m| m.contains("blocking call `compute_with_seed(")),
        "{}",
        bad.render_text()
    );
    assert!(
        messages.iter().any(|m| m.contains("re-acquired")),
        "{}",
        bad.render_text()
    );
    assert!(bad.violations.iter().all(|v| v.rule == "lock-order"));
    let clean = lint_at("crates/server/src/convoy.rs", "locks/clean.rs");
    assert!(clean.is_clean(), "{}", clean.render_text());
}

#[test]
fn allow_audit_catches_unknown_unjustified_and_stale_directives() {
    let bad = lint_at("crates/noise/src/guard.rs", "allow/bad.rs");
    let audit: Vec<&rmdp_lint::Violation> = bad
        .violations
        .iter()
        .filter(|v| v.rule == "lint-allow")
        .collect();
    assert_eq!(audit.len(), 3, "{}", bad.render_text());
    assert!(audit.iter().any(|v| v.message.contains("unknown rule")));
    assert!(audit.iter().any(|v| v.message.contains("no justification")));
    assert!(audit
        .iter()
        .any(|v| v.message.contains("suppresses nothing")));
    // The two float-eq findings the broken directives failed to cover.
    assert_eq!(
        bad.violations
            .iter()
            .filter(|v| v.rule == "float-eq")
            .count(),
        2,
        "{}",
        bad.render_text()
    );
    assert!(bad.suppressed.is_empty());

    let clean = lint_at("crates/noise/src/guard.rs", "allow/clean.rs");
    assert!(clean.is_clean(), "{}", clean.render_text());
    assert_eq!(clean.suppressed.len(), 1);
    assert_eq!(
        clean.suppressed[0].justification,
        "exact zero-scale short-circuit is intentional"
    );
}
