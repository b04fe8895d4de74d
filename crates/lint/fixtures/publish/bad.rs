// Fixture: seeded violations for `publish-confinement`. Linted as if it
// lived at `crates/server/src/encode.rs` (the server crate).
pub fn encode_release(release: &Release) -> String {
    // Every field after `noisy` is a diagnostic, not a DP value.
    format!(
        "OK SCALAR noisy={} true={} delta={} x={} argmin={}",
        release.noisy_answer,
        release.true_answer,
        release.delta,
        release.x,
        release.argmin_index,
    )
}
