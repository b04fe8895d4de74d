// Fixture: the disciplined twin of `publish/bad.rs` — only the
// differentially private fields reach the wire. Bare names, ranges and
// struct updates that merely share a diagnostic field's name stay legal.
pub fn encode_release(release: &Release) -> String {
    format!(
        "OK SCALAR noisy={} delta_hat={} epsilon={}",
        release.noisy_answer, release.delta_hat, release.epsilon_spent,
    )
}

pub fn widen(limits: Limits, x: usize, delta: usize) -> Limits {
    let mut total = 0;
    for step in 0..x {
        total += step + delta;
    }
    Limits { lines: total, ..limits }
}
