// Fixture: seeded violations for `lock-order`. Linted as if it lived at
// `crates/server/src/convoy.rs`. Contains all three violation shapes:
// an ABBA cycle, blocking calls under a guard, and a re-acquisition.
pub fn forward(s: &Shared) {
    let state = s.state.lock();
    let ledger = s.ledger.lock();
    touch(state, ledger);
}

pub fn backward(s: &Shared) {
    // Opposite order from `forward`: classic ABBA deadlock shape.
    let ledger = s.ledger.lock();
    let state = s.state.lock();
    touch(state, ledger);
}

pub fn convoy(s: &Shared) {
    let model = s.model.lock();
    // An LP solve while holding the model lock stalls every other tenant.
    s.solver.solve(&model);
}

pub fn miss_under_guard(s: &Shared, sequences: EfficientSequences) {
    let cache = s.cache.lock();
    // Solving a miss's sequence table under the cache lock stalls every
    // lookup behind that query's LP chains.
    let computed = FrozenSequences::compute_with_seed(sequences, Parallelism::Serial);
    cache.insert(KEY, computed);
}

pub fn twice(s: &Shared) {
    let first = s.state.lock();
    let second = s.state.lock();
    touch(first, second);
}
