// Fixture: ABBA deadlock through two sibling functions — `forward` takes
// a then b, `backward` takes b then a. Each function alone is fine, so
// only the *global* cycle check can reject this. Expected: exactly one
// L-DEADLOCK whose witnesses name both paths. Line numbers are pinned by
// tests/fixtures.rs. Never compiled.

// The forward path.
pub fn forward(s: &Shared) {
    let ga = s.a.lock();
    let gb = s.b.lock();
    ga.touch(gb);
}

// The backward path (inverted, hence the cycle).
pub fn backward(s: &Shared) {
    let gb = s.b.lock();
    let ga = s.a.lock();
    gb.touch(ga);
}
