// Fixture: correct guard discipline is NOT flagged. `handoff` takes two
// locks, but the first guard is explicitly dropped before the second
// acquisition, so it never holds `a` while taking `b`. `refill` takes b
// then a; had the `drop` been missed, the two would close a cycle. The
// file produces zero diagnostics; tests/fixtures.rs pins the empty set.
// Never compiled.

pub fn handoff(s: &Shared) {
    let ga = s.a.lock();
    let item = ga.pop();
    drop(ga);
    let gb = s.b.lock();
    gb.push(item);
}

pub fn refill(s: &Shared) {
    let gb = s.b.lock();
    let ga = s.a.lock();
    ga.extend(gb.drain());
}
