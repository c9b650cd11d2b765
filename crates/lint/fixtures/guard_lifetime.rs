// Fixture: L-GUARD-LIFETIME — guards acquired in `if let` / `match`
// scrutinees stay live to the end of the whole construct (Rust 2021
// temporary lifetime rules), so a second acquisition inside the body
// overlaps even though the code *looks* like the guard is already gone.
// `copied_out` shows the fix shape: bind through a plain `let`, copy out,
// drop, then re-acquire — not flagged. Expected: L-GUARD-LIFETIME at the
// two scrutinee acquisitions only. Line numbers are pinned by
// tests/fixtures.rs. Never compiled.

impl Table {
    // The scrutinee guard overlaps the stats acquisition (that is the bug
    // this fixture pins).
    fn bump(&self) {
        if let Some(v) = self.map.read().get(&1) {
            self.stats.lock().push(*v);
        }
    }

    // Same shape through a match scrutinee.
    fn tally(&self) {
        match self.map.read().get(&1) {
            Some(v) => self.stats.lock().push(*v),
            None => {}
        }
    }

    // The plain `let` binding is dropped at the explicit `drop` before
    // stats is touched.
    fn copied_out(&self) {
        let g = self.map.read();
        let v = g.get(&1).copied();
        drop(g);
        if let Some(v) = v {
            self.stats.lock().push(v);
        }
    }
}
