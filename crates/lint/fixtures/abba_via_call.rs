// Fixture: ABBA composed through the call graph — `refresh` never touches
// `data` directly; it holds `meta` across a call to `reload`, which
// acquires `data`. `writeback` takes data then meta. The cycle only exists
// after interprocedural composition, and the witness must say so
// (`via call to ...`). Expected: exactly one L-DEADLOCK. Line numbers are
// pinned by tests/fixtures.rs. Never compiled.

impl Store {
    // reload pulls fresh data while the meta guard pins the epoch.
    fn refresh(&self) {
        let m = self.meta.lock();
        self.reload();
        drop(m);
    }

    fn reload(&self) {
        let d = self.data.lock();
        d.repopulate();
    }

    // writeback stamps metadata under the data guard (inverted relative
    // to refresh, hence the cycle).
    fn writeback(&self) {
        let d = self.data.lock();
        let m = self.meta.lock();
        m.stamp(d);
    }
}
