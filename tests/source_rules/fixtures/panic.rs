// Fixture: L-PANIC. Line numbers are pinned by tests/source_rules.rs —
// keep both in sync. Never compiled.

pub fn bad_unwrap(x: Option<u8>) -> u8 {
    x.unwrap()
}

pub fn bare_expect(x: Option<u8>) -> u8 {
    x.expect("set by caller")
}

pub fn commented_expect(x: Option<u8>) -> u8 {
    // Invariant: every caller checks is_some first.
    x.expect("checked by caller")
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap() {
        Some(2).unwrap();
    }
}
