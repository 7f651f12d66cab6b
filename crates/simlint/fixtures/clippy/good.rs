//! The sanctioned forms: an ordered collection and a justified `expect`.
//! Linted by `tests/clippy_bans.rs`, which requires it to be clean both as
//! a library and as a test crate, where `allow-unwrap-in-tests` and
//! `allow-expect-in-tests` exempt the test module; not part of any crate.

use std::collections::BTreeMap;

pub fn ordered() -> BTreeMap<u32, u32> {
    BTreeMap::new()
}

pub fn first_key(m: &BTreeMap<u32, u32>) -> u32 {
    #[expect(clippy::expect_used, reason = "callers only pass non-empty maps")]
    let (k, _) = m.first_key_value().expect("non-empty map");
    *k
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap_and_expect() {
        let mut m = super::ordered();
        m.insert(1, 2);
        assert_eq!(super::first_key(&m), 1);
        assert_eq!(m.get(&1).copied().unwrap(), 2);
        assert_eq!(m.get(&1).copied().expect("present"), 2);
    }
}
