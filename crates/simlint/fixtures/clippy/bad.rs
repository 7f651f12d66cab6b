//! Every determinism ban that lives in clippy, once each. Linted by
//! `tests/clippy_bans.rs`, which pins each warning to its line through
//! `expected.txt`; not part of any crate.

pub fn hash_map() -> std::collections::HashMap<u32, u32> {
    Default::default()
}

pub fn hash_set() -> std::collections::HashSet<u32> {
    Default::default()
}

pub fn wall_clock() -> std::time::Duration {
    std::time::Instant::now().elapsed()
}

pub fn calendar() -> std::time::SystemTime {
    std::time::SystemTime::now()
}

pub fn env_reads() -> usize {
    let a = std::env::var("SEED").is_ok();
    let b = std::env::var_os("SEED").is_some();
    std::env::vars().count() + std::env::vars_os().count() + usize::from(a && b)
}

pub fn panics(x: Option<u32>) -> u32 {
    x.unwrap() + x.expect("present")
}

#[expect(clippy::expect_used, reason = "nothing here calls expect any more")]
pub fn stale_escape() -> u32 {
    1
}
