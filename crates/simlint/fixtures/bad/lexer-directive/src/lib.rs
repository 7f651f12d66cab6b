pub fn spoof(deadline_ms: u64, blocks: u64) -> u64 {
    let _note = "simlint::allow(unit-safety): a string is not a directive";
    deadline_ms + blocks
}

pub fn lazy(deadline_ms: u64, blocks: u64) -> u64 {
    // simlint::allow(unit-safety)
    deadline_ms + blocks
}

// simlint::allow(par-safety): nothing below synchronizes any more
pub fn tidy(deadline_ms: u64, slack_ms: u64) -> u64 {
    deadline_ms + slack_ms
}
