// simkit::fault is the one place a FaultRng is constructed.
pub fn stream_of(seed: u64, tag: u64) -> FaultRng {
    FaultRng::new(splitmix64(seed ^ tag))
}
