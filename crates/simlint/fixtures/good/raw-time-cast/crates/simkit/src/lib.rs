pub mod time;

pub fn utilization(busy_ns: u64, elapsed_ns: u64) -> f64 {
    time::busy_fraction(busy_ns, elapsed_ns)
}
