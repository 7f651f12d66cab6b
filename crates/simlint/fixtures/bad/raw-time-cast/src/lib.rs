pub fn busy_fraction(busy_ns: u64, elapsed_ns: u64) -> f64 {
    busy_ns as f64 / elapsed_ns as f64
}

pub fn count(n: u64) -> f64 {
    n as f64
}
