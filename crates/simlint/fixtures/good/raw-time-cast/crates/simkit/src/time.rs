// simkit::time is the sanctioned unit boundary: raw casts live here.
pub fn busy_fraction(busy_ns: u64, elapsed_ns: u64) -> f64 {
    busy_ns as f64 / elapsed_ns as f64
}
