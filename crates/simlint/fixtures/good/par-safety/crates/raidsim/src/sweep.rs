pub fn run_all(points: &[u32]) -> Vec<u32> {
    crate::pool::run_indexed(points.len(), |i| points[i])
}
