use std::sync::Mutex;

pub fn run_all(points: &[u32]) -> Vec<u32> {
    let out = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for &p in points {
            s.spawn(|| out.lock().map(|mut v| v.push(p)));
        }
    });
    out.into_inner().unwrap_or_default()
}
