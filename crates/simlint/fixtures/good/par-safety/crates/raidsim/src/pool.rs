// The one worker pool is the sanctioned home of synchronization.
use std::sync::Mutex;

pub fn run_indexed<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let out = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        s.spawn(|| out.lock().map(|mut v| v.extend((0..n).map(&f))));
    });
    out.into_inner().unwrap_or_default()
}
