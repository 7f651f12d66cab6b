// The runner is the one fleet file allowed to hold cross-VA machinery:
// fleet-boundary carves out fleet/run.rs. (Threads and synchronization
// still belong to the worker pool, so par-safety applies here as anywhere.)
use std::sync::Arc;

pub fn shared(n: usize) -> Arc<Vec<u32>> {
    Arc::new(vec![0; n])
}
