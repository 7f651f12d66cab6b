// sim/mod.rs mints the per-disk streams once, at fault-state construction.
pub fn build_streams(plan: &FaultPlan, disks: u32) -> Vec<FaultRng> {
    (0..disks).map(|d| plan.latent_stream(d)).collect()
}
