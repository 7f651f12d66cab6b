pub fn scrub_stream(plan: &FaultPlan, disk: u32) -> FaultRng {
    plan.latent_stream(disk)
}

pub fn ad_hoc(seed: u64) -> FaultRng {
    FaultRng::new(seed)
}
