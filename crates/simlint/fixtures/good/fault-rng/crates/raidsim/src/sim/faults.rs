// Scrub draws from a named substream of the plan, never a fresh one.
pub fn scrub_stream(plan: &FaultPlan, tag: u64) -> FaultRng {
    plan.stream(tag)
}
