use crate::config::Organization;

pub fn needs_parity(planner: &dyn OrgPlanner, _org: Organization) -> bool {
    planner.has_redundancy()
}
