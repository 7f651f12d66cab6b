pub struct Elevator;
impl DiskScheduler for Elevator {}

pub fn is_mirror(org: Organization) -> bool {
    matches!(org, Organization::Mirror)
}
