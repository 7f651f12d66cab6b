use crate::config::Organization;

pub fn can_escalate(org: Organization, map: &OrgMap) -> bool {
    org.has_redundancy() && map.disks_per_array() > 1
}
