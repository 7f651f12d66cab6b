pub fn label(org: Organization) -> &'static str {
    match org {
        Organization::Mirror => "mirror",
        _ => "other",
    }
}
