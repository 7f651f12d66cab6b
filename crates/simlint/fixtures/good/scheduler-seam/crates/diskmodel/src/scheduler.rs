pub struct Elevator;
impl DiskScheduler for Elevator {}
