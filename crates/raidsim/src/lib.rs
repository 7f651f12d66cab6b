//! # raidsim — trace-driven simulation of redundant disk array organizations
//!
//! Reproduction of Mourad, Fuchs & Saab, *"Performance of Redundant Disk
//! Array Organizations in Transaction Processing Environments"* (ICPP 1993):
//! an event-driven I/O subsystem simulator comparing **Base** (independent
//! disks), **Mirror**, **RAID5**, **RAID4 with parity caching**, and
//! **Parity Striping**, with and without a non-volatile controller cache,
//! driven by OLTP I/O traces.
//!
//! ```
//! use raidsim::{Organization, SimConfig, Simulator};
//! use tracegen::SynthSpec;
//!
//! let trace = SynthSpec::trace2().scaled(0.002).generate();
//! let cfg = SimConfig::with_organization(Organization::Raid5 { striping_unit: 1 });
//! let report = Simulator::new(cfg, &trace).run();
//! assert!(report.requests_completed > 0);
//! assert!(report.mean_response_ms() > 0.0);
//! ```
//!
//! The model accounts for all channel and disk effects and ignores CPU and
//! controller processing time, as the paper does (Section 3.2): seek times
//! from the calibrated Table 1 curve, rotational position tracking,
//! per-disk queueing with the five parity-synchronization policies of
//! Section 3.3, channel contention with track buffering, and — in cached
//! configurations — LRU caching with old-data retention, periodic destage,
//! and RAID4 parity spooling.

pub mod analytic;
pub mod config;
pub mod fleet;
pub mod mapping;
mod pool;
pub mod report;
pub mod sim;
pub mod sweep;

pub use config::{
    CacheConfig, DiskFailure, FaultConfig, ObservabilityConfig, Organization, ParityPlacement,
    SimConfig, SparingMode, SyncPolicy,
};
pub use diskmodel::Discipline;
pub use fleet::{
    allocate, run_fleet, DiskClass, FleetConfig, FleetPlan, FleetReport, TenantReport, TenantSpec,
    VaPlan, VaReport, VirtualArraySpec,
};
pub use report::{
    ClassReport, FaultReport, PhaseSample, PhaseWelfords, ReliabilityReport, SchedulerReport,
    SimReport,
};
pub use sim::{PartStats, RunStats, Simulator, WarmDisks};
pub use sweep::{run_all, NamedRun};
