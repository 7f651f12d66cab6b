//! # simlint — the determinism & seam lints clippy cannot express
//!
//! The paper's organization comparisons (Tables 3/4) are only meaningful
//! because the trace-driven simulation is exactly reproducible: the same
//! trace and seed must yield the same figures. The Rust compiler cannot
//! enforce that alone. Clippy checks the bans it can resolve by path:
//! `clippy.toml` forbids `HashMap`/`HashSet`, `Instant::now`,
//! `SystemTime::now` and environment reads, and the workspace lints
//! `unwrap_used`/`expect_used` carry the library panic policy. This tool
//! checks the six invariants that are about *where* code lives or what an
//! identifier *means*, which no clippy lint expresses, over every `.rs`
//! file in the sim-core crates (plus two meta-rules about the escape
//! hatch itself):
//!
//! 1. **`raw-time-cast`** — no `as`-casts on identifiers that name times
//!    or durations (`*_ns`, `*_ms`, `*_us`, `*time*`, `tick`, `now`,
//!    `deadline`) outside `simkit::time`: the `SimTime` newtype and its
//!    helpers are the only sanctioned unit boundary.
//! 2. **`fault-rng`** — no `FaultRng::new` outside `simkit::fault`, and no
//!    stream minting (`latent_stream`, the `splitmix64` mixer) outside the
//!    fault-stream boundary: fault randomness must be drawn as named
//!    substreams of a `FaultPlan` (`plan.stream(tag)`) built once at
//!    fault-state construction, so two consumers can never share — or
//!    reorder draws from — one generator, and mid-run code (scrub,
//!    sparing, rebuild) can never re-mint a stream and replay its draws.
//! 3. **`scheduler-seam`** — the layered-core seams stay sealed:
//!    `DiskScheduler` implementations live only in `diskmodel`, and
//!    `Organization::` variant dispatch appears only in `raidsim`'s
//!    config, report, and mapping modules. Everything else must go
//!    through the `mapping::OrgMap` the simulator holds, an
//!    `Organization` method, or the `DiskScheduler` trait, so a new
//!    organization is one `Organization` plus one `OrgMap` variant and a
//!    new discipline is one impl — not a sweep for stray `match` arms.
//! 4. **`par-safety`** — no shared mutable state between independent
//!    units: synchronization primitives (`Mutex`, `RwLock`, `Condvar`,
//!    atomics, `mpsc` channels, `static mut`, `unsafe impl`,
//!    `thread::spawn`/`thread::scope`) appear only in the one worker pool
//!    (`raidsim/src/pool.rs`). Units (sweep points, fleet virtual arrays)
//!    hand back owned results that the pool returns in index order —
//!    anything else would let scheduling races reach the statistics and
//!    break byte-identical replay.
//! 5. **`unit-safety`** — no `+`/`-` arithmetic that mixes a
//!    time-suffixed identifier (`*_ns`, `*_us`, `*_ms`, `*time*`) with a
//!    block/byte/count identifier outside `simkit::time`: adding a
//!    latency to a block count type-checks (both are `u64`) but is always
//!    a unit error.
//! 6. **`fleet-boundary`** — virtual arrays exchange state only through
//!    returned outcomes merged in VA index order, so fleet-interior
//!    files (`raidsim/src/fleet/` except `run.rs`) must stay plain
//!    owned data: shared-ownership and interior-mutability types
//!    (`Rc`, `Arc`, `RefCell`, `Cell`, `UnsafeCell`) are flagged there.
//!
//! A site can opt out with a justified annotation on the same line or the
//! line directly above:
//!
//! ```text
//! // simlint::allow(unit-safety): blocks is a pre-scaled ms contribution here
//! ```
//!
//! An annotation without a reason, or naming no surviving rule, is itself
//! a diagnostic (`malformed-allow`), and an annotation that suppresses
//! nothing is reported as `unused-allow` so stale escapes cannot
//! accumulate.
//!
//! `syn` is unavailable in this offline workspace, so the analysis runs on
//! a purpose-built lexer ([`lexer`]): comments, string/char literals, and
//! lifetimes are stripped exactly, `#[cfg(test)]`/`#[test]` items are
//! skipped, and the rules match on the remaining token stream. That is
//! deliberately simpler than type resolution — and catches exactly the
//! textual forms that have bitten simulator reproducibility in practice.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

mod lexer;
mod sarif;

use lexer::Token;
pub use sarif::to_sarif;

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

/// The six determinism/architecture invariants, plus the two meta-rules
/// about the escape-hatch annotations themselves.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    RawTimeCast,
    FaultRng,
    SchedulerSeam,
    ParSafety,
    UnitSafety,
    FleetBoundary,
    MalformedAllow,
    UnusedAllow,
}

pub const RULES: [Rule; 8] = [
    Rule::RawTimeCast,
    Rule::FaultRng,
    Rule::SchedulerSeam,
    Rule::ParSafety,
    Rule::UnitSafety,
    Rule::FleetBoundary,
    Rule::MalformedAllow,
    Rule::UnusedAllow,
];

impl Rule {
    pub fn name(self) -> &'static str {
        match self {
            Rule::RawTimeCast => "raw-time-cast",
            Rule::FaultRng => "fault-rng",
            Rule::SchedulerSeam => "scheduler-seam",
            Rule::ParSafety => "par-safety",
            Rule::UnitSafety => "unit-safety",
            Rule::FleetBoundary => "fleet-boundary",
            Rule::MalformedAllow => "malformed-allow",
            Rule::UnusedAllow => "unused-allow",
        }
    }

    pub fn from_name(s: &str) -> Option<Rule> {
        RULES.iter().copied().find(|r| r.name() == s)
    }

    pub fn hint(self) -> &'static str {
        match self {
            Rule::RawTimeCast => {
                "keep times in SimTime and cross units via simkit::time \
                 (from_ns/as_ns/ns_to_ms/busy_fraction) instead of raw `as` casts"
            }
            Rule::FaultRng => {
                "derive fault randomness as a named substream of the plan \
                 (`plan.stream(tag)`) minted once at fault-state construction; only \
                 simkit::fault may construct FaultRng directly, and only the \
                 fault-stream boundary (simkit::fault, raidsim sim/mod.rs) may mint \
                 streams (latent_stream, splitmix64)"
            }
            Rule::SchedulerSeam => {
                "dispatch through the layer traits: implement DiskScheduler in \
                 crates/diskmodel, and match Organization:: only in raidsim's config, \
                 report, or mapping modules (address questions go through the \
                 simulator's OrgMap; add an OrgMap or Organization method instead)"
            }
            Rule::ParSafety => {
                "independent units must not share mutable state: synchronization primitives \
                 (Mutex/RwLock/Condvar, atomics, mpsc, static mut, unsafe impl, \
                 thread::spawn/scope) live only in raidsim's pool.rs worker pool; \
                 everything else hands back owned results merged in index order"
            }
            Rule::UnitSafety => {
                "adding or subtracting a time quantity and a block/byte/count quantity is a \
                 unit error even though both are plain integers; convert through the \
                 simkit::time helpers (or rename the identifier if its suffix lies)"
            }
            Rule::FleetBoundary => {
                "virtual arrays exchange state only through returned outcomes merged in \
                 VA index order; shared-ownership and interior-mutability types \
                 (Rc/Arc/RefCell/Cell/UnsafeCell) in the fleet layer outside fleet/run.rs \
                 would let cross-VA state bypass that merge and break the byte-identical \
                 serial/parallel guarantee"
            }
            Rule::MalformedAllow => {
                "write `// simlint::allow(<rule>): <reason>` — the rule must exist and the \
                 reason must be non-empty"
            }
            Rule::UnusedAllow => "this annotation suppresses nothing; remove it",
        }
    }

    /// Default enforcement level before CLI overrides.
    pub fn default_level(self) -> Level {
        match self {
            Rule::UnusedAllow => Level::Warn,
            _ => Level::Deny,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    Allow,
    Warn,
    Deny,
}

impl Level {
    pub fn name(self) -> &'static str {
        match self {
            Level::Allow => "allow",
            Level::Warn => "warn",
            Level::Deny => "deny",
        }
    }
}

/// Per-run configuration: enforcement level per rule.
#[derive(Clone, Debug)]
pub struct Config {
    levels: BTreeMap<Rule, Level>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            levels: RULES.iter().map(|&r| (r, r.default_level())).collect(),
        }
    }
}

impl Config {
    pub fn level(&self, rule: Rule) -> Level {
        self.levels[&rule]
    }

    pub fn set_level(&mut self, rule: Rule, level: Level) {
        self.levels.insert(rule, level);
    }

    pub fn set_all(&mut self, level: Level) {
        for r in RULES {
            self.levels.insert(r, level);
        }
    }
}

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
pub struct Diagnostic {
    pub rule: Rule,
    pub level: Level,
    pub file: String,
    /// 1-based.
    pub line: u32,
    /// 1-based.
    pub col: u32,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}[{}]: {}:{}:{}",
            self.level.name(),
            self.rule.name(),
            self.file,
            self.line,
            self.col
        )?;
        writeln!(f, "  |  {}", self.snippet)?;
        write!(f, "  = help: {}", self.rule.hint())
    }
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Render diagnostics as a JSON array (machine-readable `--format json`).
pub fn to_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"rule\":\"{}\",\"level\":\"{}\",\"file\":\"{}\",\"line\":{},\"col\":{},\
             \"snippet\":\"{}\",\"hint\":\"{}\"}}",
            d.rule.name(),
            d.level.name(),
            json_escape(&d.file),
            d.line,
            d.col,
            json_escape(&d.snippet),
            json_escape(d.rule.hint())
        ));
    }
    out.push_str("\n]");
    out
}

// ---------------------------------------------------------------------------
// #[cfg(test)] / #[test] item skipping
// ---------------------------------------------------------------------------

/// Token-index ranges covered by test-only items (`#[cfg(test)] mod … { }`,
/// `#[test] fn … { }`), which every rule exempts.
fn test_item_ranges(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            if let Some(attr_end) = matching(tokens, i + 1, '[', ']') {
                if attr_is_test(&tokens[i + 2..attr_end]) {
                    let end = skip_item(tokens, attr_end + 1);
                    ranges.push((i, end));
                    i = end;
                    continue;
                }
                i = attr_end + 1;
                continue;
            }
        }
        i += 1;
    }
    ranges
}

/// Does the attribute body mark a test item? Matches `test`,
/// `cfg(test)`, and `cfg(any(test, …))`. A `test` inside `not(…)` does
/// not count: `cfg(not(test))` marks production-only code, which every
/// rule must still see.
fn attr_is_test(body: &[Token]) -> bool {
    match body.first().and_then(|t| t.ident()) {
        Some("test") => true,
        Some("cfg") => {
            // One entry per open group: was it opened by `not`?
            let mut negated: Vec<bool> = Vec::new();
            let mut after_not = false;
            for t in body {
                if t.is_punct('(') {
                    negated.push(after_not);
                } else if t.is_punct(')') {
                    negated.pop();
                } else if t.ident() == Some("test") && !negated.contains(&true) {
                    return true;
                }
                after_not = t.ident() == Some("not");
            }
            false
        }
        _ => false,
    }
}

/// Find the index of the punct closing the group opened at `open_idx`.
fn matching(tokens: &[Token], open_idx: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(open_idx) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Starting just past a test attribute, consume any further attributes and
/// then one item (to its closing `}` or terminating `;`); returns the index
/// one past the item.
fn skip_item(tokens: &[Token], mut i: usize) -> usize {
    // Subsequent attributes (e.g. `#[cfg(test)] #[allow(…)] mod t { }`).
    while i < tokens.len()
        && tokens[i].is_punct('#')
        && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))
    {
        match matching(tokens, i + 1, '[', ']') {
            Some(end) => i = end + 1,
            None => return tokens.len(),
        }
    }
    // The item header: ends at `;` (e.g. `mod tests;`) or at its body brace.
    let mut depth = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth = depth.saturating_sub(1);
        } else if depth == 0 && t.is_punct(';') {
            return i + 1;
        } else if depth == 0 && t.is_punct('{') {
            return matching(tokens, i, '{', '}').map_or(tokens.len(), |e| e + 1);
        }
        i += 1;
    }
    tokens.len()
}

// ---------------------------------------------------------------------------
// The linted surface and its sanctioned boundary files
// ---------------------------------------------------------------------------

/// The sim-core source roots a no-paths run lints, relative to the
/// workspace root.
pub const SIM_CORE_ROOTS: [&str; 6] = [
    "crates/simkit/src",
    "crates/raidsim/src",
    "crates/diskmodel/src",
    "crates/nvcache/src",
    "crates/iochannel/src",
    "crates/tracegen/src",
];

/// `_`-separated identifier segments that put a name in the time
/// vocabulary (any segment containing "time" always does) …
const TIME_UNITS: [&str; 6] = ["ns", "us", "ms", "tick", "ticks", "deadline"];

/// … or the quantity vocabulary. Adding/subtracting across the two outside
/// the unit boundary is a `unit-safety` diagnostic; scaling (`*` and `/`)
/// is how conversions look, so products and quotients are exempt.
const QUANTITY_UNITS: [&str; 15] = [
    "block", "blocks", "nblocks", "byte", "bytes", "len", "count", "counts", "cyl", "cyls",
    "sector", "sectors", "stripe", "stripes", "ops",
];

/// The sanctioned unit-conversion helpers (`simkit::time`), exempt from
/// `raw-time-cast` and `unit-safety`.
const UNIT_BOUNDARY: &str = "simkit/src/time.rs";

/// Is this a test source file (all rules exempt)?
fn is_test_file(path: &str) -> bool {
    let file = path.rsplit('/').next().unwrap_or(path);
    let stem = file.strip_suffix(".rs").unwrap_or(file);
    path.split('/').rev().skip(1).any(|c| c == "tests")
        || file == "tests.rs"
        || stem.ends_with("_test")
        || stem.ends_with("_tests")
}

/// Is this file the sanctioned fault-RNG constructor site (`simkit::fault`)?
fn is_fault_boundary(path: &str) -> bool {
    path.ends_with("simkit/src/fault.rs")
}

/// May this file *mint* fault-randomness streams (`latent_stream`, the
/// `splitmix64` mixer)? `simkit::fault` defines the machinery; `raidsim`'s
/// `sim/mod.rs` builds the per-disk streams once at fault-state
/// construction. The scrub / sparing / rebuild machinery (`sim/faults.rs`
/// and friends) must draw from streams minted there — re-minting mid-run
/// replays the same draws and breaks run-to-run byte identity.
fn is_fault_stream_boundary(path: &str) -> bool {
    path.ends_with("simkit/src/fault.rs") || path.ends_with("raidsim/src/sim/mod.rs")
}

/// May this file dispatch on `Organization::` variants? The seam confines
/// organization knowledge to configuration, report labeling, and the
/// block-address maps (`mapping::OrgMap`, which the simulator holds
/// directly). The planning layer itself is not exempt: `sim/planning.rs`
/// turns `OrgMap` plans into disk ops without matching on the
/// organization, and a regression that reintroduces a match is flagged
/// like any other file.
fn is_org_boundary(path: &str) -> bool {
    path.ends_with("raidsim/src/config.rs")
        || path.ends_with("raidsim/src/report.rs")
        || path.contains("raidsim/src/mapping")
        // Fleet configuration constructs Organization values the same way
        // SimConfig does: the built-in fleets (config.rs) and the spec
        // parser (spec.rs) are configuration, not dispatch.
        || path.ends_with("raidsim/src/fleet/config.rs")
        || path.ends_with("raidsim/src/fleet/spec.rs")
}

/// Is this file inside `diskmodel`, the only crate that may implement
/// `DiskScheduler`?
fn is_scheduler_boundary(path: &str) -> bool {
    path.contains("diskmodel/src")
}

/// May this file own cross-thread shared state? The one worker pool
/// (`raidsim/src/pool.rs`), which runs sweep points and fleet virtual
/// arrays, is the only sanctioned home of synchronization primitives in
/// sim-core.
fn is_par_boundary(path: &str) -> bool {
    path.ends_with("raidsim/src/pool.rs")
}

/// Is this a fleet-layer file *other than* the runner? `fleet/run.rs` is
/// the one place allowed to hold cross-VA machinery; the rest of the fleet
/// layer — config, alloc, report, spec — must stay plain owned data, so
/// shared-ownership and interior-mutability types are flagged there
/// ([`Rule::FleetBoundary`]).
fn is_fleet_interior(path: &str) -> bool {
    path.contains("raidsim/src/fleet/") && !path.ends_with("raidsim/src/fleet/run.rs")
}

// ---------------------------------------------------------------------------
// Per-file rule matching
// ---------------------------------------------------------------------------

const NUMERIC_TYPES: [&str; 14] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

/// Does `ident` name a time or duration (for `raw-time-cast`)? Matched per
/// `_`-separated segment so that e.g. `instant` or `snow` never
/// false-positive.
fn is_time_ident(ident: &str) -> bool {
    ident.split('_').any(|seg| {
        let seg = seg.to_ascii_lowercase();
        TIME_UNITS.contains(&seg.as_str()) || seg == "now" || seg.contains("time")
    })
}

/// Unit class of an identifier for the `unit-safety` rule, decided by its
/// `_`-separated segments against the unit vocabularies. Ambiguous names
/// (segments from both classes) classify as neither.
#[derive(Clone, Copy, PartialEq, Eq)]
enum UnitClass {
    Time,
    Quantity,
}

fn unit_class(ident: &str) -> Option<UnitClass> {
    let mut time = false;
    let mut qty = false;
    for seg in ident.split('_') {
        let seg = seg.to_ascii_lowercase();
        if TIME_UNITS.contains(&seg.as_str()) || seg.contains("time") {
            time = true;
        }
        if QUANTITY_UNITS.contains(&seg.as_str()) {
            qty = true;
        }
    }
    match (time, qty) {
        (true, false) => Some(UnitClass::Time),
        (false, true) => Some(UnitClass::Quantity),
        _ => None,
    }
}

/// A rule match before directive suppression: (rule, line, col).
type RawMatch = (Rule, u32, u32);

/// Run every rule over one file's tokens, skipping test-only items.
fn rule_matches(path: &str, toks: &[Token]) -> Vec<RawMatch> {
    let test_ranges = test_item_ranges(toks);
    let mut raw: Vec<RawMatch> = Vec::new();

    for i in 0..toks.len() {
        if test_ranges.iter().any(|&(s, e)| i >= s && i < e) {
            continue;
        }
        let mut add = |rule: Rule| raw.push((rule, toks[i].line, toks[i].col));
        let path_sep = |j: usize| {
            toks.get(j).is_some_and(|t| t.is_punct(':'))
                && toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
        };
        match toks[i].ident() {
            Some("FaultRng")
                if !is_fault_boundary(path)
                    && path_sep(i + 1)
                    && toks.get(i + 3).and_then(|t| t.ident()) == Some("new") =>
            {
                add(Rule::FaultRng);
            }
            // Stream *minting* is construction too: deriving a substream
            // (`plan.latent_stream(gdisk)`) or mixing a seed by hand
            // (`splitmix64`) is confined to the fault-stream boundary, so
            // the scrub/sparing/rebuild modules can only draw from streams
            // built once at fault-state construction.
            Some("latent_stream" | "splitmix64")
                if !is_fault_stream_boundary(path)
                    && toks.get(i + 1).is_some_and(|t| t.is_punct('(')) =>
            {
                add(Rule::FaultRng);
            }
            Some("Organization") if !is_org_boundary(path) && path_sep(i + 1) => {
                add(Rule::SchedulerSeam);
            }
            Some("Mutex" | "RwLock" | "Condvar" | "mpsc") if !is_par_boundary(path) => {
                add(Rule::ParSafety);
            }
            Some("Rc" | "Arc" | "RefCell" | "Cell" | "UnsafeCell") if is_fleet_interior(path) => {
                add(Rule::FleetBoundary);
            }
            Some(id) if !is_par_boundary(path) && id.starts_with("Atomic") => {
                add(Rule::ParSafety);
            }
            Some("static")
                if !is_par_boundary(path)
                    && toks.get(i + 1).and_then(|t| t.ident()) == Some("mut") =>
            {
                add(Rule::ParSafety);
            }
            Some("unsafe")
                if !is_par_boundary(path)
                    && toks.get(i + 1).and_then(|t| t.ident()) == Some("impl") =>
            {
                add(Rule::ParSafety);
            }
            Some("thread")
                if !is_par_boundary(path)
                    && path_sep(i + 1)
                    && matches!(
                        toks.get(i + 3).and_then(|t| t.ident()),
                        Some("spawn" | "scope")
                    ) =>
            {
                add(Rule::ParSafety);
            }
            Some("DiskScheduler")
                if !is_scheduler_boundary(path)
                    && toks.get(i + 1).and_then(|t| t.ident()) == Some("for") =>
            {
                add(Rule::SchedulerSeam);
            }
            Some(id)
                if !path.ends_with(UNIT_BOUNDARY)
                    && is_time_ident(id)
                    && toks.get(i + 1).and_then(|t| t.ident()) == Some("as")
                    && toks
                        .get(i + 2)
                        .and_then(|t| t.ident())
                        .is_some_and(|t| NUMERIC_TYPES.contains(&t)) =>
            {
                add(Rule::RawTimeCast);
            }
            _ => {}
        }
        // unit-safety: `time ± quantity` (or `±=`) outside the unit boundary.
        if !path.ends_with(UNIT_BOUNDARY) && is_unit_mix(toks, i) == Some(true) {
            add(Rule::UnitSafety);
        }
    }
    raw
}

/// Is token `i` the left operand of `X + Y` / `X - Y` / `X += Y` /
/// `X -= Y` where one side names a time and the other a quantity? The right
/// operand may be a `a.b.c` field chain (classified by its final segment)
/// or a call (classified by the callee's name). A side followed by `*`/`/`
/// — or preceded by one, for the left — is skipped: the product's unit is
/// not the identifier's (`ms_per_block * blocks` is a legitimate mix).
/// `None` means the tokens are not such a pair at all.
fn is_unit_mix(toks: &[Token], i: usize) -> Option<bool> {
    let x = toks[i].ident()?;
    let op = toks.get(i + 1)?;
    if !(op.is_punct('+') || op.is_punct('-')) {
        return None;
    }
    // `a -> b`, `a ++`-style sequences, and `a - -b` all bail here.
    let mut j = i + 2;
    if toks.get(j).is_some_and(|t| t.is_punct('=')) {
        j += 1;
    }
    // Left side must not be the tail of a product/quotient.
    if i > 0 && (toks[i - 1].is_punct('*') || toks[i - 1].is_punct('/')) {
        return None;
    }
    // Right side: walk a field chain `self.a.b`, ending on its last ident.
    toks.get(j)?.ident()?;
    while toks.get(j + 1).is_some_and(|t| t.is_punct('.'))
        && toks.get(j + 2).is_some_and(|t| t.ident().is_some())
    {
        j += 2;
    }
    let y = toks[j].ident()?;
    // What follows the right operand? Step over a call's argument list
    // first so `t_ms + f(a * b)` inspects the token after `)`.
    let mut after = j + 1;
    if toks.get(after).is_some_and(|t| t.is_punct('(')) {
        after = matching(toks, after, '(', ')')? + 1;
    }
    if toks
        .get(after)
        .is_some_and(|t| t.is_punct('*') || t.is_punct('/'))
    {
        return None;
    }
    Some(unit_class(x)? != unit_class(y)?)
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Analyze one source file (given as a string, so unit tests can feed
/// inline fixtures) and return every diagnostic whose rule is not allowed.
///
/// Allow directives suppress matching findings on their own line and the
/// line directly below; then the meta-rules run over the directives
/// themselves. `unused-allow` only fires for rules that are enforced — a
/// directive cannot be "stale" for a rule nobody is checking.
pub fn analyze_source(path: &str, src: &str, cfg: &Config) -> Vec<Diagnostic> {
    let lexer::Lexed {
        tokens,
        mut directives,
    } = lexer::lex(src);
    let raw = if is_test_file(path) {
        Vec::new()
    } else {
        rule_matches(path, &tokens)
    };
    let lines: Vec<&str> = src.lines().collect();
    let diag = |rule: Rule, line: u32, col: u32| Diagnostic {
        rule,
        level: cfg.level(rule),
        file: path.to_string(),
        line,
        col,
        snippet: lines
            .get(line as usize - 1)
            .map_or(String::new(), |l| l.trim().to_string()),
    };
    let mut diags = Vec::new();

    for (rule, line, col) in raw {
        let mut suppressed = false;
        for d in directives.iter_mut() {
            if d.rule == Some(rule) && d.has_reason && (d.line == line || d.line + 1 == line) {
                d.used = true;
                suppressed = true;
            }
        }
        if !suppressed && cfg.level(rule) != Level::Allow {
            diags.push(diag(rule, line, col));
        }
    }

    for d in &directives {
        let meta = match d.rule {
            Some(rule) if d.has_reason => {
                let stale = !d.used && cfg.level(rule) != Level::Allow;
                stale.then_some(Rule::UnusedAllow)
            }
            _ => Some(Rule::MalformedAllow),
        };
        if let Some(meta) = meta.filter(|&m| cfg.level(m) != Level::Allow) {
            diags.push(diag(meta, d.line, d.col));
        }
    }

    diags.sort_by_key(|d| (d.line, d.col, d.rule));
    diags
}

/// Collect every `.rs` file under `root`, sorted for deterministic output.
fn collect_rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    if root.is_file() {
        out.push(root.to_path_buf());
        return Ok(out);
    }
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n == "target") {
                    continue;
                }
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Analyze every `.rs` file under each of `roots` (files or directories,
/// resolved against the workspace `root`; missing roots are skipped).
/// Diagnostics name files relative to `root` and come back sorted by
/// (file, line, col, rule).
pub fn analyze_workspace<P: AsRef<Path>>(
    root: &Path,
    roots: &[P],
    cfg: &Config,
) -> Result<Vec<Diagnostic>, String> {
    let mut diags = Vec::new();
    for rel in roots {
        let dir = root.join(rel);
        if !dir.exists() {
            continue;
        }
        let files = collect_rs_files(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        for file in files {
            let display = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            let src =
                std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
            diags.extend(analyze_source(&display, &src, cfg));
        }
    }
    diags.sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    Ok(diags)
}

/// Process exit code for a finished run: nonzero iff anything denied.
pub fn exit_code(diags: &[Diagnostic]) -> i32 {
    i32::from(diags.iter().any(|d| d.level == Level::Deny))
}

// ---------------------------------------------------------------------------
// Fixture tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> Vec<Diagnostic> {
        analyze_source("crates/simkit/src/lib.rs", src, &Config::default())
    }

    fn rules_of(diags: &[Diagnostic]) -> Vec<Rule> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn flags_raw_time_casts_but_not_elsewhere_idents() {
        let d = lint(
            "fn f(busy_ns: u64, n: u64) -> f64 {\n    let a = busy_ns as f64;\n    \
             let b = n as f64;\n    let snow = n; let c = snow as f64;\n    a + b + c\n}\n",
        );
        assert_eq!(rules_of(&d), vec![Rule::RawTimeCast]);
        assert_eq!((d[0].line, d[0].col), (2, 13));
        assert_eq!(d[0].snippet, "let a = busy_ns as f64;");
        assert_eq!(exit_code(&d), 1);
    }

    #[test]
    fn time_boundary_file_is_exempt_from_casts() {
        let d = analyze_source(
            "crates/simkit/src/time.rs",
            "pub fn ns_to_ms(ns: u64) -> f64 { ns as f64 / 1e6 }\nfn g(t_ns: u64) { t_ns as f64; }\n",
            &Config::default(),
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn flags_fault_rng_construction_outside_simkit_fault() {
        let src = "fn f() { let r = FaultRng::new(7); }\n";
        let d = lint(src);
        assert_eq!(rules_of(&d), vec![Rule::FaultRng]);
        assert_eq!(d[0].level, Level::Deny);
        // The fault module itself is the sanctioned constructor site.
        let d = analyze_source("crates/simkit/src/fault.rs", src, &Config::default());
        assert!(d.is_empty(), "{d:?}");
        // The fully qualified form is caught too.
        let d = lint("fn f() { let r = simkit::fault::FaultRng::new(7); }\n");
        assert_eq!(rules_of(&d), vec![Rule::FaultRng]);
        // Deriving a named substream from the plan is the sanctioned way.
        let d = lint("fn f(p: &FaultPlan) { let _r = p.stream(3); }\n");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn flags_stream_minting_outside_the_fault_stream_boundary() {
        // Scrub/sparing/rebuild code must not re-mint a latent stream
        // mid-run — it would replay the construction-time draws.
        let src = "fn f(p: &FaultPlan) { let _r = p.latent_stream(3); }\n";
        let d = analyze_source("crates/raidsim/src/sim/faults.rs", src, &Config::default());
        assert_eq!(rules_of(&d), vec![Rule::FaultRng]);
        // Nor mix seeds by hand instead of going through the plan.
        let d = analyze_source(
            "crates/raidsim/src/sim/faults.rs",
            "fn f(s: u64) -> u64 { splitmix64(s ^ 3) }\n",
            &Config::default(),
        );
        assert_eq!(rules_of(&d), vec![Rule::FaultRng]);
        // The boundary files build the streams once, legitimately.
        for path in [
            "crates/simkit/src/fault.rs",
            "crates/raidsim/src/sim/mod.rs",
        ] {
            let d = analyze_source(path, src, &Config::default());
            assert!(d.is_empty(), "{path}: {d:?}");
        }
        // Mentioning the name without a call (docs, a field) is fine.
        let d = lint("fn f() { let latent_stream = 3; let _ = latent_stream; }\n");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn flags_organization_dispatch_outside_planner_modules() {
        let src = "fn f(o: Organization) -> bool { matches!(o, Organization::Base) }\n";
        let d = analyze_source("crates/raidsim/src/sim/mod.rs", src, &Config::default());
        assert_eq!(rules_of(&d), vec![Rule::SchedulerSeam]);
        assert_eq!(d[0].level, Level::Deny);
        // The sanctioned homes of organization knowledge are exempt.
        for path in [
            "crates/raidsim/src/config.rs",
            "crates/raidsim/src/report.rs",
            "crates/raidsim/src/mapping/mod.rs",
            "crates/raidsim/src/mapping/degraded.rs",
        ] {
            assert!(
                analyze_source(path, src, &Config::default()).is_empty(),
                "{path} should be allowed to dispatch on Organization::"
            );
        }
        // The planning layer reads the organization only through its
        // OrgMap, so it has no exemption: a reintroduced match is flagged.
        let d = analyze_source(
            "crates/raidsim/src/sim/planning.rs",
            src,
            &Config::default(),
        );
        assert_eq!(rules_of(&d), vec![Rule::SchedulerSeam]);
        // Naming the type (not a variant) is fine anywhere.
        let d = analyze_source(
            "crates/raidsim/src/sim/mod.rs",
            "use crate::config::Organization;\nfn g(_o: Organization) {}\n",
            &Config::default(),
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn flags_disk_scheduler_impls_outside_diskmodel() {
        let src = "struct MyQ;\nimpl DiskScheduler for MyQ {}\n";
        let d = analyze_source(
            "crates/raidsim/src/sim/dispatch.rs",
            src,
            &Config::default(),
        );
        assert_eq!(rules_of(&d), vec![Rule::SchedulerSeam]);
        // diskmodel is the sanctioned implementation site.
        let d = analyze_source("crates/diskmodel/src/scheduler.rs", src, &Config::default());
        assert!(d.is_empty(), "{d:?}");
        // Using the trait (imports, bounds, method calls) is fine anywhere.
        let d = analyze_source(
            "crates/raidsim/src/sim/dispatch.rs",
            "use diskmodel::DiskScheduler;\nfn g<T: DiskScheduler>(q: &T) -> usize { q.len() }\n",
            &Config::default(),
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn flags_shared_state_outside_the_partition_layer() {
        let src = "use std::sync::{Mutex, mpsc};\nuse std::sync::atomic::AtomicU64;\n\
                   static mut COUNT: u64 = 0;\nfn f() { std::thread::spawn(|| {}); }\n\
                   struct S;\nunsafe impl Sync for S {}\n";
        let d = analyze_source(
            "crates/raidsim/src/sim/dispatch.rs",
            src,
            &Config::default(),
        );
        assert_eq!(d.len(), 6, "{d:?}");
        assert!(d.iter().all(|d| d.rule == Rule::ParSafety));
        // The one worker pool is the sanctioned home of synchronization.
        let d = analyze_source("crates/raidsim/src/pool.rs", src, &Config::default());
        assert!(
            d.is_empty(),
            "pool.rs must be allowed to synchronize: {d:?}"
        );
        // The sweep and the fleet runner go through the pool, so they are
        // flagged like any other file when they synchronize themselves.
        for path in [
            "crates/raidsim/src/sweep.rs",
            "crates/raidsim/src/fleet/run.rs",
        ] {
            let d = analyze_source(path, src, &Config::default());
            assert_eq!(d.len(), 6, "{path} must not synchronize: {d:?}");
            assert!(d.iter().all(|d| d.rule == Rule::ParSafety));
        }
        // `&'static mut` never fires: the lifetime is not the keyword.
        let d = lint("fn g(x: &'static mut u32) -> u32 { *x }\n");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn cfg_test_items_are_exempt() {
        let d = lint(
            "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    use std::sync::Mutex;\n    \
             #[test]\n    fn t(t_ns: u64) { let _ = FaultRng::new(1); t_ns as u32; }\n}\n",
        );
        assert!(d.is_empty(), "{d:?}");
        // …including `#[test] fn` outside a module and `mod tests;` forms.
        let d = lint("#[test]\nfn t(t_ns: u64) { t_ns as u32; }\n#[cfg(test)]\nmod tests;\n");
        assert!(d.is_empty(), "{d:?}");
        // A test-only predicate nested in `all`/`any` is still test-only.
        let d = lint(
            "#[cfg(all(test, not(feature = \"x\")))]\nfn t(t_ns: u64) -> u32 { t_ns as u32 }\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn cfg_not_test_items_are_linted() {
        // `cfg(not(test))` is production-only code: every rule sees it.
        let d = lint("#[cfg(not(test))]\npub fn f(t_ns: u64) -> u32 { t_ns as u32 }\n");
        assert_eq!(rules_of(&d), vec![Rule::RawTimeCast]);
        assert_eq!(d[0].line, 2);
        let d = lint(
            "#[cfg(any(not(test), feature = \"x\"))]\nstatic G: Mutex<u32> = Mutex::new(0);\n",
        );
        assert_eq!(rules_of(&d), vec![Rule::ParSafety, Rule::ParSafety]);
    }

    #[test]
    fn code_after_test_module_is_still_checked() {
        let d = lint(
            "#[cfg(test)]\nmod tests { fn t(t_ns: u64) { t_ns as u32; } }\n\
             pub fn f(t_ns: u64) -> u32 { t_ns as u32 }\n",
        );
        assert_eq!(rules_of(&d), vec![Rule::RawTimeCast]);
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn allow_directive_suppresses_same_and_next_line() {
        let d = lint(
            "// simlint::allow(raw-time-cast): the wire format is 32-bit ticks\n\
             pub fn f(t_ns: u64) -> u32 { t_ns as u32 }\n",
        );
        assert!(d.is_empty(), "{d:?}");
        let d = lint(
            "pub fn f(t_ns: u64) -> u32 { t_ns as u32 } // simlint::allow(raw-time-cast): ok\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn allow_without_reason_is_malformed() {
        let d =
            lint("// simlint::allow(raw-time-cast)\npub fn f(t_ns: u64) -> u32 { t_ns as u32 }\n");
        assert_eq!(rules_of(&d), vec![Rule::MalformedAllow, Rule::RawTimeCast]);
    }

    #[test]
    fn allow_of_unknown_rule_is_malformed() {
        let d = lint("// simlint::allow(no-such-rule): reason\npub fn f() {}\n");
        assert_eq!(rules_of(&d), vec![Rule::MalformedAllow]);
        // A rule that moved to clippy is unknown here: its escape is
        // `#[expect(clippy::…, reason = …)]` now.
        let d = lint("// simlint::allow(panic-policy): invariant\npub fn f() {}\n");
        assert_eq!(rules_of(&d), vec![Rule::MalformedAllow]);
    }

    #[test]
    fn unused_allow_is_reported() {
        let d = lint("// simlint::allow(par-safety): stale excuse\npub fn f() {}\n");
        assert_eq!(rules_of(&d), vec![Rule::UnusedAllow]);
        assert_eq!(d[0].level, Level::Warn);
        assert_eq!(exit_code(&d), 0, "warnings alone never fail the run");
    }

    #[test]
    fn strings_comments_and_lifetimes_never_fire() {
        let d = lint(
            "/* Mutex in /* nested */ comments */\n\
             pub fn f<'a>(s: &'a str) -> String {\n    \
             let c = 'h'; let esc = '\\'';\n    \
             let x = \"Mutex FaultRng::new(1) t_ns as u32\";\n    \
             let y = r#\"thread::spawn \"quoted\" FaultRng::new(1)\"#;\n    \
             format!(\"{x}{y}{c}{esc}\")\n}\n// Mutex mentioned in prose is fine\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn levels_and_json_output() {
        let mut cfg = Config::default();
        cfg.set_all(Level::Warn);
        let src = "use std::sync::Mutex;\n";
        let d = analyze_source("crates/simkit/src/lib.rs", src, &cfg);
        assert_eq!(d[0].level, Level::Warn);
        assert_eq!(exit_code(&d), 0);
        cfg.set_level(Rule::ParSafety, Level::Deny);
        let d = analyze_source("crates/simkit/src/lib.rs", src, &cfg);
        assert_eq!(exit_code(&d), 1);

        let json = to_json(&d);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"rule\":\"par-safety\""));
        assert!(json.contains("\"line\":1"));
        // The snippet is embedded with quotes escaped.
        assert!(json.contains("use std::sync::Mutex;"));
    }

    #[test]
    fn diagnostic_display_has_file_line_col_and_hint() {
        let d = lint("use std::sync::Mutex;\n");
        let text = d[0].to_string();
        assert!(text.contains("deny[par-safety]"), "{text}");
        assert!(text.contains("crates/simkit/src/lib.rs:1:16"), "{text}");
        assert!(text.contains("help:"), "{text}");
    }

    // --- unit-safety ------------------------------------------------------

    #[test]
    fn unit_safety_flags_time_quantity_mixes() {
        let d = lint("fn f(seek_ms: f64, nblocks: f64) -> f64 { seek_ms + nblocks }\n");
        assert_eq!(rules_of(&d), vec![Rule::UnitSafety]);
        // Both directions, and the compound-assignment forms.
        let d = lint("fn f(mut total_blocks: u64, xfer_ns: u64) { total_blocks += xfer_ns; }\n");
        assert_eq!(rules_of(&d), vec![Rule::UnitSafety]);
        let d = lint("fn f(t_ns: u64, len: u64) -> u64 { t_ns - len }\n");
        assert_eq!(rules_of(&d), vec![Rule::UnitSafety]);
        // Field chains classify by their final segment.
        let d = lint("fn f(s: &S) -> u64 { s.op.start_ns + s.req.nblocks }\n");
        assert_eq!(rules_of(&d), vec![Rule::UnitSafety]);
    }

    #[test]
    fn unit_safety_allows_homogeneous_and_scaled_arithmetic() {
        // Same-unit arithmetic is fine.
        let d = lint("fn f(seek_ms: f64, xfer_ms: f64) -> f64 { seek_ms + xfer_ms }\n");
        assert!(d.is_empty(), "{d:?}");
        let d = lint("fn f(a_blocks: u64, b_blocks: u64) -> u64 { a_blocks + b_blocks }\n");
        assert!(d.is_empty(), "{d:?}");
        // Multiplication/division legitimately crosses units…
        let d = lint("fn f(ms_per_block: f64, blocks: f64) -> f64 { ms_per_block * blocks }\n");
        assert!(d.is_empty(), "{d:?}");
        // …including as an operand of +: the product's unit is time again.
        let d = lint(
            "fn f(seek_ms: f64, blocks: f64, per_ms: f64) -> f64 { seek_ms + blocks * per_ms }\n",
        );
        assert!(d.is_empty(), "{d:?}");
        let d = lint(
            "fn f(seek_ms: f64, blocks: f64, per_ms: f64) -> f64 { blocks * per_ms + seek_ms }\n",
        );
        assert!(d.is_empty(), "{d:?}");
        // Unknown identifiers never classify.
        let d = lint("fn f(a: u64, dur_ms: u64) -> u64 { dur_ms + a }\n");
        assert!(d.is_empty(), "{d:?}");
        // The unit boundary module is exempt.
        let d = analyze_source(
            "crates/simkit/src/time.rs",
            "pub fn at(t_ms: f64, blocks: f64) -> f64 { t_ms + blocks }\n",
            &Config::default(),
        );
        assert!(d.is_empty(), "{d:?}");
        // Ambiguous names (both vocabularies) classify as neither.
        let d = lint("fn f(block_time_ms: u64, blocks: u64) -> u64 { block_time_ms + blocks }\n");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unit_safety_can_be_suppressed_like_any_rule() {
        let d = lint(
            "// simlint::allow(unit-safety): blocks is a pre-scaled ms contribution here\n\
             fn f(t_ms: u64, blocks: u64) -> u64 { t_ms + blocks }\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    // --- lexer hardening --------------------------------------------------

    #[test]
    fn directives_inside_strings_do_not_suppress() {
        // The directive text lives in a string literal, not a comment: the
        // cast on the next line must still be flagged.
        let d = lint(
            "pub fn f(t_ns: u64) -> u32 {\n    \
             let _m = \"// simlint::allow(raw-time-cast): spoofed\";\n    t_ns as u32\n}\n",
        );
        assert_eq!(rules_of(&d), vec![Rule::RawTimeCast]);
    }

    #[test]
    fn block_comment_directives_suppress_and_are_audited() {
        let d = lint(
            "/* simlint::allow(raw-time-cast): checked by caller */\n\
             pub fn f(t_ns: u64) -> u32 { t_ns as u32 }\n",
        );
        assert!(d.is_empty(), "{d:?}");
        // A malformed block-comment directive is caught like a line one.
        let d = lint("/* simlint::allow(raw-time-cast) */\npub fn f() {}\n");
        assert_eq!(rules_of(&d), vec![Rule::MalformedAllow]);
    }

    #[test]
    fn raw_strings_with_hashes_and_comment_markers_lex_exactly() {
        // `//` and `*/` inside raw strings are content, not comments; the
        // code after them is still live and its violation is still seen.
        let d = lint(
            "pub fn f(t_ns: u64) -> u32 {\n    \
             let _p = r##\"// not a comment \"# still open\" Mutex\"##;\n    \
             let _q = r#\"/* also not */\"#;\n    t_ns as u32\n}\n",
        );
        assert_eq!(rules_of(&d), vec![Rule::RawTimeCast]);
        assert_eq!(d[0].line, 4);
    }

    // Hash collections, wall clocks, environment reads and unwrap/expect
    // are banned by clippy (the root `clippy.toml` and the workspace
    // `[workspace.lints.clippy]`), not by simlint. These tests lint small
    // sources with `clippy-driver` against that real configuration, so
    // dropping a ban from either file fails them.

    /// Lint `src`, fed on stdin, with `clippy-driver` and the workspace's
    /// clippy configuration; return the warnings as `(line, col, message)`.
    fn clippy(name: &str, src: &str, extra: &[&str]) -> Vec<(u32, u32, String)> {
        use std::io::Write;
        use std::process::{Command, Stdio};
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let out = std::env::temp_dir().join(format!(
            "simlint-clippy-{}-{name}-{}.rmeta",
            std::process::id(),
            extra.len()
        ));
        let mut child = Command::new("clippy-driver")
            .env("CLIPPY_CONF_DIR", root)
            .args(["--edition=2021", "--emit=metadata", "--error-format=short"])
            .args(["-W", "clippy::unwrap_used", "-W", "clippy::expect_used"])
            .args(extra)
            .arg("-o")
            .arg(&out)
            .arg("-")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("cannot run `clippy-driver` ({e}); install clippy"));
        child
            .stdin
            .take()
            .unwrap_or_else(|| panic!("clippy-driver stdin"))
            .write_all(src.as_bytes())
            .unwrap_or_else(|e| panic!("writing to clippy-driver: {e}"));
        let output = child
            .wait_with_output()
            .unwrap_or_else(|e| panic!("waiting for clippy-driver: {e}"));
        let _ = std::fs::remove_file(&out);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(output.status.success(), "clippy-driver failed:\n{stderr}");
        stderr
            .lines()
            .filter_map(|l| l.strip_prefix("<anon>:"))
            .filter_map(|l| {
                let (pos, msg) = l.split_once(": warning: ")?;
                let (line, col) = pos.split_once(':')?;
                Some((line.parse().ok()?, col.parse().ok()?, msg.to_string()))
            })
            .collect()
    }

    #[test]
    fn flags_hash_collections_with_position() {
        let w = clippy(
            "hash",
            "use std::collections::HashMap;\n\
             pub fn f() -> HashMap<u32, u32> { Default::default() }\n\
             pub fn g() -> std::collections::HashSet<u32> { Default::default() }\n",
            &["--crate-type=lib"],
        );
        let pos: Vec<(u32, u32)> = w.iter().map(|(l, c, _)| (*l, *c)).collect();
        assert_eq!(pos, vec![(1, 1), (2, 15), (3, 15)], "{w:?}");
        assert!(w[..2]
            .iter()
            .all(|(_, _, m)| m.contains("disallowed type `std::collections::HashMap`")));
        assert!(w[2]
            .2
            .contains("disallowed type `std::collections::HashSet`"));
    }

    #[test]
    fn flags_ambient_nondeterminism() {
        // The vendored `rand` has no `thread_rng` or `random`, so the only
        // ambient sources left to ban are clocks and the environment.
        let w = clippy(
            "ambient",
            "pub fn f() -> bool {\n    \
             let t = std::time::Instant::now();\n    \
             let u = std::time::SystemTime::now();\n    \
             let e = std::env::var(\"SEED\").is_ok();\n    \
             let o = std::env::var_os(\"SEED\").is_some();\n    \
             let n = std::env::vars().count() + std::env::vars_os().count();\n    \
             e && o && n > 0 && t.elapsed() > u.elapsed().unwrap_or_default()\n}\n",
            &["--crate-type=lib"],
        );
        assert_eq!(w.len(), 6, "{w:?}");
        assert!(
            w.iter().all(|(_, _, m)| m.contains("disallowed method")),
            "{w:?}"
        );
        let lines: Vec<u32> = w.iter().map(|(l, _, _)| *l).collect();
        assert_eq!(lines, vec![2, 3, 4, 5, 6, 6]);
    }

    #[test]
    fn flags_unwrap_and_expect_in_library_code_only() {
        let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() + x.expect(\"y\") }\n";
        let w = clippy("panic-lib", src, &["--crate-type=lib"]);
        let msgs: Vec<&str> = w.iter().map(|(_, _, m)| m.as_str()).collect();
        assert_eq!(
            msgs,
            vec![
                "used `unwrap()` on an `Option` value",
                "used `expect()` on an `Option` value"
            ]
        );
        // The same calls in test code are exempt.
        let test_src = "#[cfg(test)]\nmod t {\n    \
                        fn f(x: Option<u32>) -> u32 { x.unwrap() + x.expect(\"y\") }\n    \
                        #[test]\n    fn t() {\n        assert_eq!(f(Some(1)), 2);\n    }\n}\n";
        let w = clippy("panic-test", test_src, &["--test"]);
        assert!(w.is_empty(), "{w:?}");
    }
}
