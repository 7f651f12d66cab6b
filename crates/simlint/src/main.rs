//! CLI for the simlint determinism pass.
//!
//! ```text
//! cargo run -p simlint -- --deny                 # CI gate: everything denied
//! cargo run -p simlint -- --warn unit-safety     # demote one rule
//! cargo run -p simlint -- --format sarif         # code-scanning output
//! cargo run -p simlint -- path/to/file.rs        # explicit targets
//! ```

use simlint::{
    analyze_workspace, exit_code, to_json, to_sarif, Config, Level, Rule, RULES, SIM_CORE_ROOTS,
};
use std::path::PathBuf;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Sarif,
}

const USAGE: &str = "\
simlint — the determinism & seam lints clippy cannot express

USAGE:
    cargo run -p simlint -- [OPTIONS] [PATHS…]

OPTIONS:
    --deny [RULE]      enforce every rule (or just RULE) as an error
    --warn [RULE]      report every rule (or just RULE) without failing
    --allow RULE       disable RULE entirely
    --format FMT       `text` (default), `json`, or `sarif`
    --root DIR         workspace root (default: autodetected)
    --list-rules       print the rules and their default levels
    -h, --help         this help

With no PATHS the sim-core crates are analyzed; otherwise the given files
and directories are. A site opts out with
`// simlint::allow(<rule>): <reason>` on the offending or preceding line.
Hash collections, wall clocks, environment reads and unwrap/expect are
checked by clippy (clippy.toml and the workspace lints), not here.";

fn main() {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("simlint: error: {e}");
            std::process::exit(2);
        }
    }
}

fn run() -> Result<i32, String> {
    let mut cfg = Config::default();
    let mut format = Format::Text;
    let mut root: Option<PathBuf> = None;
    let mut paths: Vec<PathBuf> = Vec::new();

    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" | "--warn" | "--allow" => {
                let level = match arg.as_str() {
                    "--deny" => Level::Deny,
                    "--warn" => Level::Warn,
                    _ => Level::Allow,
                };
                // An immediately following rule name scopes the flag; plain
                // `--deny`/`--warn` applies to every rule.
                let scoped = args.peek().and_then(|next| Rule::from_name(next));
                if scoped.is_some() {
                    args.next();
                }
                match scoped {
                    Some(rule) => cfg.set_level(rule, level),
                    None if level == Level::Allow => {
                        return Err("--allow requires a rule name (refusing to disable \
                                    every rule at once)"
                            .into());
                    }
                    None => cfg.set_all(level),
                }
            }
            "--format" => {
                let fmt = args
                    .next()
                    .ok_or("--format requires `text`, `json`, or `sarif`")?;
                format = match fmt.as_str() {
                    "json" => Format::Json,
                    "text" => Format::Text,
                    "sarif" => Format::Sarif,
                    other => return Err(format!("unknown format `{other}`")),
                };
            }
            "--root" => {
                root = Some(PathBuf::from(
                    args.next().ok_or("--root requires a directory")?,
                ));
            }
            "--list-rules" => {
                for r in RULES {
                    println!("{:<16} (default: {})", r.name(), r.default_level().name());
                    println!("    {}", r.hint());
                }
                return Ok(0);
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                return Ok(0);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}` (see --help)"));
            }
            path => paths.push(PathBuf::from(path)),
        }
    }

    // Workspace root: the parent of this crate's `crates/` directory, so
    // the tool works from any invocation directory. Explicit paths are
    // taken relative to the invocation directory.
    let cwd = std::env::current_dir().map_err(|e| format!("current directory: {e}"))?;
    let root = match root {
        Some(r) => cwd.join(r),
        None => PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .ok_or("simlint must live at <root>/crates/simlint")?
            .to_path_buf(),
    };
    let roots: Vec<PathBuf> = if paths.is_empty() {
        SIM_CORE_ROOTS.iter().map(PathBuf::from).collect()
    } else {
        paths
            .iter()
            .map(|p| match cwd.join(p) {
                p if p.exists() => Ok(p),
                p => Err(format!("{}: no such file or directory", p.display())),
            })
            .collect::<Result<_, _>>()?
    };
    let diags = analyze_workspace(&root, &roots, &cfg)?;

    match format {
        Format::Json => println!("{}", to_json(&diags)),
        Format::Sarif => println!("{}", to_sarif(&diags)),
        Format::Text => {
            for d in &diags {
                println!("{d}\n");
            }
            let denies = diags.iter().filter(|d| d.level == Level::Deny).count();
            let warns = diags.len() - denies;
            eprintln!("simlint: {denies} error(s), {warns} warning(s)");
        }
    }
    Ok(exit_code(&diags))
}
