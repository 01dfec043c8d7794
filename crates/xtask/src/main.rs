//! `cargo run -p xtask -- <command>` — workspace maintenance tasks.
//!
//! * `lint`     — deny-by-default static analysis (see `src/rules.rs`
//!   and `docs/static_analysis.md`). Exits non-zero on any finding.
//! * `sanitize` — nightly-gated ASan/TSan + Miri runs over the
//!   unsafe-heavy test subset; skips with a warning (exit 0) when the
//!   required toolchain pieces are unavailable.

mod lexer;
mod rules;
mod sanitize;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().map(|s| s.as_str()) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let mut root: Option<PathBuf> = None;
    let mut report: Option<PathBuf> = None;
    let mut only: Vec<String> = Vec::new();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--root" => {
                i += 1;
                root = args.get(i).map(PathBuf::from);
            }
            "--report" => {
                i += 1;
                report = args.get(i).map(PathBuf::from);
            }
            "--only" => {
                i += 1;
                if let Some(v) = args.get(i) {
                    only.push(v.clone());
                }
            }
            other => {
                eprintln!("unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }
    let root = root.unwrap_or_else(default_root);
    match cmd {
        "lint" => lint_cmd(&root, report.as_deref()),
        "sanitize" => sanitize::run(&root, report.as_deref(), &only),
        other => {
            eprintln!("unknown command `{other}`\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage: cargo run -p xtask -- <lint|sanitize> \
[--root <path>] [--report <path>] [--only <asan|tsan|miri>]";

/// The workspace root: two levels up from this crate's manifest.
fn default_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/xtask sits two levels below the workspace root")
        .to_path_buf()
}

fn lint_cmd(root: &Path, report: Option<&Path>) -> ExitCode {
    let files = rust_sources(root);
    let mut findings: Vec<rules::Finding> = Vec::new();
    let mut env_uses: BTreeMap<String, (String, u32)> = BTreeMap::new();
    for rel in &files {
        let src = match fs::read_to_string(root.join(rel)) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("xtask lint: cannot read {rel}: {e}");
                return ExitCode::from(2);
            }
        };
        let fl = rules::FileLint::new(rel, &src);
        findings.extend(fl.findings());
        for (name, line) in fl.env_uses() {
            env_uses.entry(name).or_insert((rel.clone(), line));
        }
    }

    // E1 needs the cross-file env-use set and the README registry.
    let readme = fs::read_to_string(root.join("README.md")).unwrap_or_default();
    match rules::parse_registry(&readme) {
        Some(registry) => findings.extend(rules::check_env_registry(&env_uses, &registry)),
        None => findings.push(rules::Finding {
            rule: "E1",
            path: "README.md".to_string(),
            line: 1,
            msg: "env-var registry markers (`<!-- xtask:env-registry:begin/end -->`) \
                  not found in README.md"
                .to_string(),
            allowed: false,
        }),
    }

    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));

    let mut out = Vec::new();
    let denied: Vec<&rules::Finding> = findings.iter().filter(|f| !f.allowed).collect();
    let allowed: Vec<&rules::Finding> = findings.iter().filter(|f| f.allowed).collect();
    for f in &denied {
        out.push(f.render());
    }
    for f in &allowed {
        out.push(f.render());
    }
    out.push(format!(
        "xtask lint: {} finding(s), {} suppressed via xtask-allow, {} file(s) scanned",
        denied.len(),
        allowed.len(),
        files.len()
    ));
    let text = out.join("\n");
    println!("{text}");
    if let Some(path) = report {
        if let Err(e) = write_report(path, &text) {
            eprintln!("xtask lint: cannot write report {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if denied.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write_report(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    fs::write(path, format!("{text}\n"))
}

/// Every `.rs` file under `root`, as sorted workspace-relative paths
/// with `/` separators. Skips build output, VCS metadata, and hidden
/// directories.
fn rust_sources(root: &Path) -> Vec<String> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                if let Ok(rel) = path.strip_prefix(root) {
                    out.push(rel.to_string_lossy().replace('\\', "/"));
                }
            }
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn default_root_is_a_workspace() {
        let root = default_root();
        assert!(root.join("Cargo.toml").exists(), "{}", root.display());
        assert!(root.join("crates/xtask/Cargo.toml").exists());
    }

    #[test]
    fn rust_sources_finds_this_file_and_skips_target() {
        let files = rust_sources(&default_root());
        assert!(files.iter().any(|f| f == "crates/xtask/src/main.rs"));
        assert!(files.iter().all(|f| !f.starts_with("target/")));
        // Deterministic ordering keeps reports diffable.
        let mut sorted = files.clone();
        sorted.sort();
        assert_eq!(files, sorted);
    }

    /// The real tree must be clean: this is the fixture-of-record
    /// that `cargo test` keeps in lockstep with `xtask lint` in CI.
    #[test]
    fn workspace_lint_is_clean() {
        let root = default_root();
        let files = rust_sources(&root);
        let mut env_uses: BTreeMap<String, (String, u32)> = BTreeMap::new();
        let mut denied = Vec::new();
        for rel in &files {
            let src = fs::read_to_string(root.join(rel)).expect("readable source");
            let fl = rules::FileLint::new(rel, &src);
            denied.extend(fl.findings().into_iter().filter(|f| !f.allowed));
            for (name, line) in fl.env_uses() {
                env_uses.entry(name).or_insert((rel.clone(), line));
            }
        }
        let readme = fs::read_to_string(root.join("README.md")).expect("README.md");
        let registry = rules::parse_registry(&readme).expect("env registry markers in README.md");
        denied.extend(rules::check_env_registry(&env_uses, &registry));
        let rendered: Vec<String> = denied.iter().map(|f| f.render()).collect();
        assert!(
            rendered.is_empty(),
            "lint findings:\n{}",
            rendered.join("\n")
        );
    }
}
