//! `ecas-lint`: offline static analysis for the ecas workspace.
//!
//! A zero-dependency, token-level lint that enforces the invariants the
//! reproduction's claims rest on: determinism (no wall-clock, no ambient
//! entropy, no hash-order iteration in simulation crates), unit-safety
//! (quantities travel as `ecas_types::units` newtypes, not raw floats),
//! panic-safety (library code returns errors instead of unwrapping) and
//! observability purity (probe events carry simulation-time data only).
//!
//! See `lint.toml` at the workspace root for rule severities and scoping,
//! and DESIGN.md § "Static analysis" for the rationale behind each rule.
//!
//! Findings can be locally justified with an inline directive:
//!
//! ```text
//! // ecas-lint: allow(panic-safety, reason = "static Table II data is validated by tests")
//! ```
//!
//! A directive with no `reason` is itself a deny-level finding.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod diag;
pub mod item;
pub mod rules;
pub mod scan;
pub mod workspace;
pub mod wsrules;

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

pub use config::{Config, Severity};
pub use diag::{Diagnostic, Tally};

/// Lints one file's source text, returning reportable diagnostics
/// (deny/warn only — allowed and suppressed findings are filtered).
#[must_use]
pub fn lint_source(
    crate_name: &str,
    rel_path: &str,
    source: &str,
    config: &Config,
) -> Vec<Diagnostic> {
    let scanned = scan::scan(source);
    let test_ranges = scan::test_line_ranges(&scanned.tokens);
    let findings: Vec<_> = rules::run_all(crate_name, rel_path, &scanned.tokens, config)
        .into_iter()
        .map(|f| (f, None))
        .collect();
    resolve(
        crate_name,
        rel_path,
        &scanned.directives,
        &test_ranges,
        findings,
        config,
    )
}

/// Resolves raw findings against a file's allow directives and the
/// configured severities: filters `#[cfg(test)]` regions, applies
/// suppression (a trailing directive covers its own line; a standalone
/// one covers the next non-directive line), clamps each finding to its
/// optional severity cap, and reports directive hygiene (malformed,
/// reason-less, unknown-rule, unused). Shared by the per-file and
/// workspace passes — manifests resolve here too, with empty test
/// ranges.
fn resolve(
    crate_name: &str,
    rel_path: &str,
    directives: &[scan::Directive],
    test_ranges: &[(u32, u32)],
    findings: Vec<(rules::RawFinding, Option<Severity>)>,
    config: &Config,
) -> Vec<Diagnostic> {
    let in_test = |line: u32| test_ranges.iter().any(|&(lo, hi)| lo <= line && line <= hi);
    let raw: Vec<_> = findings
        .into_iter()
        .filter(|(f, _)| !in_test(f.line))
        .collect();

    // A trailing directive covers its own line; a standalone directive
    // covers the next non-directive line.
    let target_line = |d: &scan::Directive| -> u32 {
        if !d.standalone {
            return d.line;
        }
        let mut target = d.line + 1;
        while directives.iter().any(|o| o.standalone && o.line == target) {
            target += 1;
        }
        target
    };

    let known_rule = |name: &str| rules::RULES.iter().any(|(rule, _)| *rule == name);
    let mut out = Vec::new();
    let mut used = vec![false; directives.len()];

    for (finding, cap) in &raw {
        let suppressed = directives.iter().enumerate().any(|(di, d)| {
            let covers = d.malformed.is_none()
                && d.reason.is_some()
                && target_line(d) == finding.line
                && d.rules.iter().any(|r| r == finding.rule);
            if covers {
                used[di] = true;
            }
            covers
        });
        if suppressed {
            continue;
        }
        let mut severity = config.severity(finding.rule, crate_name);
        if let Some(cap) = cap {
            severity = severity.min(*cap);
        }
        if severity == Severity::Allow {
            continue;
        }
        out.push(Diagnostic {
            file: rel_path.to_string(),
            line: finding.line,
            rule: finding.rule,
            severity,
            message: finding.message.clone(),
            hint: finding.hint.clone(),
        });
    }

    // Directive hygiene: malformed, reason-less, unknown-rule and unused
    // directives are findings themselves.
    for (di, d) in directives.iter().enumerate() {
        if in_test(d.line) {
            continue;
        }
        let reason_sev = config.severity("allow-reason", crate_name);
        if let Some(error) = &d.malformed {
            if reason_sev != Severity::Allow {
                out.push(Diagnostic {
                    file: rel_path.to_string(),
                    line: d.line,
                    rule: "allow-reason",
                    severity: reason_sev,
                    message: format!("malformed ecas-lint directive: {error}"),
                    hint: "write // ecas-lint: allow(<rule>, reason = \"...\")".to_string(),
                });
            }
            continue;
        }
        if d.reason.is_none() && reason_sev != Severity::Allow {
            out.push(Diagnostic {
                file: rel_path.to_string(),
                line: d.line,
                rule: "allow-reason",
                severity: reason_sev,
                message: "allow directive without a reason".to_string(),
                hint: "add reason = \"why this finding is acceptable here\"".to_string(),
            });
        }
        for rule in &d.rules {
            if !known_rule(rule) && reason_sev != Severity::Allow {
                out.push(Diagnostic {
                    file: rel_path.to_string(),
                    line: d.line,
                    rule: "allow-reason",
                    severity: reason_sev,
                    message: format!("allow directive names unknown rule `{rule}`"),
                    hint: "run ecas-lint --list-rules for the rule registry".to_string(),
                });
            }
        }
        let unused_sev = config.severity("unused-allow", crate_name);
        if !used[di]
            && d.malformed.is_none()
            && d.reason.is_some()
            && d.rules.iter().all(|r| known_rule(r))
            && unused_sev != Severity::Allow
        {
            out.push(Diagnostic {
                file: rel_path.to_string(),
                line: d.line,
                rule: "unused-allow",
                severity: unused_sev,
                message: format!("allow({}) suppresses nothing", d.rules.join(", ")),
                hint: "delete the directive or move it next to the finding it justifies"
                    .to_string(),
            });
        }
    }

    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

/// Lints the whole workspace under `root` with `config`: the per-file
/// rules over every library source, plus the workspace rules (layering,
/// hot-path-alloc, obs-name-registry, pub-surface) over the loaded
/// [`workspace::WorkspaceModel`]. Workspace findings resolve against the
/// same allow-directive machinery as file findings; layering findings
/// anchor on `Cargo.toml` lines and are suppressed by
/// `# ecas-lint: allow(...)` TOML comments.
///
/// # Errors
///
/// Returns any I/O error from reading the tree.
pub fn lint_workspace(root: &Path, config: &Config) -> io::Result<Vec<Diagnostic>> {
    let model = workspace::WorkspaceModel::load(root, config)?;

    // Group workspace-rule findings by their anchor file.
    type Grouped = BTreeMap<String, (String, Vec<(rules::RawFinding, Option<Severity>)>)>;
    let mut by_file: Grouped = BTreeMap::new();
    for wf in wsrules::run_workspace(&model, config) {
        by_file
            .entry(wf.file)
            .or_insert_with(|| (wf.crate_name, Vec::new()))
            .1
            .push((wf.finding, wf.cap));
    }

    let mut out = Vec::new();
    for krate in &model.crates {
        let manifest = by_file.remove(&krate.manifest_rel).map(|(_, f)| f);
        if manifest.is_some() || !krate.manifest_directives.is_empty() {
            out.extend(resolve(
                &krate.name,
                &krate.manifest_rel,
                &krate.manifest_directives,
                &[],
                manifest.unwrap_or_default(),
                config,
            ));
        }
        for file in &krate.files {
            let mut findings: Vec<_> =
                rules::run_all(&krate.name, &file.rel_path, &file.scanned.tokens, config)
                    .into_iter()
                    .map(|f| (f, None))
                    .collect();
            if let Some((_, ws)) = by_file.remove(&file.rel_path) {
                findings.extend(ws);
            }
            out.extend(resolve(
                &krate.name,
                &file.rel_path,
                &file.scanned.directives,
                &file.test_ranges,
                findings,
                config,
            ));
        }
    }
    // Findings anchored on files outside the model (e.g. a layering
    // cycle naming a crate with no manifest on disk) resolve with no
    // directives in scope.
    for (file, (crate_name, findings)) in by_file {
        out.extend(resolve(&crate_name, &file, &[], &[], findings, config));
    }
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(out)
}

/// Loads `lint.toml` from the workspace root, falling back to built-in
/// defaults when the file does not exist.
///
/// # Errors
///
/// Returns a message when the file exists but cannot be read or parsed.
pub fn load_config(root: &Path) -> Result<Config, String> {
    let path = root.join("lint.toml");
    if !path.is_file() {
        return Ok(Config::default());
    }
    let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Config::parse(&text)
}

/// Extracts `name = "..."` from the `[package]` section of a manifest.
pub(crate) fn package_name(manifest: &str) -> Option<String> {
    let mut in_package = false;
    for line in manifest.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if !in_package {
            continue;
        }
        if let Some(value) = line.strip_prefix("name") {
            let value = value.trim_start().strip_prefix('=')?.trim();
            return Some(value.trim_matches('"').to_string());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn package_name_parses_workspace_style_manifest() {
        let manifest = "[package]\nname = \"ecas-sim\"\nversion.workspace = true\n";
        assert_eq!(package_name(manifest).as_deref(), Some("ecas-sim"));
    }

    #[test]
    fn trailing_allow_suppresses_finding() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap() // ecas-lint: allow(panic-safety, reason = \"caller checked\")\n}\n";
        let diags = lint_source("ecas-qoe", "f.rs", src, &Config::default());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn standalone_allow_covers_next_line() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    // ecas-lint: allow(panic-safety, reason = \"caller checked\")\n    x.unwrap()\n}\n";
        let diags = lint_source("ecas-qoe", "f.rs", src, &Config::default());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn allow_without_reason_fails_and_does_not_suppress() {
        let src =
            "fn f(x: Option<u8>) -> u8 {\n    x.unwrap() // ecas-lint: allow(panic-safety)\n}\n";
        let diags = lint_source("ecas-qoe", "f.rs", src, &Config::default());
        let rules: Vec<_> = diags.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&"panic-safety"), "{diags:?}");
        assert!(rules.contains(&"allow-reason"), "{diags:?}");
    }

    #[test]
    fn unused_allow_is_reported() {
        let src = "// ecas-lint: allow(determinism, reason = \"nothing here\")\nfn f() {}\n";
        let diags = lint_source("ecas-qoe", "f.rs", src, &Config::default());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "unused-allow");
        assert_eq!(diags[0].severity, Severity::Warn);
    }

    #[test]
    fn findings_in_test_modules_are_skipped() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t(x: Option<u8>) { x.unwrap(); }\n}\n";
        let diags = lint_source("ecas-qoe", "f.rs", src, &Config::default());
        assert!(diags.is_empty(), "{diags:?}");
    }
}
