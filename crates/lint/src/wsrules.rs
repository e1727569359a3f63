//! The workspace-level rules: layering, hot-path-alloc,
//! obs-name-registry and pub-surface. Each walks the [`WorkspaceModel`]
//! and reports raw findings anchored on a file (source or manifest);
//! severity resolution and `allow` suppression happen in the engine,
//! exactly as for the per-file rules.

use std::collections::{BTreeMap, BTreeSet};

use crate::config::{Config, Severity};
use crate::item::{loop_bodies, ItemKind};
use crate::rules::{is_binary_target, RawFinding};
use crate::scan::{matching_close, Kind, Token};
use crate::workspace::{FileModel, WorkspaceModel};

/// A workspace-rule finding, anchored on a workspace-relative file.
#[derive(Debug)]
pub(crate) struct WsFinding {
    /// Crate the finding is attributed to (drives severity overrides).
    pub crate_name: String,
    /// Workspace-relative file (a source file or a `Cargo.toml`).
    pub file: String,
    /// The finding itself.
    pub finding: RawFinding,
    /// Optional severity ceiling: the effective severity is
    /// `min(configured, cap)`. Used for advisory sub-findings of a
    /// deny rule (e.g. unused registry names).
    pub cap: Option<Severity>,
}

/// Runs every workspace rule over the model.
#[must_use]
pub(crate) fn run_workspace(model: &WorkspaceModel, config: &Config) -> Vec<WsFinding> {
    let mut out = Vec::new();
    layering(model, config, &mut out);
    hot_path_alloc(model, config, &mut out);
    obs_names(model, config, &mut out);
    pub_surface(model, config, &mut out);
    out
}

// ---------------------------------------------------------------- layering

/// Transitive closure of the *declared* layering lists, or the first
/// cycle found in them. Exposed for the cycle-detection unit tests.
pub(crate) fn declared_closure(
    map: &BTreeMap<String, Vec<String>>,
) -> Result<BTreeMap<String, BTreeSet<String>>, Vec<String>> {
    fn visit(
        k: &str,
        map: &BTreeMap<String, Vec<String>>,
        memo: &mut BTreeMap<String, BTreeSet<String>>,
        path: &mut Vec<String>,
    ) -> Result<BTreeSet<String>, Vec<String>> {
        if let Some(done) = memo.get(k) {
            return Ok(done.clone());
        }
        if let Some(pos) = path.iter().position(|p| p == k) {
            let mut cycle = path[pos..].to_vec();
            cycle.push(k.to_string());
            return Err(cycle);
        }
        path.push(k.to_string());
        let mut closure = BTreeSet::new();
        for dep in map.get(k).map(Vec::as_slice).unwrap_or_default() {
            closure.insert(dep.clone());
            closure.extend(visit(dep, map, memo, path)?);
        }
        path.pop();
        memo.insert(k.to_string(), closure.clone());
        Ok(closure)
    }

    let mut memo = BTreeMap::new();
    for k in map.keys() {
        visit(k, map, &mut memo, &mut Vec::new())?;
    }
    Ok(memo)
}

/// First cycle in the *actual* first-party dependency graph, if any.
pub(crate) fn actual_cycle(model: &WorkspaceModel) -> Option<Vec<String>> {
    let edges: BTreeMap<String, Vec<String>> = model
        .crates
        .iter()
        .map(|c| (c.name.clone(), c.deps.iter().map(|d| d.name.clone()).collect()))
        .collect();
    declared_closure(&edges).err()
}

fn layering(model: &WorkspaceModel, config: &Config, out: &mut Vec<WsFinding>) {
    if config.layering.is_empty() {
        return;
    }

    let anchor = |name: &str| -> (String, String) {
        model.by_name(name).map_or_else(
            || (name.to_string(), "lint.toml".to_string()),
            |c| (c.name.clone(), c.manifest_rel.clone()),
        )
    };

    let closures = match declared_closure(&config.layering) {
        Ok(closures) => closures,
        Err(cycle) => {
            let (crate_name, file) = anchor(&cycle[0]);
            out.push(WsFinding {
                crate_name,
                file,
                finding: RawFinding {
                    line: 1,
                    rule: "layering",
                    message: format!(
                        "[layering] configuration contains a cycle: {}",
                        cycle.join(" -> ")
                    ),
                    hint: "the sanctioned crate graph must be a DAG; break the cycle in \
                           lint.toml"
                        .to_string(),
                },
                cap: None,
            });
            return;
        }
    };

    if let Some(cycle) = actual_cycle(model) {
        let (crate_name, file) = anchor(&cycle[0]);
        out.push(WsFinding {
            crate_name,
            file,
            finding: RawFinding {
                line: 1,
                rule: "layering",
                message: format!("crate dependency cycle: {}", cycle.join(" -> ")),
                hint: "break the cycle: extract the shared part into a lower layer"
                    .to_string(),
            },
            cap: None,
        });
    }

    for krate in &model.crates {
        let mut allowed: BTreeSet<&str> = config
            .layering_common
            .iter()
            .map(String::as_str)
            .collect();
        allowed.extend(
            config
                .layering
                .get(&krate.name)
                .map(Vec::as_slice)
                .unwrap_or_default()
                .iter()
                .map(String::as_str),
        );
        if let Some(closure) = closures.get(&krate.name) {
            allowed.extend(closure.iter().map(String::as_str));
        }
        for dep in &krate.deps {
            if !allowed.contains(dep.name.as_str()) {
                out.push(WsFinding {
                    crate_name: krate.name.clone(),
                    file: krate.manifest_rel.clone(),
                    finding: RawFinding {
                        line: dep.line,
                        rule: "layering",
                        message: format!(
                            "dependency `{}` is outside the sanctioned layering for `{}`",
                            dep.name, krate.name
                        ),
                        hint: "extend [layering] in lint.toml deliberately, or route the \
                               access through an already-sanctioned layer"
                            .to_string(),
                    },
                    cap: None,
                });
            }
        }
    }
}

// ---------------------------------------------------------- hot-path-alloc

/// Allocating method calls (`expr.m(...)`) watched inside hot loops.
const ALLOC_METHODS: &[&str] = &["clone", "to_vec", "collect"];
/// Allocating path calls (`Type::fn(...)`) watched inside hot loops.
const ALLOC_PATHS: &[(&str, &str)] = &[("Vec", "new"), ("String", "from"), ("Box", "new")];

/// Whether a `[hot-paths]` pattern matches a `crate::file_stem::fn_name`
/// key (a trailing `*` globs the tail).
#[must_use]
pub fn hot_path_matches(pattern: &str, key: &str) -> bool {
    pattern
        .strip_suffix('*')
        .map_or(pattern == key, |prefix| key.starts_with(prefix))
}

/// Every `crate::file_stem::fn_name` key of a body-bearing function in
/// the model — the domain `[hot-paths]` patterns match against. Exposed
/// so the test suite can assert the configured patterns still match real
/// functions (guarding against silent scope rot after renames).
#[must_use]
pub fn hot_path_fn_keys(model: &WorkspaceModel) -> Vec<String> {
    let mut keys = Vec::new();
    for krate in &model.crates {
        for file in &krate.files {
            let stem = file_stem(&file.rel_path);
            for item in &file.items {
                if item.kind == ItemKind::Fn && item.body.is_some() {
                    keys.push(format!("{}::{stem}::{}", krate.name, item.name));
                }
            }
        }
    }
    keys
}

fn file_stem(rel_path: &str) -> &str {
    rel_path
        .rsplit('/')
        .next()
        .unwrap_or(rel_path)
        .trim_end_matches(".rs")
}

fn hot_path_alloc(model: &WorkspaceModel, config: &Config, out: &mut Vec<WsFinding>) {
    if config.hot_paths.is_empty() {
        return;
    }
    for krate in &model.crates {
        for file in &krate.files {
            let stem = file_stem(&file.rel_path);
            for item in &file.items {
                if item.kind != ItemKind::Fn {
                    continue;
                }
                let Some((open, close)) = item.body else {
                    continue;
                };
                let key = format!("{}::{stem}::{}", krate.name, item.name);
                if !config.hot_paths.iter().any(|p| hot_path_matches(p, &key)) {
                    continue;
                }
                let tokens = &file.scanned.tokens;
                let loops = loop_bodies(tokens, open + 1, close);
                let mut flagged = BTreeSet::new();
                for &(lo, lc) in &loops {
                    for i in lo + 1..lc {
                        if !flagged.insert(i) {
                            continue;
                        }
                        if let Some(what) = alloc_at(tokens, i) {
                            out.push(WsFinding {
                                crate_name: krate.name.clone(),
                                file: file.rel_path.clone(),
                                finding: RawFinding {
                                    line: tokens[i].line,
                                    rule: "hot-path-alloc",
                                    message: format!(
                                        "{what} inside a loop of hot path `{key}`"
                                    ),
                                    hint: "hoist the allocation out of the loop or reuse a \
                                           preallocated buffer; hot paths are gated by \
                                           BENCH_core.json"
                                        .to_string(),
                                },
                                cap: None,
                            });
                        }
                    }
                }
            }
        }
    }
}

/// If the token at `i` is an allocating call site, a description of it.
fn alloc_at(tokens: &[Token], i: usize) -> Option<String> {
    let t = tokens.get(i)?;
    if t.kind != Kind::Ident {
        return None;
    }
    let prev_dot = matches!(tokens.get(i.wrapping_sub(1)), Some(p) if p.is_punct("."));
    let next_paren = matches!(tokens.get(i + 1), Some(p) if p.is_punct("("));
    if prev_dot && next_paren && ALLOC_METHODS.iter().any(|m| t.is_ident(m)) {
        return Some(format!("allocating call `.{}()`", t.text));
    }
    if t.is_ident("format") && matches!(tokens.get(i + 1), Some(p) if p.is_punct("!")) {
        return Some("allocating macro `format!`".to_string());
    }
    if let Some((ty, f)) = ALLOC_PATHS.iter().find(|(ty, _)| t.is_ident(ty)) {
        if matches!(tokens.get(i + 1), Some(p) if p.is_punct("::"))
            && matches!(tokens.get(i + 2), Some(n) if n.is_ident(f))
        {
            return Some(format!("allocating call `{ty}::{f}`"));
        }
    }
    None
}

// ------------------------------------------------------- obs-name-registry

/// Registry-emitting methods whose first string-literal argument is a
/// metric name: `probe.add("...")`, `registry.gauge("...")`, ….
const EMIT_METHODS: &[&str] = &[
    "add",
    "gauge",
    "observe",
    "record_span",
    "register_histogram",
    "span",
];

/// One literal metric name passed to the registry in non-test code.
#[derive(Debug, Clone)]
pub struct EmittedName {
    /// Workspace-relative file of the emission site.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// The literal name.
    pub name: String,
}

/// One `pub const NAME: &str = "value";` entry of the registry file.
#[derive(Debug, Clone)]
pub struct RegisteredName {
    /// 1-based line in the registry file.
    pub line: u32,
    /// Constant identifier, when the literal sits on a const line.
    pub const_name: Option<String>,
    /// The registered name value.
    pub value: String,
}

/// Whether `line` falls inside any `#[cfg(test)]` range.
fn in_test(ranges: &[(u32, u32)], line: u32) -> bool {
    ranges.iter().any(|&(lo, hi)| lo <= line && line <= hi)
}

/// Token indices that open argument positions of the group starting at
/// `open`: the index right after `(` and right after each depth-1 `,`.
fn arg_anchors(tokens: &[Token], open: usize) -> BTreeSet<usize> {
    let close = matching_close(tokens, open, "(", ")");
    let mut anchors = BTreeSet::from([open + 1]);
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().take(close).skip(open) {
        if t.kind != Kind::Punct {
            continue;
        }
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth = depth.saturating_sub(1),
            "," if depth == 1 => {
                anchors.insert(i + 1);
            }
            _ => {}
        }
    }
    anchors
}

/// Collects every literal metric name emitted in non-test code of one
/// file: first-argument literals of [`EMIT_METHODS`] calls, argument
/// literals of `SpanGuard::new(...)`, and of the `span!(...)` macro.
fn emitted_in_file(file: &FileModel) -> Vec<EmittedName> {
    let tokens = &file.scanned.tokens;
    let strings = &file.scanned.strings;
    let mut anchors: BTreeSet<usize> = BTreeSet::new();

    for (i, t) in tokens.iter().enumerate() {
        if t.kind != Kind::Ident {
            continue;
        }
        let prev_dot = matches!(tokens.get(i.wrapping_sub(1)), Some(p) if p.is_punct("."));
        let next = tokens.get(i + 1);
        if prev_dot
            && matches!(next, Some(p) if p.is_punct("("))
            && EMIT_METHODS.iter().any(|m| t.is_ident(m))
        {
            // First argument only: the literal anchored right after `(`.
            anchors.insert(i + 2);
        }
        if t.is_ident("SpanGuard")
            && matches!(next, Some(p) if p.is_punct("::"))
            && matches!(tokens.get(i + 2), Some(n) if n.is_ident("new"))
            && matches!(tokens.get(i + 3), Some(p) if p.is_punct("("))
        {
            anchors.extend(arg_anchors(tokens, i + 3));
        }
        if t.is_ident("span")
            && !prev_dot
            && matches!(next, Some(p) if p.is_punct("!"))
            && matches!(tokens.get(i + 2), Some(p) if p.is_punct("("))
        {
            anchors.extend(arg_anchors(tokens, i + 2));
        }
    }

    strings
        .iter()
        .filter(|s| anchors.contains(&s.anchor) && !in_test(&file.test_ranges, s.line))
        .map(|s| EmittedName {
            file: file.rel_path.clone(),
            line: s.line,
            name: s.text.clone(),
        })
        .collect()
}

/// Every literal metric name emitted in non-test code of the workspace.
#[must_use]
pub fn emitted_names(model: &WorkspaceModel) -> Vec<EmittedName> {
    let mut out = Vec::new();
    for krate in &model.crates {
        for file in &krate.files {
            out.extend(emitted_in_file(file));
        }
    }
    out
}

/// The entries of the checked-in registry file, or `None` when the file
/// is not part of the workspace model.
#[must_use]
pub fn registered_names(model: &WorkspaceModel, config: &Config) -> Option<Vec<RegisteredName>> {
    let (_, file) = model.file(&config.obs_registry)?;
    Some(
        file.scanned
            .strings
            .iter()
            .filter(|s| !in_test(&file.test_ranges, s.line))
            .map(|s| RegisteredName {
                line: s.line,
                const_name: file
                    .items
                    .iter()
                    .find(|i| i.kind == ItemKind::Const && i.line == s.line)
                    .map(|i| i.name.clone()),
                value: s.text.clone(),
            })
            .collect(),
    )
}

fn obs_names(model: &WorkspaceModel, config: &Config, out: &mut Vec<WsFinding>) {
    let registry = registered_names(model, config);
    let registered: BTreeSet<&str> = registry
        .iter()
        .flatten()
        .map(|r| r.value.as_str())
        .collect();

    let mut emitted_values: BTreeSet<String> = BTreeSet::new();
    for krate in &model.crates {
        for file in &krate.files {
            if file.rel_path == config.obs_registry {
                continue;
            }
            for site in emitted_in_file(file) {
                emitted_values.insert(site.name.clone());
                let (message, hint) = if registry.is_none() {
                    (
                        format!(
                            "metric name registry `{}` not found in the workspace",
                            config.obs_registry
                        ),
                        "check [obs-names] registry in lint.toml, or create the registry \
                         module"
                            .to_string(),
                    )
                } else if registered.contains(site.name.as_str()) {
                    continue;
                } else {
                    (
                        format!(
                            "metric name \"{}\" is not in the checked-in registry `{}`",
                            site.name, config.obs_registry
                        ),
                        "register it as a named constant and emit via that constant; the \
                         BENCH gate compares these names byte-for-byte"
                            .to_string(),
                    )
                };
                out.push(WsFinding {
                    crate_name: krate.name.clone(),
                    file: site.file,
                    finding: RawFinding {
                        line: site.line,
                        rule: "obs-name-registry",
                        message,
                        hint,
                    },
                    cap: None,
                });
            }
        }
    }

    // The reverse direction: registered names nobody emits or references
    // are advisory findings (the registry must not accrete dead names).
    let Some(registry) = registry else { return };
    let Some((reg_crate, _)) = model.file(&config.obs_registry) else {
        return;
    };
    for entry in registry {
        if emitted_values.contains(&entry.value) {
            continue;
        }
        let referenced = entry.const_name.as_ref().is_some_and(|ident| {
            let in_other_crates = model
                .crates
                .iter()
                .filter(|c| c.name != reg_crate.name)
                .any(|c| c.all_words.contains(ident));
            let in_own_ext = reg_crate.ext_words.contains(ident);
            let in_own_lib = reg_crate
                .files
                .iter()
                .filter(|f| f.rel_path != config.obs_registry)
                .any(|f| f.scanned.tokens.iter().any(|t| t.is_ident(ident)));
            in_other_crates || in_own_ext || in_own_lib
        });
        if !referenced {
            out.push(WsFinding {
                crate_name: reg_crate.name.clone(),
                file: config.obs_registry.clone(),
                finding: RawFinding {
                    line: entry.line,
                    rule: "obs-name-registry",
                    message: format!(
                        "registered metric name \"{}\" is never emitted or referenced",
                        entry.value
                    ),
                    hint: "delete the stale registry entry, or wire the emitter to the \
                           constant"
                        .to_string(),
                },
                cap: Some(Severity::Warn),
            });
        }
    }
}

// ------------------------------------------------------------- pub-surface

/// Item kinds the pub-surface rule audits: nameable, module-level API.
const SURFACE_KINDS: &[ItemKind] = &[
    ItemKind::Fn,
    ItemKind::Struct,
    ItemKind::Enum,
    ItemKind::Union,
    ItemKind::Trait,
    ItemKind::Const,
    ItemKind::Static,
    ItemKind::TypeAlias,
];

fn pub_surface(model: &WorkspaceModel, config: &Config, out: &mut Vec<WsFinding>) {
    for krate in &model.crates {
        if !config.pub_surface_applies(&krate.name) {
            continue;
        }
        for file in &krate.files {
            if is_binary_target(&file.rel_path) {
                continue;
            }
            for item in &file.items {
                if item.in_impl
                    || !item.effective_pub
                    || item.name.is_empty()
                    || !SURFACE_KINDS.contains(&item.kind)
                {
                    continue;
                }
                let name = item.name.as_str();
                let referenced = krate.ext_words.contains(name)
                    || krate.doc_words.contains(name)
                    || model
                        .crates
                        .iter()
                        .filter(|c| c.name != krate.name)
                        .any(|c| c.all_words.contains(name));
                if !referenced {
                    out.push(WsFinding {
                        crate_name: krate.name.clone(),
                        file: file.rel_path.clone(),
                        finding: RawFinding {
                            line: item.line,
                            rule: "pub-surface",
                            message: format!(
                                "pub item `{name}` is not referenced by any other \
                                 workspace crate or dependent target"
                            ),
                            hint: "narrow it to pub(crate), or keep it public with \
                                   // ecas-lint: allow(pub-surface, reason = \"...\")"
                                .to_string(),
                        },
                        cap: None,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_closure_is_transitive() {
        let mut map = BTreeMap::new();
        map.insert("top".to_string(), vec!["mid".to_string()]);
        map.insert("mid".to_string(), vec!["base".to_string()]);
        map.insert("base".to_string(), Vec::new());
        let closures = declared_closure(&map).expect("acyclic");
        assert!(closures["top"].contains("mid"));
        assert!(closures["top"].contains("base"));
        assert!(closures["mid"].contains("base"));
        assert!(!closures["base"].contains("top"));
    }

    #[test]
    fn declared_closure_detects_cycles() {
        let mut map = BTreeMap::new();
        map.insert("a".to_string(), vec!["b".to_string()]);
        map.insert("b".to_string(), vec!["c".to_string()]);
        map.insert("c".to_string(), vec!["a".to_string()]);
        let cycle = declared_closure(&map).expect_err("cyclic");
        assert_eq!(cycle.first(), cycle.last());
        assert!(cycle.len() == 4, "{cycle:?}");
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut map = BTreeMap::new();
        map.insert("a".to_string(), vec!["a".to_string()]);
        let cycle = declared_closure(&map).expect_err("self-cyclic");
        assert_eq!(cycle, ["a", "a"]);
    }

    #[test]
    fn hot_path_patterns_glob_the_tail() {
        assert!(hot_path_matches(
            "ecas-sim::player::run_inner",
            "ecas-sim::player::run_inner"
        ));
        assert!(hot_path_matches(
            "ecas-abr::optimal::forward*",
            "ecas-abr::optimal::forward_dp"
        ));
        assert!(!hot_path_matches(
            "ecas-abr::optimal::forward*",
            "ecas-abr::optimal::objective_of"
        ));
    }
}
