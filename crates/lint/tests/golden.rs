//! Golden-fixture tests: one bad snippet per rule asserting the rule and
//! line it fires on, one clean snippet asserting silence, and a self-check
//! that the workspace itself lints clean under the checked-in `lint.toml`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use ecas_lint::workspace::WorkspaceModel;
use ecas_lint::wsrules::{
    emitted_names, hot_path_fn_keys, hot_path_matches, registered_names, EmittedName,
    RegisteredName,
};
use ecas_lint::{lint_source, lint_workspace, load_config, Config, Severity};

/// Lints a fixture under `crate_name` with the built-in default config.
fn lint_fixture(crate_name: &str, fixture: &str) -> Vec<ecas_lint::Diagnostic> {
    lint_source(
        crate_name,
        fixture,
        fixture_source(fixture),
        &Config::default(),
    )
}

fn fixture_source(fixture: &str) -> &'static str {
    match fixture {
        "bad_determinism.rs" => include_str!("fixtures/bad_determinism.rs"),
        "bad_unit_safety.rs" => include_str!("fixtures/bad_unit_safety.rs"),
        "bad_panic_safety.rs" => include_str!("fixtures/bad_panic_safety.rs"),
        "bad_slice_indexing.rs" => include_str!("fixtures/bad_slice_indexing.rs"),
        "bad_float_compare.rs" => include_str!("fixtures/bad_float_compare.rs"),
        "bad_obs_purity.rs" => include_str!("fixtures/bad_obs_purity.rs"),
        "bad_allow_reason.rs" => include_str!("fixtures/bad_allow_reason.rs"),
        "bad_unused_allow.rs" => include_str!("fixtures/bad_unused_allow.rs"),
        "bad_bench_cli.rs" => include_str!("fixtures/bad_bench_cli.rs"),
        "clean.rs" => include_str!("fixtures/clean.rs"),
        other => panic!("unknown fixture {other}"),
    }
}

/// Asserts that `diags` contains a finding for `rule` at `line`.
fn assert_fires(diags: &[ecas_lint::Diagnostic], rule: &str, line: u32) {
    assert!(
        diags.iter().any(|d| d.rule == rule && d.line == line),
        "expected [{rule}] at line {line}, got: {diags:#?}"
    );
}

#[test]
fn determinism_fixture_fires() {
    let diags = lint_fixture("ecas-sim", "bad_determinism.rs");
    assert_fires(&diags, "determinism", 2); // use std::collections::HashMap
    assert_fires(&diags, "determinism", 4); // &HashMap<...> parameter
}

#[test]
fn determinism_is_scoped_to_simulation_crates() {
    // The same source in an out-of-scope crate raises nothing.
    let diags = lint_fixture("ecas-bench", "bad_determinism.rs");
    assert!(
        !diags.iter().any(|d| d.rule == "determinism"),
        "determinism should not apply to ecas-bench: {diags:#?}"
    );
}

#[test]
fn unit_safety_fixture_fires() {
    let diags = lint_fixture("ecas-sim", "bad_unit_safety.rs");
    assert_fires(&diags, "unit-safety", 3); // size_bytes: f64 field
    assert_fires(&diags, "unit-safety", 6); // chunk_mbps: f64 parameter
}

#[test]
fn unit_safety_exempts_the_newtype_crate() {
    let diags = lint_fixture("ecas-types", "bad_unit_safety.rs");
    assert!(
        !diags.iter().any(|d| d.rule == "unit-safety"),
        "ecas-types defines the newtypes and is exempt: {diags:#?}"
    );
}

#[test]
fn panic_safety_fixture_fires() {
    let diags = lint_fixture("ecas-sim", "bad_panic_safety.rs");
    assert_fires(&diags, "panic-safety", 3); // .unwrap()
    assert_fires(&diags, "panic-safety", 7); // .expect(..)
}

#[test]
fn panic_safety_skips_binary_targets() {
    let source = fixture_source("bad_panic_safety.rs");
    let diags = lint_source(
        "ecas-bench",
        "crates/bench/src/bin/fig5.rs",
        source,
        &Config::default(),
    );
    assert!(
        !diags.iter().any(|d| d.rule == "panic-safety"),
        "a CLI main aborting with a message is its error path: {diags:#?}"
    );
}

#[test]
fn slice_indexing_is_an_opt_in_ratchet() {
    // Default severity is allow: nothing fires.
    let diags = lint_fixture("ecas-qoe", "bad_slice_indexing.rs");
    assert!(
        !diags.iter().any(|d| d.rule == "slice-indexing"),
        "slice-indexing defaults to allow: {diags:#?}"
    );

    // An opted-in crate denies it.
    let mut config = Config::default();
    config
        .overrides
        .entry("ecas-sim".to_string())
        .or_default()
        .insert("slice-indexing".to_string(), Severity::Deny);
    let source = fixture_source("bad_slice_indexing.rs");
    let diags = lint_source("ecas-sim", "bad_slice_indexing.rs", source, &config);
    assert_fires(&diags, "slice-indexing", 3); // values[1]
}

#[test]
fn float_compare_fixture_fires() {
    let diags = lint_fixture("ecas-sim", "bad_float_compare.rs");
    assert_fires(&diags, "float-compare", 3); // x == 1.0
    assert_fires(&diags, "float-compare", 7); // partial_cmp(..).unwrap()
}

#[test]
fn obs_purity_fixture_fires() {
    let diags = lint_fixture("ecas-obs", "bad_obs_purity.rs");
    assert_fires(&diags, "obs-purity", 3); // SessionEvent { .. elapsed .. }
}

#[test]
fn allow_without_reason_does_not_suppress() {
    let diags = lint_fixture("ecas-sim", "bad_allow_reason.rs");
    assert_fires(&diags, "allow-reason", 3); // the reason-less directive
    assert_fires(&diags, "panic-safety", 4); // still reported
}

#[test]
fn unused_allow_warns() {
    let diags = lint_fixture("ecas-sim", "bad_unused_allow.rs");
    let unused: Vec<_> = diags.iter().filter(|d| d.rule == "unused-allow").collect();
    assert_eq!(unused.len(), 1, "exactly one unused directive: {diags:#?}");
    assert_eq!(unused[0].line, 3);
    assert_eq!(unused[0].severity, Severity::Warn);
}

#[test]
fn bench_cli_fixture_fires_inside_bin_targets_only() {
    let source = fixture_source("bad_bench_cli.rs");
    let diags = lint_source(
        "ecas-bench",
        "crates/bench/src/bin/bad_bench_cli.rs",
        source,
        &Config::default(),
    );
    assert_fires(&diags, "bench-cli", 4); // std::env::args()

    // The same source outside bin/ (e.g. the shared parser) is exempt.
    let diags = lint_source(
        "ecas-bench",
        "crates/bench/src/cli.rs",
        source,
        &Config::default(),
    );
    assert!(
        !diags.iter().any(|d| d.rule == "bench-cli"),
        "bench-cli must be scoped to crates/bench/src/bin/: {diags:#?}"
    );
}

#[test]
fn clean_fixture_is_silent() {
    let diags = lint_fixture("ecas-sim", "clean.rs");
    assert!(
        diags.is_empty(),
        "clean fixture must lint clean: {diags:#?}"
    );
}

/// The real workspace root (two levels above the lint crate).
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("lint crate lives two levels below the workspace root")
        .to_path_buf()
}

/// Lints a fixture mini-workspace under `tests/fixtures/` with its own
/// checked-in `lint.toml`.
fn lint_fixture_workspace(name: &str) -> Vec<ecas_lint::Diagnostic> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let config = load_config(&root).expect("fixture lint.toml parses");
    lint_workspace(&root, &config).expect("fixture workspace scan succeeds")
}

/// The workspace itself must stay clean under the checked-in `lint.toml`:
/// this is the same gate CI runs, kept honest from inside the test suite.
#[test]
fn workspace_self_check_has_no_deny_findings() {
    let root = workspace_root();
    let config = load_config(&root).expect("lint.toml parses");
    let diags = lint_workspace(&root, &config).expect("workspace scan succeeds");
    let deny: Vec<_> = diags
        .iter()
        .filter(|d| d.severity == Severity::Deny)
        .collect();
    assert!(deny.is_empty(), "workspace deny findings: {deny:#?}");
}

#[test]
fn layering_fixture_flags_unsanctioned_edge_and_honours_toml_allow() {
    let diags = lint_fixture_workspace("ws_layering");
    let layering: Vec<_> = diags.iter().filter(|d| d.rule == "layering").collect();
    assert_eq!(layering.len(), 1, "exactly the rogue->top edge: {diags:#?}");
    assert_eq!(layering[0].file, "crates/rogue/Cargo.toml");
    assert_eq!(layering[0].line, 5); // top = { path = "../top" }
    assert!(layering[0].message.contains("`top`"), "{:?}", layering[0]);
    // rogue -> base is suppressed by the trailing `# ecas-lint: allow(...)`
    // TOML comment; sanctioned edges (mid -> base, top -> mid) are silent.
    assert!(
        !diags.iter().any(|d| d.message.contains("`base`")),
        "{diags:#?}"
    );
}

#[test]
fn layering_cycle_fixture_reports_the_dependency_cycle() {
    let diags = lint_fixture_workspace("ws_layering_cycle");
    assert!(
        diags
            .iter()
            .any(|d| d.rule == "layering"
                && d.message.contains("crate dependency cycle: a -> b -> a")),
        "{diags:#?}"
    );
}

#[test]
fn hot_path_alloc_fixture_fires_in_hot_loops_only() {
    let diags = lint_fixture_workspace("ws_hot_alloc");
    let hot: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == "hot-path-alloc")
        .collect();
    assert_eq!(hot.len(), 2, "format! and to_vec in hot_loop: {diags:#?}");
    assert!(hot
        .iter()
        .any(|d| d.line == 6 && d.message.contains("format!")));
    assert!(hot
        .iter()
        .any(|d| d.line == 7 && d.message.contains("to_vec")));
    // cold_loop is not a configured hot path; hot_allowed carries a
    // trailing allow directive.
    assert!(hot.iter().all(|d| d.line < 13), "{diags:#?}");
}

#[test]
fn obs_names_fixture_round_trips_against_its_registry() {
    let diags = lint_fixture_workspace("ws_obs_names");
    let obs: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == "obs-name-registry")
        .collect();
    // "good/counter" is registered: silent. "rogue/counter" is not: deny.
    // "pardoned/counter" is suppressed by its directive. "stale/counter"
    // is registered but never emitted: advisory warn on the registry line.
    let rogue: Vec<_> = obs
        .iter()
        .filter(|d| d.message.contains("\"rogue/counter\""))
        .collect();
    assert_eq!(rogue.len(), 1, "{diags:#?}");
    assert_eq!(rogue[0].severity, Severity::Deny);
    assert_eq!(rogue[0].file, "crates/emits/src/lib.rs");
    assert_eq!(rogue[0].line, 11);
    assert!(!obs.iter().any(|d| d.message.contains("\"good/counter\"")));
    assert!(!obs
        .iter()
        .any(|d| d.message.contains("\"pardoned/counter\"")));
    let stale: Vec<_> = obs
        .iter()
        .filter(|d| d.message.contains("\"stale/counter\""))
        .collect();
    assert_eq!(stale.len(), 1, "{diags:#?}");
    assert_eq!(stale[0].severity, Severity::Warn);
    assert_eq!(stale[0].file, "crates/reg/src/names.rs");
    assert_eq!(stale[0].line, 4);
}

#[test]
fn pub_surface_fixture_flags_unreferenced_items_only() {
    let diags = lint_fixture_workspace("ws_pub_surface");
    let surface: Vec<_> = diags.iter().filter(|d| d.rule == "pub-surface").collect();
    // `Unused` and `orphan` have no references; `Used` is named by beta,
    // `pardoned` carries an allow, and beta itself is scope-exempt.
    assert_eq!(surface.len(), 2, "{diags:#?}");
    assert!(surface.iter().all(|d| d.file == "crates/alpha/src/lib.rs"));
    assert!(surface.iter().any(|d| d.message.contains("`Unused`")));
    assert!(surface.iter().any(|d| d.message.contains("`orphan`")));
}

/// Round trip on the real workspace: the checked-in registry is
/// well-formed (every entry a named const, values unique) and every
/// literal metric name still emitted anywhere is registered.
#[test]
fn obs_registry_round_trips_on_the_real_workspace() {
    let root = workspace_root();
    let config = load_config(&root).expect("lint.toml parses");
    let model = WorkspaceModel::load(&root, &config).expect("model loads");
    let registered: Vec<RegisteredName> =
        registered_names(&model, &config).expect("registry file is in the model");
    assert!(!registered.is_empty(), "registry must not be empty");
    let mut values = BTreeSet::new();
    for entry in &registered {
        assert!(
            entry.const_name.is_some(),
            "registry line {} is not a named const",
            entry.line
        );
        assert!(
            values.insert(entry.value.as_str()),
            "duplicate registry value {:?}",
            entry.value
        );
    }
    let emitted: Vec<EmittedName> = emitted_names(&model);
    for site in emitted {
        if site.file == config.obs_registry {
            continue;
        }
        assert!(
            values.contains(site.name.as_str()),
            "literal metric name {:?} at {}:{} is not registered",
            site.name,
            site.file,
            site.line
        );
    }
}

/// Every configured `[hot-paths]` pattern must still match at least one
/// real function, so renames cannot silently shrink the rule's scope.
#[test]
fn hot_path_patterns_match_real_functions() {
    let root = workspace_root();
    let config = load_config(&root).expect("lint.toml parses");
    assert!(
        !config.hot_paths.is_empty(),
        "hot-path scope must be configured"
    );
    let model = WorkspaceModel::load(&root, &config).expect("model loads");
    let keys = hot_path_fn_keys(&model);
    for pattern in &config.hot_paths {
        assert!(
            keys.iter().any(|k| hot_path_matches(pattern, k)),
            "hot-path pattern `{pattern}` matches no function in the workspace"
        );
    }
}
