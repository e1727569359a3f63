//! The domain rules: each walks the token stream of one file and reports
//! raw findings. Severity resolution and `allow` suppression happen in the
//! engine ([`crate::lint_source`]), not here.

use crate::config::Config;
use crate::scan::{matching_close, Kind, Token};

/// A rule match before severity resolution and allow-filtering.
#[derive(Debug, Clone)]
pub(crate) struct RawFinding {
    /// 1-based source line.
    pub line: u32,
    /// Rule identifier (kebab-case, as used in `lint.toml` and allows).
    pub rule: &'static str,
    /// One-sentence statement of the violation.
    pub message: String,
    /// How to fix it.
    pub hint: String,
}

/// Name and one-line summary of every rule, for `--list-rules` and docs.
pub const RULES: &[(&str, &str)] = &[
    (
        "determinism",
        "no wall-clock, ambient entropy or hash-order iteration in simulation crates",
    ),
    (
        "unit-safety",
        "quantity-named raw f64 parameters/fields must use ecas_types::units newtypes",
    ),
    (
        "panic-safety",
        "no unwrap/expect/panic!/unreachable! in non-test library code",
    ),
    (
        "slice-indexing",
        "no panicking slice/array indexing (opt-in per crate)",
    ),
    (
        "float-compare",
        "no ==/!= against float literals, no NaN-unsafe partial_cmp().unwrap()",
    ),
    (
        "obs-purity",
        "session event payloads carry simulation-time data only",
    ),
    (
        "allow-reason",
        "every ecas-lint allow directive must carry a reason",
    ),
    ("unused-allow", "allow directives must suppress something"),
    (
        "bench-cli",
        "bench binaries parse arguments through ecas_bench::cli, never std::env::args",
    ),
    (
        "wall-clock",
        "raw Instant/SystemTime only inside the sanctioned ecas-obs perf seam",
    ),
    (
        "layering",
        "crate dependency edges must stay inside the sanctioned [layering] DAG",
    ),
    (
        "hot-path-alloc",
        "no allocating calls inside loops of [hot-paths] functions",
    ),
    (
        "obs-name-registry",
        "metric name literals must be registered in the checked-in obs name registry",
    ),
    (
        "pub-surface",
        "pub items of library crates must be referenced by another workspace crate",
    ),
];

/// Identifiers banned by the determinism rule, with tailored hints.
const NONDETERMINISTIC_IDENTS: &[(&str, &str, &str)] = &[
    (
        "Instant",
        "wall-clock source `std::time::Instant`",
        "simulation time must come from the event loop; wall-clock spans belong in ecas-obs",
    ),
    (
        "SystemTime",
        "wall-clock source `std::time::SystemTime`",
        "derive timestamps from the run seed/configuration, never the host clock",
    ),
    (
        "UNIX_EPOCH",
        "wall-clock anchor `UNIX_EPOCH`",
        "derive timestamps from the run seed/configuration, never the host clock",
    ),
    (
        "thread_rng",
        "ambient entropy source `thread_rng`",
        "use SmallRng::seed_from_u64 with a seed recorded in the run manifest",
    ),
    (
        "ThreadRng",
        "ambient entropy source `ThreadRng`",
        "use SmallRng::seed_from_u64 with a seed recorded in the run manifest",
    ),
    (
        "from_entropy",
        "ambient entropy source `from_entropy`",
        "use SmallRng::seed_from_u64 with a seed recorded in the run manifest",
    ),
    (
        "OsRng",
        "ambient entropy source `OsRng`",
        "use SmallRng::seed_from_u64 with a seed recorded in the run manifest",
    ),
    (
        "HashMap",
        "`HashMap` has nondeterministic iteration order",
        "use BTreeMap so iteration (and any derived output) is reproducible",
    ),
    (
        "HashSet",
        "`HashSet` has nondeterministic iteration order",
        "use BTreeSet so iteration (and any derived output) is reproducible",
    ),
    (
        "RandomState",
        "`RandomState` seeds hashes from process entropy",
        "use ordered collections or a fixed-key hasher",
    ),
];

/// Quantity suffixes the unit-safety rule watches, with the newtype each
/// should use instead.
const QUANTITY_SUFFIXES: &[(&str, &str)] = &[
    ("_mbps", "ecas_types::units::Mbps"),
    ("_bytes", "ecas_types::units::MegaBytes"),
    ("_mb", "ecas_types::units::MegaBytes"),
    ("_secs", "ecas_types::units::Seconds"),
    ("_seconds", "ecas_types::units::Seconds"),
    ("_joules", "ecas_types::units::Joules"),
    ("_mw", "ecas_types::units::Watts"),
    ("_watts", "ecas_types::units::Watts"),
    ("_dbm", "ecas_types::units::Dbm"),
];

/// Wall-clock type names the wall-clock rule bans outside the sanctioned
/// seam, with tailored messages.
const WALL_CLOCK_TYPES: &[(&str, &str)] = &[
    ("Instant", "raw wall-clock type `std::time::Instant`"),
    ("SystemTime", "raw wall-clock type `std::time::SystemTime`"),
    ("UNIX_EPOCH", "raw wall-clock anchor `UNIX_EPOCH`"),
];

/// Identifiers that must never appear inside a `SessionEvent` constructor.
const WALL_CLOCK_IDENTS: &[&str] = &[
    "Instant",
    "SystemTime",
    "UNIX_EPOCH",
    "elapsed",
    "duration_since",
];

/// Returns `true` when `rel_path` is a binary target rather than library
/// code. Panic-safety is a library-code invariant: a CLI `main` aborting
/// with a message *is* its error path.
#[must_use]
pub(crate) fn is_binary_target(rel_path: &str) -> bool {
    rel_path.ends_with("src/main.rs") || rel_path.contains("src/bin/")
}

/// Runs every token-level rule over one file.
#[must_use]
pub(crate) fn run_all(
    crate_name: &str,
    rel_path: &str,
    tokens: &[Token],
    config: &Config,
) -> Vec<RawFinding> {
    let mut findings = Vec::new();
    if config.determinism_applies(crate_name) {
        determinism(tokens, &mut findings);
    }
    if config.wall_clock_applies(crate_name) {
        wall_clock(tokens, &mut findings);
    }
    if config.unit_safety_applies(crate_name) {
        unit_safety(tokens, &mut findings);
    }
    if !is_binary_target(rel_path) {
        panic_safety(tokens, &mut findings);
    }
    slice_indexing(tokens, &mut findings);
    float_compare(tokens, &mut findings);
    obs_purity(tokens, &mut findings);
    if rel_path.contains("crates/bench/src/bin/") {
        bench_cli(tokens, &mut findings);
    }
    findings.sort_by_key(|f| f.line);
    findings
}

fn determinism(tokens: &[Token], out: &mut Vec<RawFinding>) {
    for t in tokens {
        if t.kind != Kind::Ident {
            continue;
        }
        if let Some((_, message, hint)) = NONDETERMINISTIC_IDENTS
            .iter()
            .find(|(ident, _, _)| t.is_ident(ident))
        {
            out.push(RawFinding {
                line: t.line,
                rule: "determinism",
                message: (*message).to_string(),
                hint: (*hint).to_string(),
            });
        }
    }
}

/// Wall-clock types in harness/tooling crates outside the determinism
/// scope. Determinism-scoped crates already ban these (with more) via the
/// determinism rule; everywhere else the timing seam is
/// `ecas_obs::perf` so spans and throughput gauges stay comparable and
/// the two-stream invariant (events deterministic, metrics host-local)
/// is enforced in one place.
fn wall_clock(tokens: &[Token], out: &mut Vec<RawFinding>) {
    for t in tokens {
        if t.kind != Kind::Ident {
            continue;
        }
        if let Some((_, message)) = WALL_CLOCK_TYPES.iter().find(|(ident, _)| t.is_ident(ident)) {
            out.push(RawFinding {
                line: t.line,
                rule: "wall-clock",
                message: (*message).to_string(),
                hint: "time through ecas_obs::perf::Stopwatch so spans and throughput \
                       gauges share one monotonic-clock seam"
                    .to_string(),
            });
        }
    }
}

fn unit_safety(tokens: &[Token], out: &mut Vec<RawFinding>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != Kind::Ident {
            continue;
        }
        let Some((suffix, newtype)) = QUANTITY_SUFFIXES
            .iter()
            .find(|(suffix, _)| t.text.ends_with(suffix))
        else {
            continue;
        };
        // Match `name_secs : [& mut] f64|f32` — a typed parameter, field
        // or let binding carrying a quantity as a raw float.
        let mut j = i + 1;
        if !matches!(tokens.get(j), Some(n) if n.is_punct(":")) {
            continue;
        }
        j += 1;
        while matches!(tokens.get(j), Some(n) if n.is_punct("&") || n.is_ident("mut")) {
            j += 1;
        }
        if matches!(tokens.get(j), Some(n) if n.is_ident("f64") || n.is_ident("f32")) {
            out.push(RawFinding {
                line: t.line,
                rule: "unit-safety",
                message: format!(
                    "raw float named like a physical quantity: `{}` (suffix `{suffix}`)",
                    t.text
                ),
                hint: format!("use {newtype}: newtypes reject NaN and wrong-unit arithmetic"),
            });
        }
    }
}

fn panic_safety(tokens: &[Token], out: &mut Vec<RawFinding>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != Kind::Ident {
            continue;
        }
        let method_call = matches!(tokens.get(i.wrapping_sub(1)), Some(p) if p.is_punct("."))
            && matches!(tokens.get(i + 1), Some(p) if p.is_punct("("));
        let macro_bang = matches!(tokens.get(i + 1), Some(p) if p.is_punct("!"));
        let (message, hint) = match t.text.as_str() {
            "unwrap" | "expect" if method_call => (
                format!("`.{}(..)` in non-test library code", t.text),
                "return the error, use unwrap_or*/if-let, or justify with \
                 // ecas-lint: allow(panic-safety, reason = \"...\")"
                    .to_string(),
            ),
            "panic" | "unreachable" | "todo" | "unimplemented" if macro_bang => (
                format!("`{}!` in non-test library code", t.text),
                "return an error describing the failed invariant, or justify the panic \
                 with an allow directive"
                    .to_string(),
            ),
            _ => continue,
        };
        out.push(RawFinding {
            line: t.line,
            rule: "panic-safety",
            message,
            hint,
        });
    }
}

fn slice_indexing(tokens: &[Token], out: &mut Vec<RawFinding>) {
    let mut last_line = 0;
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_punct("[") || i == 0 {
            continue;
        }
        let Some(prev) = tokens.get(i - 1) else {
            continue;
        };
        // `expr[` — an index expression — is preceded by an identifier, a
        // closing paren or a closing bracket. Attributes (`#[`), types
        // (`: [u8; 4]`) and macros (`vec![`) are preceded by punctuation
        // outside that set.
        let indexes = prev.kind == Kind::Ident || prev.is_punct(")") || prev.is_punct("]");
        // But `] [` only indexes when the `]` closed an index/array, not
        // an attribute; an attribute close is preceded by its own `#[`
        // opener which we cannot see cheaply — in practice `#[attr][`
        // does not occur, so no extra check is needed.
        if indexes && t.line != last_line {
            last_line = t.line;
            out.push(RawFinding {
                line: t.line,
                rule: "slice-indexing",
                message: "slice/array indexing panics when out of bounds".to_string(),
                hint: "use .get()/.get_mut(), iterators, or pattern matching".to_string(),
            });
        }
    }
}

fn float_compare(tokens: &[Token], out: &mut Vec<RawFinding>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.is_punct("==") || t.is_punct("!=") {
            let prev_float =
                matches!(tokens.get(i.wrapping_sub(1)), Some(p) if p.is_float_literal());
            // Allow one leading sign on the right-hand side (`== -1.0`).
            let mut j = i + 1;
            if matches!(tokens.get(j), Some(n) if n.is_punct("-")) {
                j += 1;
            }
            let next_float = matches!(tokens.get(j), Some(n) if n.is_float_literal());
            if prev_float || next_float {
                out.push(RawFinding {
                    line: t.line,
                    rule: "float-compare",
                    message: format!("`{}` against a float literal", t.text),
                    hint: "compare within an epsilon, or use f64::total_cmp / \
                           ecas_types::float helpers"
                        .to_string(),
                });
            }
        }
        // `partial_cmp(...).unwrap()` / `.expect(...)`: NaN turns into a
        // panic at the comparison site.
        if t.is_ident("partial_cmp") && matches!(tokens.get(i + 1), Some(p) if p.is_punct("(")) {
            let close = matching_close(tokens, i + 1, "(", ")");
            if matches!(tokens.get(close + 1), Some(p) if p.is_punct("."))
                && matches!(
                    tokens.get(close + 2),
                    Some(m) if m.is_ident("unwrap") || m.is_ident("expect")
                )
            {
                out.push(RawFinding {
                    line: t.line,
                    rule: "float-compare",
                    message: "NaN-unsafe ordering: `partial_cmp(..)` followed by unwrap/expect"
                        .to_string(),
                    hint: "use f64::total_cmp or the ecas_types::float total-order helpers"
                        .to_string(),
                });
            }
        }
    }
}

/// `env::args` / `env::args_os` in a bench binary: every bin must go
/// through the shared `ecas_bench::cli` parser so flags, validation and
/// `--help` stay uniform across the tool suite.
fn bench_cli(tokens: &[Token], out: &mut Vec<RawFinding>) {
    for (i, t) in tokens.iter().enumerate() {
        if !(t.is_ident("args") || t.is_ident("args_os")) {
            continue;
        }
        let pathy = matches!(tokens.get(i.wrapping_sub(1)), Some(p) if p.is_punct("::"))
            && matches!(tokens.get(i.wrapping_sub(2)), Some(p) if p.is_ident("env"));
        if pathy {
            out.push(RawFinding {
                line: t.line,
                rule: "bench-cli",
                message: format!("direct `env::{}` in a bench binary", t.text),
                hint: "declare the surface with ecas_bench::cli::Cli and call .parse(); \
                       the shared parser provides --help, validation and the common flags"
                    .to_string(),
            });
        }
    }
}

/// Every event reaches the `EventLog` as a `SessionEvent::<Variant>
/// { .. }` or `( .. )` constructor, so those are the payloads checked.
fn obs_purity(tokens: &[Token], out: &mut Vec<RawFinding>) {
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_ident("SessionEvent")
            || !matches!(tokens.get(i + 1), Some(p) if p.is_punct("::"))
            || !matches!(tokens.get(i + 2), Some(v) if v.kind == Kind::Ident)
        {
            continue;
        }
        let (open, close) = match tokens.get(i + 3) {
            Some(p) if p.is_punct("{") => ("{", "}"),
            Some(p) if p.is_punct("(") => ("(", ")"),
            _ => continue,
        };
        let end = matching_close(tokens, i + 3, open, close);
        for arg in tokens.get(i + 4..end).unwrap_or(&[]) {
            if arg.kind == Kind::Ident && WALL_CLOCK_IDENTS.iter().any(|w| arg.is_ident(w)) {
                out.push(RawFinding {
                    line: arg.line,
                    rule: "obs-purity",
                    message: format!(
                        "session event payload references wall-clock symbol `{}`",
                        arg.text
                    ),
                    hint: "a SessionEvent must carry simulation-time data only; wall-clock \
                           timing belongs in a probe span (record_span)"
                        .to_string(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn findings_for(crate_name: &str, src: &str) -> Vec<RawFinding> {
        run_all(
            crate_name,
            "src/lib.rs",
            &scan(src).tokens,
            &Config::default(),
        )
    }

    #[test]
    fn determinism_scoped_by_crate() {
        let src = "use std::time::Instant;";
        assert_eq!(findings_for("ecas-sim", src).len(), 1);
        assert!(findings_for("ecas-obs", src).is_empty());
    }

    #[test]
    fn determinism_ignores_longer_identifiers() {
        // "Instantiates" in an identifier must not match "Instant".
        assert!(findings_for("ecas-sim", "fn instantiates_x(Instantiates: u8) {}").is_empty());
    }

    #[test]
    fn unit_safety_matches_typed_floats_only() {
        let hits = findings_for("ecas-power", "pub tail_seconds: f64,");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "unit-safety");
        assert!(findings_for("ecas-types", "pub tail_seconds: f64,").is_empty());
        assert!(findings_for("ecas-power", "pub tail_seconds: Seconds,").is_empty());
        assert!(findings_for("ecas-power", "rate_hz: f64,").is_empty());
    }

    #[test]
    fn panic_safety_sees_method_calls_and_macros() {
        let hits = findings_for("ecas-qoe", "let x = y.unwrap();\npanic!(\"boom\");");
        assert_eq!(hits.len(), 2);
        // unwrap_or_else is fine.
        assert!(findings_for("ecas-qoe", "y.unwrap_or_else(|| 0)").is_empty());
    }

    #[test]
    fn slice_indexing_skips_attributes_types_and_macros() {
        assert_eq!(
            findings_for("ecas-sim", "let v = xs[i];")
                .iter()
                .filter(|f| f.rule == "slice-indexing")
                .count(),
            1
        );
        for clean in [
            "#[derive(Debug)] struct S;",
            "let v: [u8; 4] = make();",
            "vec![1, 2]",
        ] {
            assert!(
                findings_for("ecas-qoe", clean)
                    .iter()
                    .all(|f| f.rule != "slice-indexing"),
                "false positive on {clean}"
            );
        }
    }

    #[test]
    fn float_compare_literal_and_partial_cmp() {
        let hits = findings_for("ecas-qoe", "if x == 0.5 {}\na.partial_cmp(&b).unwrap();");
        let rules: Vec<_> = hits.iter().filter(|f| f.rule == "float-compare").collect();
        assert_eq!(rules.len(), 2);
        // partial_cmp without unwrap is fine (e.g. a PartialOrd impl).
        assert!(findings_for("ecas-qoe", "Some(self.cmp(other))").is_empty());
        // Integer comparisons are fine.
        assert!(findings_for("ecas-qoe", "if n == 3 {}").is_empty());
    }

    #[test]
    fn bench_cli_fires_only_under_bench_bins() {
        let src = "let args: Vec<String> = std::env::args().skip(1).collect();";
        let in_bin = run_all(
            "ecas-bench",
            "crates/bench/src/bin/fig9.rs",
            &scan(src).tokens,
            &Config::default(),
        );
        assert_eq!(
            in_bin.iter().filter(|f| f.rule == "bench-cli").count(),
            1,
            "{in_bin:#?}"
        );
        // The shared parser itself (bench/src/cli.rs) may read env::args.
        let in_lib = run_all(
            "ecas-bench",
            "crates/bench/src/cli.rs",
            &scan(src).tokens,
            &Config::default(),
        );
        assert!(in_lib.iter().all(|f| f.rule != "bench-cli"));
        // `env::var` and unrelated `args` identifiers stay clean.
        let clean = run_all(
            "ecas-bench",
            "crates/bench/src/bin/fig9.rs",
            &scan("let v = std::env::var(\"HOME\"); fn f(args: &[String]) {}").tokens,
            &Config::default(),
        );
        assert!(clean.iter().all(|f| f.rule != "bench-cli"), "{clean:#?}");
    }

    #[test]
    fn wall_clock_bans_raw_time_types_outside_the_seam() {
        let src = "use std::time::Instant;";
        // Harness crates must go through ecas_obs::perf.
        let bench = findings_for("ecas-bench", src);
        assert_eq!(
            bench.iter().filter(|f| f.rule == "wall-clock").count(),
            1,
            "{bench:#?}"
        );
        // ecas-obs is the sanctioned seam.
        assert!(findings_for("ecas-obs", src).is_empty());
        // Determinism-scoped crates report the stronger determinism rule,
        // not a duplicate wall-clock finding.
        let sim = findings_for("ecas-sim", src);
        assert!(sim.iter().all(|f| f.rule != "wall-clock"), "{sim:#?}");
        assert_eq!(sim.iter().filter(|f| f.rule == "determinism").count(), 1);
        // The perf seam's own API does not trip the rule.
        assert!(findings_for("ecas-bench", "let w = Stopwatch::start();").is_empty());
        // Exact-identifier match only.
        assert!(findings_for("ecas-bench", "struct Instants;").is_empty());
    }

    #[test]
    fn obs_purity_checks_session_event_payloads() {
        let bad = "log.push(SessionEvent::StallStart { at: secs(start.elapsed()) });";
        let hits = findings_for("ecas-obs", bad);
        assert_eq!(hits.iter().filter(|f| f.rule == "obs-purity").count(), 1);
        let tuple = findings_for("ecas-obs", "log.push(SessionEvent::Tick(t.elapsed()));");
        assert_eq!(tuple.iter().filter(|f| f.rule == "obs-purity").count(), 1);
        let clean = "log.push(SessionEvent::StallStart { at: Seconds::new(now) });";
        assert!(findings_for("ecas-obs", clean).is_empty());
    }
}
