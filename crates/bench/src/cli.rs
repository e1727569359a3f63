//! Shared command-line parsing for the bench binaries.
//!
//! Every `crates/bench/src/bin/*.rs` tool declares its surface through
//! [`Cli`] — a tiny declarative builder over the handful of flags the
//! binaries used to reimplement by hand (`--json` / `--markdown` /
//! `--smoke` / `--obs <dir>` / `--jobs <n>` / `--cache-dir <dir>`) —
//! and gets parsing, validation and a generated `--help` for free.
//!
//! ```no_run
//! use ecas_bench::cli::Cli;
//!
//! let args = Cli::new("fig5", "per-trace energy savings (Fig. 5)")
//!     .formats()
//!     .grid()
//!     .parse();
//! let _policy = args.exec_policy();
//! ```
//!
//! [`Cli::parse`] reads the process arguments and exits the process on
//! `--help` (status 0) or a usage error (status 2); [`Cli::parse_from`]
//! is the pure variant the tests drive.

use std::path::PathBuf;

use ecas_core::ExecPolicy;

use crate::report::Format;

/// A declared `--flag` switch (present or absent, no value).
#[derive(Debug, Clone, Copy)]
struct Switch {
    flag: &'static str,
    help: &'static str,
}

/// A declared `--flag <value>` option.
#[derive(Debug, Clone, Copy)]
struct Opt {
    flag: &'static str,
    metavar: &'static str,
    help: &'static str,
}

/// A declared positional argument.
#[derive(Debug, Clone, Copy)]
struct Positional {
    name: &'static str,
    help: &'static str,
    required: bool,
}

/// Declarative description of a binary's command-line surface.
#[derive(Debug, Clone, Default)]
pub struct Cli {
    name: &'static str,
    about: &'static str,
    switches: Vec<Switch>,
    options: Vec<Opt>,
    positionals: Vec<Positional>,
    trailing: Option<(&'static str, &'static str)>,
    subcommands: Vec<Cli>,
}

/// Why parsing failed. [`Cli::parse`] renders this and exits with
/// status 2; [`Cli::parse_from`] returns it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// An argument starting with `--` that the binary never declared.
    UnknownFlag(String),
    /// A declared option appeared as the final argument, with no value.
    MissingValue(String),
    /// A required positional argument was absent.
    MissingPositional(&'static str),
    /// More positional arguments than the binary declared.
    UnexpectedArgument(String),
    /// A value failed validation (e.g. `--jobs zero`).
    InvalidValue {
        /// The flag or positional the value belongs to.
        flag: String,
        /// The offending value.
        value: String,
        /// What was expected instead.
        expected: &'static str,
    },
    /// The binary declares subcommands but none was given.
    MissingSubcommand,
    /// The first argument did not name a declared subcommand.
    UnknownSubcommand(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownFlag(flag) => write!(f, "unknown flag `{flag}`"),
            Self::MissingValue(flag) => write!(f, "flag `{flag}` expects a value"),
            Self::MissingPositional(name) => write!(f, "missing required argument <{name}>"),
            Self::UnexpectedArgument(arg) => write!(f, "unexpected argument `{arg}`"),
            Self::InvalidValue {
                flag,
                value,
                expected,
            } => write!(
                f,
                "invalid value `{value}` for `{flag}`: expected {expected}"
            ),
            Self::MissingSubcommand => write!(f, "missing a subcommand"),
            Self::UnknownSubcommand(name) => write!(f, "unknown subcommand `{name}`"),
        }
    }
}

impl std::error::Error for CliError {}

impl Cli {
    /// Starts a description for the binary `name` with a one-line
    /// summary shown at the top of `--help`.
    #[must_use]
    pub fn new(name: &'static str, about: &'static str) -> Self {
        Self {
            name,
            about,
            ..Self::default()
        }
    }

    /// Declares the shared output-format switches `--json` and
    /// `--markdown` (see [`Args::format`]).
    #[must_use]
    pub fn formats(self) -> Self {
        self.switch("--json", "emit one JSON object instead of text")
            .switch("--markdown", "emit GitHub-flavoured Markdown")
    }

    /// Declares `--smoke`: run a reduced grid suitable for CI.
    #[must_use]
    pub fn smoke(self) -> Self {
        self.switch("--smoke", "reduced grid for CI smoke runs")
    }

    /// Declares `--obs <dir>`: write observability artifacts.
    #[must_use]
    pub fn obs(self) -> Self {
        self.option(
            "--obs",
            "dir",
            "write manifest, event JSONL and metrics into <dir>",
        )
    }

    /// Declares the grid-execution options `--jobs <n>` and
    /// `--cache-dir <dir>` (see [`Args::exec_policy`]).
    #[must_use]
    pub fn grid(self) -> Self {
        self.option(
            "--jobs",
            "n",
            "worker threads for grid execution (default: auto)",
        )
        .option(
            "--cache-dir",
            "dir",
            "serve grid cells from a result cache in <dir>",
        )
    }

    /// Declares a custom valueless switch.
    #[must_use]
    pub fn switch(mut self, flag: &'static str, help: &'static str) -> Self {
        self.switches.push(Switch { flag, help });
        self
    }

    /// Declares a custom `--flag <value>` option.
    #[must_use]
    pub fn option(mut self, flag: &'static str, metavar: &'static str, help: &'static str) -> Self {
        self.options.push(Opt {
            flag,
            metavar,
            help,
        });
        self
    }

    /// Declares a required positional argument (ordered).
    #[must_use]
    pub fn positional(mut self, name: &'static str, help: &'static str) -> Self {
        self.positionals.push(Positional {
            name,
            help,
            required: true,
        });
        self
    }

    /// Declares an optional positional argument (ordered, after the
    /// required ones).
    #[must_use]
    pub fn optional_positional(mut self, name: &'static str, help: &'static str) -> Self {
        self.positionals.push(Positional {
            name,
            help,
            required: false,
        });
        self
    }

    /// Accepts any number of free-form trailing arguments after the
    /// declared positionals (for subcommand-style tools).
    #[must_use]
    pub fn trailing(mut self, name: &'static str, help: &'static str) -> Self {
        self.trailing = Some((name, help));
        self
    }

    /// Declares a subcommand, itself described by a full [`Cli`]. When
    /// any subcommand is declared the first argument must name one of
    /// them; the remaining arguments are parsed against that
    /// subcommand's own declaration, `<tool> <sub> --help` prints the
    /// subcommand's generated help, and the parsed result lands in
    /// [`Args::subcommand`].
    #[must_use]
    pub fn subcommand(mut self, sub: Cli) -> Self {
        self.subcommands.push(sub);
        self
    }

    /// The generated `--help` text.
    #[must_use]
    pub fn help(&self) -> String {
        if !self.subcommands.is_empty() {
            let mut out = format!(
                "{} — {}\n\nusage: {} <command> [options]\n\ncommands:\n",
                self.name, self.about, self.name
            );
            let rows: Vec<(String, &'static str)> = self
                .subcommands
                .iter()
                .map(|s| (s.name.to_string(), s.about))
                .collect();
            out.push_str(&render_rows(&rows));
            out.push_str(&format!(
                "\nrun `{} <command> --help` for command details\n",
                self.name
            ));
            return out;
        }
        let mut out = format!(
            "{} — {}\n\nusage: {} [options]",
            self.name, self.about, self.name
        );
        for p in &self.positionals {
            if p.required {
                out.push_str(&format!(" <{}>", p.name));
            } else {
                out.push_str(&format!(" [{}]", p.name));
            }
        }
        if let Some((name, _)) = self.trailing {
            out.push_str(&format!(" [{name}...]"));
        }
        out.push('\n');

        let mut rows: Vec<(String, &'static str)> = Vec::new();
        if !self.positionals.is_empty() || self.trailing.is_some() {
            out.push_str("\narguments:\n");
            for p in &self.positionals {
                let shown = if p.required {
                    format!("<{}>", p.name)
                } else {
                    format!("[{}]", p.name)
                };
                rows.push((shown, p.help));
            }
            if let Some((name, help)) = self.trailing {
                rows.push((format!("[{name}...]"), help));
            }
            out.push_str(&render_rows(&rows));
            rows.clear();
        }

        out.push_str("\noptions:\n");
        for s in &self.switches {
            rows.push((s.flag.to_string(), s.help));
        }
        for o in &self.options {
            rows.push((format!("{} <{}>", o.flag, o.metavar), o.help));
        }
        rows.push(("-h, --help".to_string(), "show this help and exit"));
        out.push_str(&render_rows(&rows));
        out
    }

    /// Parses the process arguments. Prints the help and exits 0 on
    /// `--help`/`-h`; prints the error plus a usage hint to stderr and
    /// exits 2 on any parse failure.
    #[must_use]
    pub fn parse(&self) -> Args {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        // `<tool> <sub> --help` shows the subcommand's help, not the
        // parent's.
        if let Some(sub) = argv
            .first()
            .and_then(|first| self.subcommands.iter().find(|s| s.name == first))
        {
            if argv[1..].iter().any(|a| a == "--help" || a == "-h") {
                print!("{}", sub.help());
                std::process::exit(0);
            }
        }
        if argv.iter().any(|a| a == "--help" || a == "-h") {
            print!("{}", self.help());
            std::process::exit(0);
        }
        match self.parse_from(&argv) {
            Ok(args) => args,
            Err(err) => {
                eprintln!("{}: {err}", self.name);
                match argv
                    .first()
                    .and_then(|first| self.subcommands.iter().find(|s| s.name == first))
                {
                    Some(sub) => eprintln!("run `{} {} --help` for usage", self.name, sub.name),
                    None => eprintln!("run `{} --help` for usage", self.name),
                }
                std::process::exit(2);
            }
        }
    }

    /// Pure parsing over an explicit argument list (no process exit).
    ///
    /// # Errors
    ///
    /// Returns a [`CliError`] describing the first offending argument.
    pub fn parse_from<S: AsRef<str>>(&self, argv: &[S]) -> Result<Args, CliError> {
        if !self.subcommands.is_empty() {
            let mut iter = argv.iter().map(AsRef::as_ref);
            let first = iter.next().ok_or(CliError::MissingSubcommand)?;
            let sub = self
                .subcommands
                .iter()
                .find(|s| s.name == first)
                .ok_or_else(|| CliError::UnknownSubcommand(first.to_string()))?;
            let rest: Vec<&str> = iter.collect();
            let sub_args = sub.parse_from(&rest)?;
            return Ok(Args {
                subcommand: Some((first.to_string(), Box::new(sub_args))),
                ..Args::default()
            });
        }
        let mut args = Args::default();
        let mut iter = argv.iter().map(AsRef::as_ref);
        while let Some(arg) = iter.next() {
            if arg.starts_with("--") {
                if self.switches.iter().any(|s| s.flag == arg) {
                    args.switches.push(arg.to_string());
                } else if self.options.iter().any(|o| o.flag == arg) {
                    let value = iter
                        .next()
                        .ok_or_else(|| CliError::MissingValue(arg.to_string()))?;
                    args.options.push((arg.to_string(), value.to_string()));
                } else {
                    return Err(CliError::UnknownFlag(arg.to_string()));
                }
            } else if args.positionals.len() < self.positionals.len() {
                args.positionals.push(arg.to_string());
            } else if self.trailing.is_some() {
                args.trailing.push(arg.to_string());
            } else {
                return Err(CliError::UnexpectedArgument(arg.to_string()));
            }
        }

        if let Some(missing) = self
            .positionals
            .iter()
            .skip(args.positionals.len())
            .find(|p| p.required)
        {
            return Err(CliError::MissingPositional(missing.name));
        }
        if let Some(jobs) = args.option("--jobs") {
            let parsed: Option<usize> = jobs.parse().ok().filter(|n| *n >= 1);
            if parsed.is_none() {
                return Err(CliError::InvalidValue {
                    flag: "--jobs".to_string(),
                    value: jobs.to_string(),
                    expected: "a worker count of 1 or more",
                });
            }
        }
        Ok(args)
    }
}

fn render_rows(rows: &[(String, &'static str)]) -> String {
    let width = rows.iter().map(|(left, _)| left.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (left, help) in rows {
        out.push_str(&format!("  {left:<width$}   {help}\n"));
    }
    out
}

/// The parsed arguments of one invocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    switches: Vec<String>,
    options: Vec<(String, String)>,
    positionals: Vec<String>,
    trailing: Vec<String>,
    subcommand: Option<(String, Box<Args>)>,
}

impl Args {
    /// The selected subcommand and its parsed arguments, when the
    /// binary declares subcommands (always `Some` in that case — a
    /// missing subcommand is a parse error).
    #[must_use]
    pub fn subcommand(&self) -> Option<(&str, &Args)> {
        self.subcommand
            .as_ref()
            .map(|(name, args)| (name.as_str(), args.as_ref()))
    }

    /// Whether the given switch was present.
    #[must_use]
    pub fn switch(&self, flag: &str) -> bool {
        self.switches.iter().any(|s| s == flag)
    }

    /// The value of the given option, if present (last wins).
    #[must_use]
    pub fn option(&self, flag: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find_map(|(f, v)| (f == flag).then_some(v.as_str()))
    }

    /// The positional arguments, in order.
    #[must_use]
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// The positional argument at `index`, if present. Required
    /// positionals are enforced during parsing, but handlers should
    /// still reach for this accessor instead of indexing
    /// [`Self::positionals`] — an optional positional (or a refactor
    /// that drops one from the declaration) must surface as a usage
    /// error, never an index panic.
    #[must_use]
    pub fn positional(&self, index: usize) -> Option<&str> {
        self.positionals.get(index).map(String::as_str)
    }

    /// The free-form trailing arguments (empty unless declared).
    #[must_use]
    pub fn trailing(&self) -> &[String] {
        &self.trailing
    }

    /// The selected [`Format`]: `--json` beats `--markdown` beats text,
    /// matching the precedence the binaries always had.
    #[must_use]
    pub fn format(&self) -> Format {
        if self.switch("--json") {
            Format::Json
        } else if self.switch("--markdown") {
            Format::Markdown
        } else {
            Format::Text
        }
    }

    /// Whether `--smoke` was passed.
    #[must_use]
    pub fn smoke(&self) -> bool {
        self.switch("--smoke")
    }

    /// The `--obs` directory, if passed.
    #[must_use]
    pub fn obs_dir(&self) -> Option<PathBuf> {
        self.option("--obs").map(PathBuf::from)
    }

    /// The validated `--jobs` worker count, if passed.
    #[must_use]
    pub fn jobs(&self) -> Option<usize> {
        // Validated during parsing; an unparseable value cannot reach here
        // through `Cli::parse_from`.
        self.option("--jobs").and_then(|v| v.parse().ok())
    }

    /// The `--cache-dir` directory, if passed.
    #[must_use]
    pub fn cache_dir(&self) -> Option<PathBuf> {
        self.option("--cache-dir").map(PathBuf::from)
    }

    /// The [`ExecPolicy`] implied by `--jobs`/`--cache-dir`: parallel by
    /// default, sequential under `--jobs 1`, cache-wrapped when
    /// `--cache-dir` is given.
    #[must_use]
    pub fn exec_policy(&self) -> ExecPolicy {
        ExecPolicy::from_options(self.jobs(), self.cache_dir().as_deref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli() -> Cli {
        Cli::new("demo", "a demo tool")
            .formats()
            .smoke()
            .obs()
            .grid()
            .positional("trace", "trace id")
            .optional_positional("limit", "max lines")
    }

    #[test]
    fn parses_flags_options_and_positionals() {
        let args = cli()
            .parse_from(&["--json", "3", "--obs", "out", "--jobs", "4", "120"])
            .unwrap();
        assert_eq!(args.format(), Format::Json);
        assert_eq!(args.obs_dir(), Some(PathBuf::from("out")));
        assert_eq!(args.jobs(), Some(4));
        assert_eq!(args.positionals(), ["3", "120"]);
        assert!(!args.smoke());
    }

    #[test]
    fn json_beats_markdown() {
        let args = cli().parse_from(&["--markdown", "--json", "1"]).unwrap();
        assert_eq!(args.format(), Format::Json);
        let args = cli().parse_from(&["--markdown", "1"]).unwrap();
        assert_eq!(args.format(), Format::Markdown);
    }

    #[test]
    fn exec_policy_mirrors_grid_flags() {
        let args = cli().parse_from(&["1", "--jobs", "1"]).unwrap();
        assert_eq!(args.exec_policy(), ExecPolicy::Sequential);
        let args = cli()
            .parse_from(&["1", "--cache-dir", "c", "--jobs", "1"])
            .unwrap();
        assert_eq!(
            args.exec_policy(),
            ExecPolicy::cached("c", ExecPolicy::Sequential)
        );
    }

    #[test]
    fn rejects_unknown_and_malformed_input() {
        assert_eq!(
            cli().parse_from(&["--nope", "1"]),
            Err(CliError::UnknownFlag("--nope".to_string()))
        );
        assert_eq!(
            cli().parse_from(&["1", "--obs"]),
            Err(CliError::MissingValue("--obs".to_string()))
        );
        assert_eq!(
            cli().parse_from::<&str>(&[]),
            Err(CliError::MissingPositional("trace"))
        );
        assert_eq!(
            cli().parse_from(&["1", "2", "3"]),
            Err(CliError::UnexpectedArgument("3".to_string()))
        );
        assert!(matches!(
            cli().parse_from(&["1", "--jobs", "0"]),
            Err(CliError::InvalidValue { .. })
        ));
    }

    #[test]
    fn trailing_arguments_require_opt_in() {
        let sub = Cli::new("tool", "subcommands").trailing("args", "subcommand arguments");
        let args = sub.parse_from(&["generate", "5", "x.json"]).unwrap();
        assert_eq!(args.trailing(), ["generate", "5", "x.json"]);
    }

    fn tool_with_subcommands() -> Cli {
        Cli::new("tool", "a tool with subcommands")
            .subcommand(
                Cli::new("generate", "generate a thing")
                    .formats()
                    .positional("seed", "generator seed"),
            )
            .subcommand(Cli::new("inspect", "inspect a thing").positional("path", "input file"))
    }

    #[test]
    fn subcommands_dispatch_to_their_own_parsers() {
        let args = tool_with_subcommands()
            .parse_from(&["generate", "--json", "7"])
            .unwrap();
        let (name, sub) = args.subcommand().unwrap();
        assert_eq!(name, "generate");
        assert_eq!(sub.format(), Format::Json);
        assert_eq!(sub.positionals(), ["7"]);

        // A flag the chosen subcommand does not declare is an error even
        // if a sibling declares it.
        assert_eq!(
            tool_with_subcommands().parse_from(&["inspect", "--json", "x"]),
            Err(CliError::UnknownFlag("--json".to_string()))
        );
    }

    #[test]
    fn subcommand_selection_is_validated() {
        assert_eq!(
            tool_with_subcommands().parse_from::<&str>(&[]),
            Err(CliError::MissingSubcommand)
        );
        assert_eq!(
            tool_with_subcommands().parse_from(&["frobnicate"]),
            Err(CliError::UnknownSubcommand("frobnicate".to_string()))
        );
        assert_eq!(
            tool_with_subcommands().parse_from(&["generate"]),
            Err(CliError::MissingPositional("seed"))
        );
    }

    #[test]
    fn parent_help_lists_subcommands() {
        let help = tool_with_subcommands().help();
        assert!(help.contains("usage: tool <command> [options]"));
        assert!(help.contains("generate"));
        assert!(help.contains("inspect"));
        assert!(help.contains("run `tool <command> --help`"));
        // The subcommand's own help is the ordinary flat help.
        let sub_help = Cli::new("generate", "generate a thing")
            .positional("seed", "generator seed")
            .help();
        assert!(sub_help.contains("usage: generate [options] <seed>"));
    }

    #[test]
    fn help_lists_every_declared_flag() {
        let help = cli().help();
        assert!(help.starts_with("demo — a demo tool\n"));
        assert!(help.contains("usage: demo [options] <trace> [limit]"));
        for needle in [
            "--json",
            "--markdown",
            "--smoke",
            "--obs <dir>",
            "--jobs <n>",
            "--cache-dir <dir>",
            "-h, --help",
            "<trace>",
            "[limit]",
        ] {
            assert!(help.contains(needle), "help missing {needle}:\n{help}");
        }
    }
}
