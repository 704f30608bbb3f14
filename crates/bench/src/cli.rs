//! One command table for the three CLIs (`hpe-lab`, `hpe-chaos`,
//! `hpe-trace`).
//!
//! Each binary declares its [`Command`]s — name, prose, positional
//! arguments and the flags each one reads — and hands the table to
//! [`run`], which parses the arguments against it, generates the usage
//! text from it and maps the outcome onto the exit code: 0 ok, 1 a run
//! failed or a check did not hold, 2 usage error. A flag a command does
//! not list, or a positional argument beyond its arity, is a usage error
//! before any work starts. Flag values are parsed where the command
//! reads them, by one parser per shared flag name ([`Args::rate`],
//! [`Args::policy`], [`Args::num`], [`Args::nonzero`], [`Args::path`]);
//! a value it rejects is `bad <flag> '<value>'`, exit 2.

use std::num::NonZeroU64;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

use uvm_types::{Oversubscription, SimError};
use uvm_util::{Json, JsonError};
use uvm_workloads::{registry, App};

use crate::PolicyKind;

/// Default `--seed` of every seeded command (the paper's publication
/// year, for no deeper reason than reproducibility needs *some* pinned
/// value).
pub const DEFAULT_SEED: u64 = 2019;

/// What the usage text says about the values of the flags every binary
/// shares.
const SHARED_VALUES: [&str; 2] = [
    "--policy P: LRU, Random, LFU, RRIP, CLOCK-Pro, Ideal or HPE in any case (also clockpro, \
     belady, min); default HPE",
    "--rate PCT: 75, 50 or any percent in (0, 100], '%' optional; default 75",
];

/// One subcommand of a binary.
pub struct Command {
    /// The subcommand, as typed.
    pub name: &'static str,
    /// What it does, for the usage text.
    pub about: &'static str,
    /// The positional arguments as the usage text shows them; also their
    /// arity: each `<X>` is required, each `[X]` optional, `...` repeats.
    pub args: &'static str,
    /// Every flag the command reads, as the usage text shows them: a
    /// `--name` followed by a placeholder (`--seed N`) takes a value, a
    /// bare `--name` is a switch. An entry may hold several flags (a group
    /// that commands share). Any other flag is a usage error.
    pub flags: &'static [&'static str],
    /// The entry point.
    pub run: fn(&Args) -> Result<(), CliError>,
}

/// How a command failed, mapped onto the exit code by [`run`].
#[derive(Debug)]
pub enum CliError {
    /// Bad arguments or an unreadable/malformed input file: exit 2, after
    /// printing usage.
    Usage(String),
    /// A run failed or a check did not hold: exit 1.
    Run(String),
}

impl From<SimError> for CliError {
    fn from(e: SimError) -> Self {
        CliError::Run(e.to_string())
    }
}

/// Resolves a registered application by abbreviation.
///
/// # Errors
///
/// An unknown abbreviation is a usage error.
pub fn app(abbr: &str) -> Result<&'static App, CliError> {
    registry::by_abbr(abbr).ok_or_else(|| CliError::Usage(format!("unknown app '{abbr}'")))
}

/// Reads the input file at `path`.
///
/// # Errors
///
/// An unreadable file is a usage error.
pub fn read(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| CliError::Usage(format!("cannot read {path}: {e}")))
}

/// Reads the JSON document at `path` and decodes it as a `what` with
/// `decode` (strict decoders name unknown or misspelled fields).
///
/// # Errors
///
/// Unreadable, malformed or undecodable input is a usage error.
pub fn read_json<T>(
    path: &str,
    what: &str,
    decode: impl FnOnce(&Json) -> Result<T, JsonError>,
) -> Result<T, CliError> {
    let json = Json::parse(&read(path)?).map_err(|e| CliError::Usage(format!("{path}: {e}")))?;
    decode(&json).map_err(|e| CliError::Usage(format!("{path}: bad {what}: {e}")))
}

/// Parses an oversubscription rate: `75` and `50` are the paper's two
/// rates, any other percent in (0, 100] a custom one; `%` is optional.
fn parse_rate(text: &str) -> Option<Oversubscription> {
    match text.trim_end_matches('%') {
        "75" => Some(Oversubscription::Rate75),
        "50" => Some(Oversubscription::Rate50),
        pct => {
            let pct: f64 = pct.parse().ok()?;
            (pct > 0.0 && pct <= 100.0).then(|| Oversubscription::Custom(pct / 100.0))
        }
    }
}

/// The flags `cmd` lists, each with its value's placeholder (`None` for
/// a switch).
fn flags(cmd: &Command) -> impl Iterator<Item = (&'static str, Option<&'static str>)> {
    let mut words = cmd
        .flags
        .iter()
        .flat_map(|g| g.split_whitespace())
        .peekable();
    std::iter::from_fn(move || {
        let name = words.next()?;
        Some((name, words.next_if(|w| !w.starts_with("--"))))
    })
}

/// A command's arguments, parsed against its table entry. Flag values
/// are parsed when the command reads them.
pub struct Args {
    cmd: &'static Command,
    flags: Vec<(&'static str, Option<String>)>,
    /// The positional arguments, within the command's arity.
    pub positional: Vec<String>,
}

impl Args {
    fn parse(cmd: &'static Command, raw: &[String]) -> Result<Args, CliError> {
        let mut args = Args {
            cmd,
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            if !a.starts_with("--") {
                args.positional.push(a.clone());
                continue;
            }
            let Some((name, value)) = flags(cmd).find(|(f, _)| f == a) else {
                return Err(CliError::Usage(format!("{} does not take '{a}'", cmd.name)));
            };
            let value = match value {
                None => None,
                Some(_) => match it.next() {
                    Some(v) => Some(v.clone()),
                    None => return Err(CliError::Usage(format!("{a} needs a value"))),
                },
            };
            args.flags.push((name, value));
        }
        let (min, max) = arity(cmd.args);
        let n = args.positional.len();
        if n > max {
            return Err(CliError::Usage(format!(
                "{} takes at most {max} argument(s), got {n}",
                cmd.name
            )));
        }
        if n < min {
            return Err(CliError::Usage(format!("{} needs {}", cmd.name, cmd.args)));
        }
        Ok(args)
    }

    fn last(&self, flag: &str) -> Option<&Option<String>> {
        debug_assert!(
            flags(self.cmd).any(|(f, _)| f == flag),
            "{} reads {flag}, which its table entry does not list",
            self.cmd.name
        );
        self.flags
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| v)
    }

    /// The positional arguments, or `default` when there are none.
    pub fn positional_or(&self, default: &[&str]) -> Vec<String> {
        if self.positional.is_empty() {
            default.iter().map(|s| s.to_string()).collect()
        } else {
            self.positional.clone()
        }
    }

    /// Whether switch `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.last(flag).is_some()
    }

    /// The raw value of `flag` (the last one, if given more than once).
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.last(flag).and_then(Option::as_deref)
    }

    /// The value of `flag` as `parse` reads it.
    ///
    /// # Errors
    ///
    /// A value `parse` rejects is `bad <flag> '<value>'`.
    pub fn parsed<T>(
        &self,
        flag: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, CliError> {
        self.value(flag)
            .map(|v| parse(v).ok_or_else(|| CliError::Usage(format!("bad {flag} '{v}'"))))
            .transpose()
    }

    /// The numeric value of `flag`.
    ///
    /// # Errors
    ///
    /// A value that does not parse as `T` is `bad <flag> '<value>'`.
    pub fn num<T: FromStr>(&self, flag: &str) -> Result<Option<T>, CliError> {
        self.parsed(flag, |v| v.parse().ok())
    }

    /// The value of a window or cadence `flag`, which must be nonzero.
    ///
    /// # Errors
    ///
    /// A non-numeric value is `bad <flag> '<value>'`; zero is a usage error of its own.
    pub fn nonzero(&self, flag: &str) -> Result<Option<NonZeroU64>, CliError> {
        self.num(flag)?
            .map(|n| {
                NonZeroU64::new(n).ok_or_else(|| CliError::Usage(format!("{flag} must be nonzero")))
            })
            .transpose()
    }

    /// The path `flag` names.
    ///
    /// # Errors
    ///
    /// An empty value is `bad <flag> '<value>'`.
    pub fn path(&self, flag: &str) -> Result<Option<PathBuf>, CliError> {
        self.parsed(flag, |v| (!v.is_empty()).then(|| PathBuf::from(v)))
    }

    /// `--seed N`, default [`DEFAULT_SEED`].
    ///
    /// # Errors
    ///
    /// A value that is not a `u64` is `bad --seed '<value>'`.
    pub fn seed(&self) -> Result<u64, CliError> {
        Ok(self.num("--seed")?.unwrap_or(DEFAULT_SEED))
    }

    /// `--rate PCT`, default 75%: `75` and `50` are the paper's two
    /// rates, any other percent in (0, 100] a custom one; `%` is optional.
    ///
    /// # Errors
    ///
    /// Any other value is `bad <flag> '<value>'`.
    pub fn rate(&self) -> Result<Oversubscription, CliError> {
        Ok(self
            .parsed("--rate", parse_rate)?
            .unwrap_or(Oversubscription::Rate75))
    }

    /// `--policy P` ([`PolicyKind::parse`]), default HPE.
    ///
    /// # Errors
    ///
    /// A name [`PolicyKind::parse`] rejects is `bad <flag> '<value>'`.
    pub fn policy(&self) -> Result<PolicyKind, CliError> {
        Ok(self
            .parsed("--policy", PolicyKind::parse)?
            .unwrap_or_default())
    }
}

/// How many positional arguments `args` (a [`Command::args`] synopsis)
/// takes, at least and at most.
fn arity(args: &str) -> (usize, usize) {
    args.split_whitespace()
        .fold((0, 0), |(min, max), word| match word {
            _ if word.contains("...") => (min, usize::MAX),
            _ if word.starts_with('<') => (min + 1, max + 1),
            _ => (min, max + 1),
        })
}

/// Width the usage text wraps at.
const USAGE_WIDTH: usize = 78;

/// Appends `units` to `out` after `lead`, word-wrapped at
/// [`USAGE_WIDTH`] with every further line indented as deep as `lead`.
fn wrap<'a>(out: &mut String, lead: &str, units: impl Iterator<Item = &'a str>) {
    let (indent, mut line) = (lead.len(), lead.to_string());
    for unit in units {
        if line.len() > indent && line.len() + 1 + unit.len() > USAGE_WIDTH {
            out.push_str(line.trim_end());
            out.push('\n');
            line = " ".repeat(indent);
        } else if line.len() > indent {
            line.push(' ');
        }
        line.push_str(unit);
    }
    out.push_str(line.trim_end());
    out.push('\n');
}

/// The usage text of `cli`, generated from its table.
fn usage(bin: &str, table: &[Command]) -> String {
    let width = table.iter().map(|c| c.name.len()).max().unwrap_or(0);
    let mut out = format!("usage: {bin} <command> [args]\n\ncommands:\n");
    for cmd in table {
        let flags: Vec<String> = flags(cmd)
            .map(|(f, v)| match v {
                Some(v) => format!("[{f} {v}]"),
                None => format!("[{f}]"),
            })
            .collect();
        let synopsis = cmd
            .args
            .split_whitespace()
            .chain(flags.iter().map(|f| f.as_str()));
        wrap(&mut out, &format!("  {:width$} ", cmd.name), synopsis);
        wrap(
            &mut out,
            &" ".repeat(width + 3),
            cmd.about.split_whitespace(),
        );
    }
    out.push('\n');
    for text in SHARED_VALUES {
        wrap(&mut out, "", text.split_whitespace());
    }
    out.push_str("exit codes: 0 ok, 1 run failure or failed check, 2 usage error");
    out
}

/// Runs the command `argv` names (the arguments after the binary's own
/// name) from `cli`'s table, and maps the outcome onto the exit code:
/// 0 ok, 1 [`CliError::Run`], 2 [`CliError::Usage`] (usage printed).
pub fn run(bin: &str, table: &'static [Command], argv: &[String]) -> ExitCode {
    let Some((name, rest)) = argv.split_first() else {
        eprintln!("{}", usage(bin, table));
        return ExitCode::from(2);
    };
    let result = match table.iter().find(|c| c.name == name) {
        Some(cmd) => Args::parse(cmd, rest).and_then(|args| (cmd.run)(&args)),
        None => Err(CliError::Usage(format!("unknown command '{name}'"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Run(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        Err(CliError::Usage(e)) => {
            eprintln!("error: {e}\n{}", usage(bin, table));
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(_: &Args) -> Result<(), CliError> {
        Ok(())
    }

    static TABLE: &[Command] = &[
        Command {
            name: "list",
            about: "list everything",
            args: "",
            flags: &[],
            run: ok,
        },
        Command {
            name: "show",
            about: "show one app",
            args: "<APP> [APP ...]",
            flags: &["--rate PCT --json", "--out FILE"],
            run: ok,
        },
    ];
    static LIST: &Command = &TABLE[0];
    static SHOW: &Command = &TABLE[1];

    fn parse(cmd: &'static Command, raw: &[&str]) -> Result<Args, CliError> {
        let raw: Vec<String> = raw.iter().map(|s| s.to_string()).collect();
        Args::parse(cmd, &raw)
    }

    fn usage_error(r: Result<Args, CliError>) -> String {
        match r {
            Err(CliError::Usage(e)) => e,
            Err(CliError::Run(e)) => panic!("run error {e}"),
            Ok(_) => panic!("parsed"),
        }
    }

    #[test]
    fn rates_are_the_paper_pair_or_a_percent_in_range() {
        assert_eq!(parse_rate("75"), Some(Oversubscription::Rate75));
        assert_eq!(parse_rate("75%"), Some(Oversubscription::Rate75));
        assert_eq!(parse_rate("50%"), Some(Oversubscription::Rate50));
        assert_eq!(parse_rate("60"), Some(Oversubscription::Custom(0.6)));
        assert_eq!(parse_rate("100%"), Some(Oversubscription::Custom(1.0)));
        for bad in ["0", "-5", "100.5", "nan", "inf", "", "x", "75%%x"] {
            assert_eq!(parse_rate(bad), None, "{bad}");
        }
    }

    #[test]
    fn policies_parse_labels_in_any_case_and_the_aliases() {
        for (text, kind) in [
            ("hpe", PolicyKind::Hpe),
            ("CLOCK-Pro", PolicyKind::ClockPro),
            ("clockpro", PolicyKind::ClockPro),
            ("belady", PolicyKind::Ideal),
            ("MIN", PolicyKind::Ideal),
            ("lru", PolicyKind::Lru),
        ] {
            assert_eq!(PolicyKind::parse(text), Some(kind), "{text}");
        }
        assert_eq!(PolicyKind::parse("fifo"), None);
    }

    #[test]
    fn the_parser_holds_a_command_to_its_table_entry() {
        let args = parse(SHOW, &["STN", "--json", "--rate", "60", "BFS"]).unwrap();
        assert_eq!(args.positional, ["STN", "BFS"]);
        assert!(args.has("--json"));
        assert_eq!(args.rate().unwrap(), Oversubscription::Custom(0.6));
        assert_eq!(args.path("--out").unwrap(), None);

        let e = usage_error(parse(SHOW, &["STN", "--seed", "1"]));
        assert_eq!(e, "show does not take '--seed'");
        assert_eq!(
            usage_error(parse(SHOW, &["STN", "--out"])),
            "--out needs a value"
        );
        assert_eq!(usage_error(parse(SHOW, &[])), "show needs <APP> [APP ...]");
        let e = usage_error(parse(LIST, &["x"]));
        assert_eq!(e, "list takes at most 0 argument(s), got 1");
    }

    #[test]
    fn a_value_is_parsed_where_it_is_read() {
        let args = parse(SHOW, &["STN", "--rate", "0", "--out", ""]).unwrap();
        assert!(matches!(args.rate(), Err(CliError::Usage(e)) if e == "bad --rate '0'"));
        assert!(matches!(args.path("--out"), Err(CliError::Usage(e)) if e == "bad --out ''"));
    }

    #[test]
    fn arity_follows_the_synopsis() {
        assert_eq!(arity(""), (0, 0));
        assert_eq!(arity("<APP>"), (1, 1));
        assert_eq!(arity("[APP]"), (0, 1));
        assert_eq!(arity("<A> <B>"), (2, 2));
        assert_eq!(arity("[APP ...]"), (0, usize::MAX));
    }

    #[test]
    fn usage_lists_every_command_and_flag_of_the_table() {
        let text = usage("demo", TABLE);
        assert!(text.starts_with("usage: demo <command> [args]\n"), "{text}");
        assert!(
            text.contains("\n  list\n       list everything\n"),
            "{text}"
        );
        assert!(
            text.contains("  show <APP> [APP ...] [--rate PCT] [--json] [--out FILE]\n"),
            "{text}"
        );
        assert!(text.contains("\n--rate PCT: 75, 50"), "{text}");
        assert!(text.lines().all(|l| l.len() <= USAGE_WIDTH), "{text}");
    }
}
