//! Minimal flag parser (the offline dependency set has no `clap`).

use std::collections::HashMap;
use std::fmt;

/// Parsed command line: a subcommand plus `--key value` flags.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Args {
    command: String,
    flags: HashMap<String, String>,
}

/// Errors parsing the command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// No subcommand supplied.
    MissingCommand,
    /// A `--flag` without a value.
    MissingValue(String),
    /// A positional argument where a flag was expected.
    UnexpectedPositional(String),
    /// A flag value failed to parse, or is out of the flag's range.
    BadValue {
        /// The flag.
        flag: String,
        /// The rejected text.
        value: String,
    },
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingCommand => write!(f, "no command given"),
            ArgError::MissingValue(flag) => write!(f, "flag --{flag} needs a value"),
            ArgError::UnexpectedPositional(arg) => {
                write!(f, "unexpected argument `{arg}` (flags are --key value)")
            }
            ArgError::BadValue { flag, value } => {
                write!(f, "invalid value `{value}` for --{flag}")
            }
        }
    }
}

impl std::error::Error for ArgError {}

/// Commands that take a sub-command word: `gsf trace synth ...` parses
/// as the single command `"trace synth"`. Any other positional after a
/// command is still an error.
const COMMAND_GROUPS: [&str; 1] = ["trace"];

/// Flags whose value is optional: a bare `--stream` (followed by
/// another flag or nothing) reads as `--stream true`.
const BOOLEAN_FLAGS: [&str; 1] = ["stream"];

impl Args {
    /// Parses `command [subcommand] --flag value ...`.
    ///
    /// # Errors
    ///
    /// Returns an [`ArgError`] for a missing command, a flag without a
    /// value, or a stray positional argument.
    pub fn parse<I, S>(argv: I) -> Result<Self, ArgError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut iter = argv.into_iter().map(Into::into).peekable();
        let mut command = iter.next().ok_or(ArgError::MissingCommand)?;
        if command.starts_with('-') && command != "--help" && command != "-h" {
            return Err(ArgError::UnexpectedPositional(command));
        }
        if COMMAND_GROUPS.contains(&command.as_str()) {
            if let Some(sub) = iter.next_if(|a| !a.starts_with('-')) {
                command.push(' ');
                command.push_str(&sub);
            }
        }
        let mut flags = HashMap::new();
        while let Some(arg) = iter.next() {
            if let Some(key) = arg.strip_prefix("--") {
                let value = if BOOLEAN_FLAGS.contains(&key) {
                    iter.next_if(|a| !a.starts_with("--")).unwrap_or_else(|| "true".to_string())
                } else {
                    iter.next().ok_or_else(|| ArgError::MissingValue(key.into()))?
                };
                flags.insert(key.to_string(), value);
            } else {
                return Err(ArgError::UnexpectedPositional(arg));
            }
        }
        Ok(Self { command, flags })
    }

    /// The subcommand.
    pub fn command(&self) -> &str {
        &self.command
    }

    /// Raw string flag.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.flags.get(flag).map(String::as_str)
    }

    /// String flag with a default.
    pub fn get_or<'a>(&'a self, flag: &str, default: &'a str) -> &'a str {
        self.get(flag).unwrap_or(default)
    }

    /// Boolean flag: true for `--flag`, `--flag true`, `--flag 1`, or
    /// `--flag yes`; false when absent or given any other value.
    pub fn get_bool(&self, flag: &str) -> bool {
        matches!(self.get(flag), Some("true" | "1" | "yes"))
    }

    /// Parsed numeric flag with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::BadValue`] when present but unparseable.
    pub fn get_num<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, ArgError> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError::BadValue { flag: flag.to_string(), value: v.to_string() }),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn parses_command_and_flags() {
        let a = Args::parse(["assess", "--sku", "greensku-full", "--ci", "0.2"]).unwrap();
        assert_eq!(a.command(), "assess");
        assert_eq!(a.get("sku"), Some("greensku-full"));
        assert_eq!(a.get_num("ci", 0.1).unwrap(), 0.2);
        assert_eq!(a.get_num("lifetime", 6.0).unwrap(), 6.0);
    }

    #[test]
    fn rejects_malformed_input() {
        assert_eq!(Args::parse(Vec::<String>::new()), Err(ArgError::MissingCommand));
        assert_eq!(Args::parse(["cmd", "--flag"]), Err(ArgError::MissingValue("flag".into())));
        assert_eq!(
            Args::parse(["cmd", "stray"]),
            Err(ArgError::UnexpectedPositional("stray".into()))
        );
    }

    #[test]
    fn bad_numeric_value() {
        let a = Args::parse(["cmd", "--ci", "abc"]).unwrap();
        assert!(matches!(a.get_num::<f64>("ci", 0.1), Err(ArgError::BadValue { .. })));
    }

    #[test]
    fn defaults_pass_through() {
        let a = Args::parse(["cmd"]).unwrap();
        assert_eq!(a.get_or("design", "full"), "full");
    }

    #[test]
    fn trace_group_joins_subcommand() {
        let a = Args::parse(["trace", "synth", "--out", "x.gst"]).unwrap();
        assert_eq!(a.command(), "trace synth");
        assert_eq!(a.get("out"), Some("x.gst"));
        // A bare `trace` stays a single (unknown) command.
        assert_eq!(Args::parse(["trace"]).unwrap().command(), "trace");
        // Other commands still reject positionals.
        assert_eq!(
            Args::parse(["fleet", "synth"]),
            Err(ArgError::UnexpectedPositional("synth".into()))
        );
    }

    #[test]
    fn boolean_flags_take_optional_values() {
        let a = Args::parse(["fleet", "--stream", "--design", "full"]).unwrap();
        assert!(a.get_bool("stream"));
        assert_eq!(a.get("design"), Some("full"));
        let a = Args::parse(["fleet", "--stream"]).unwrap();
        assert!(a.get_bool("stream"));
        let a = Args::parse(["fleet", "--stream", "false"]).unwrap();
        assert!(!a.get_bool("stream"));
        let a = Args::parse(["fleet"]).unwrap();
        assert!(!a.get_bool("stream"));
        // Non-boolean flags still require a value.
        assert_eq!(Args::parse(["cmd", "--flag"]), Err(ArgError::MissingValue("flag".into())));
    }
}
