//! Tiny flag parser (no external dependency): positionals plus
//! `--flag [value]` pairs, with typed accessors.

use std::error::Error;
use std::fmt;

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub enum CliError {
    /// Bad invocation; the message includes usage guidance.
    Usage(String),
    /// Input file could not be read.
    Io(String),
    /// Graph parsing or validation failed.
    Graph(String),
    /// Simulation or analysis failed.
    Run(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "{m}"),
            CliError::Io(m) => write!(f, "io error: {m}"),
            CliError::Graph(m) => write!(f, "graph error: {m}"),
            CliError::Run(m) => write!(f, "run error: {m}"),
        }
    }
}

impl Error for CliError {}

/// Parsed command arguments: positionals in order, flags as key/value
/// (value-less flags store an empty string).
#[derive(Debug, Clone, Default)]
pub struct ParsedArgs {
    positionals: Vec<String>,
    flags: Vec<(String, String)>,
}

impl ParsedArgs {
    /// Splits `rest` into positionals and `--key [value]` flags. A flag's
    /// value is the next token unless that token itself starts with `--`.
    ///
    /// # Errors
    ///
    /// Never fails currently; returns `Result` for future validations.
    pub fn parse(rest: &[String]) -> Result<Self, CliError> {
        let mut out = ParsedArgs::default();
        let mut i = 0;
        while i < rest.len() {
            let tok = &rest[i];
            if let Some(key) = tok.strip_prefix("--") {
                let value = match rest.get(i + 1) {
                    Some(v) if !v.starts_with("--") => {
                        i += 1;
                        v.clone()
                    }
                    _ => String::new(),
                };
                out.flags.push((key.to_string(), value));
            } else {
                out.positionals.push(tok.clone());
            }
            i += 1;
        }
        Ok(out)
    }

    /// The `idx`-th positional argument.
    pub fn positional(&self, idx: usize) -> Option<&str> {
        self.positionals.get(idx).map(String::as_str)
    }

    /// All positionals.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// The raw value of `--key`, if present.
    pub fn flag(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The first flag whose name is not in `known`.
    pub fn unknown_flag(&self, known: &[&str]) -> Option<&str> {
        self.flags
            .iter()
            .map(|(k, _)| k.as_str())
            .find(|k| !known.contains(k))
    }

    /// Rejects a flag `command` does not read, so a mistyped flag never
    /// runs a default silently.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] naming the first flag not in `known`, and
    /// every flag that is.
    pub fn reject_unknown(&self, command: &str, known: &[&str]) -> Result<(), CliError> {
        let Some(flag) = self.unknown_flag(known) else {
            return Ok(());
        };
        let known: Vec<String> = known.iter().map(|k| format!("--{k}")).collect();
        let known = if known.is_empty() {
            "none".to_string()
        } else {
            known.join(", ")
        };
        Err(CliError::Usage(format!(
            "{command}: unknown flag --{flag} (known: {known})"
        )))
    }

    /// Rejects `--flag` unless `--owner` is `value`: only then is the flag
    /// read, so anywhere else it would be accepted and ignored.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] naming both flags.
    pub fn reject_unless(&self, flag: &str, owner: &str, value: &str) -> Result<(), CliError> {
        if self.has_flag(flag) && self.flag(owner) != Some(value) {
            return Err(CliError::Usage(format!(
                "--{flag} is read only with --{owner} {value}"
            )));
        }
        Ok(())
    }

    /// `true` if `--key` was passed (with or without a value).
    pub fn has_flag(&self, key: &str) -> bool {
        self.flag(key).is_some()
    }

    /// Parses `--key` as `T`, with a domain-specific error message.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] when missing or unparsable.
    pub fn required<T: std::str::FromStr>(&self, key: &str) -> Result<T, CliError> {
        let raw = self
            .flag(key)
            .ok_or_else(|| CliError::Usage(format!("missing required flag --{key}")))?;
        raw.parse()
            .map_err(|_| CliError::Usage(format!("flag --{key}: cannot parse {raw:?}")))
    }

    /// Parses `--key` as `T` if present.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] when present but unparsable.
    pub fn optional<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, CliError> {
        match self.flag(key) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|_| CliError::Usage(format!("flag --{key}: cannot parse {raw:?}"))),
        }
    }

    /// Parses `--key` as a comma-separated list of `T`.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] when any element fails to parse.
    pub fn list<T: std::str::FromStr>(&self, key: &str) -> Result<Vec<T>, CliError> {
        let Some(raw) = self.flag(key) else {
            return Ok(Vec::new());
        };
        if raw.is_empty() {
            return Ok(Vec::new());
        }
        raw.split(',')
            .map(|part| {
                part.trim().parse().map_err(|_| {
                    CliError::Usage(format!("flag --{key}: cannot parse element {part:?}"))
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> ParsedArgs {
        let v: Vec<String> = tokens.iter().map(|s| s.to_string()).collect();
        ParsedArgs::parse(&v).unwrap()
    }

    #[test]
    fn positionals_and_flags_separate() {
        let a = parse(&["file.txt", "--f", "2", "--async", "--eps", "0.001"]);
        assert_eq!(a.positional(0), Some("file.txt"));
        assert_eq!(a.flag("f"), Some("2"));
        assert!(a.has_flag("async"));
        assert_eq!(a.flag("async"), Some(""));
        assert_eq!(a.flag("eps"), Some("0.001"));
        assert_eq!(a.positionals().len(), 1);
    }

    #[test]
    fn typed_accessors() {
        let a = parse(&["--f", "2", "--eps", "1e-6", "--faulty", "1,2,3"]);
        assert_eq!(a.required::<usize>("f").unwrap(), 2);
        assert_eq!(a.optional::<f64>("eps").unwrap(), Some(1e-6));
        assert_eq!(a.optional::<f64>("nope").unwrap(), None);
        assert_eq!(a.list::<usize>("faulty").unwrap(), vec![1, 2, 3]);
        assert!(a.list::<usize>("absent").unwrap().is_empty());
    }

    #[test]
    fn missing_required_flag_is_usage_error() {
        let a = parse(&["file.txt"]);
        let err = a.required::<usize>("f").unwrap_err();
        assert!(err.to_string().contains("--f"));
    }

    #[test]
    fn unparsable_values_are_usage_errors() {
        let a = parse(&["--f", "two"]);
        assert!(a.required::<usize>("f").is_err());
        let a = parse(&["--faulty", "1,x"]);
        assert!(a.list::<usize>("faulty").is_err());
    }

    #[test]
    fn flag_followed_by_flag_has_empty_value() {
        let a = parse(&["--local", "--f", "1"]);
        assert!(a.has_flag("local"));
        assert_eq!(a.required::<usize>("f").unwrap(), 1);
    }
}
