//! Minimal flag parsing for the `lhnn` CLI (no external dependency).

use std::collections::HashMap;

/// Parsed command line: a subcommand plus `--key value` flags.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The subcommand (first non-flag argument).
    pub command: String,
    flags: HashMap<String, String>,
}

impl Args {
    /// Parses a raw argument list (without the program name).
    pub(crate) fn parse(raw: &[String]) -> Args {
        let mut out = Args::default();
        let mut it = raw.iter().peekable();
        if let Some(first) = it.peek() {
            if !first.starts_with("--") {
                out.command = it.next().expect("peeked").clone();
            }
        }
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                let value = match it.peek() {
                    Some(v) if !v.starts_with("--") => it.next().expect("peeked").clone(),
                    _ => "true".to_string(),
                };
                out.flags.insert(key.to_string(), value);
            }
        }
        out
    }

    /// String flag with a default.
    pub(crate) fn get(&self, key: &str, default: &str) -> String {
        self.flags.get(key).cloned().unwrap_or_else(|| default.to_string())
    }

    /// Optional string flag.
    pub(crate) fn opt(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// Parsed numeric flag, or `default` when the flag is absent.
    ///
    /// # Errors
    ///
    /// [`BadNumber`] when the flag is present but its value does not parse.
    pub(crate) fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, BadNumber> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| BadNumber { flag: key.to_string(), value: v.clone() }),
        }
    }

    /// Whether a boolean flag is present.
    pub(crate) fn has(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }
}

/// A numeric flag whose value does not parse.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct BadNumber {
    flag: String,
    value: String,
}

impl std::fmt::Display for BadNumber {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "--{} expects a number, got `{}`", self.flag, self.value)
    }
}

impl std::error::Error for BadNumber {}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| (*x).to_string()).collect()
    }

    #[test]
    fn parses_command_and_flags() {
        let a = Args::parse(&argv(&["route", "--dir", "/tmp", "--grid", "24", "--compare"]));
        assert_eq!(a.command, "route");
        assert_eq!(a.get("dir", ""), "/tmp");
        assert_eq!(a.num::<u32>("grid", 0), Ok(24));
        assert!(a.has("compare"));
        assert!(!a.has("missing"));
    }

    #[test]
    fn defaults_apply() {
        let a = Args::parse(&argv(&["train"]));
        assert_eq!(a.num::<usize>("epochs", 40), Ok(40));
        assert_eq!(a.get("out", "model.lhnn"), "model.lhnn");
        assert!(a.opt("dir").is_none());
    }

    #[test]
    fn no_command_is_empty() {
        let a = Args::parse(&argv(&["--help"]));
        assert_eq!(a.command, "");
        assert!(a.has("help"));
    }

    #[test]
    fn bad_numbers_are_refused() {
        let a = Args::parse(&argv(&["x", "--grid", "abc", "--epochs", "6O", "--seed"]));
        let err = a.num::<u32>("grid", 7).unwrap_err();
        assert_eq!(err.to_string(), "--grid expects a number, got `abc`");
        assert!(a.num::<usize>("epochs", 60).unwrap_err().to_string().contains("`6O`"));
        // a flag given without a value reads as `true`, which is no number
        assert!(a.num::<u64>("seed", 0).is_err());
    }
}
