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

    /// Parsed numeric flag with a default (falls back on parse failure).
    pub(crate) fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.flags.get(key).and_then(|v| v.parse().ok()).unwrap_or(default)
    }

    /// Whether a boolean flag is present.
    pub(crate) fn has(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }
}

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
        assert_eq!(a.num::<u32>("grid", 0), 24);
        assert!(a.has("compare"));
        assert!(!a.has("missing"));
    }

    #[test]
    fn defaults_apply() {
        let a = Args::parse(&argv(&["train"]));
        assert_eq!(a.num::<usize>("epochs", 40), 40);
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
    fn bad_numbers_fall_back() {
        let a = Args::parse(&argv(&["x", "--grid", "abc"]));
        assert_eq!(a.num::<u32>("grid", 7), 7);
    }
}
