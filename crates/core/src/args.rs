//! The one command-line parser of the workspace binaries.
//!
//! Each binary declares the value flags and the switches it accepts, each
//! list one space-separated string, and [`Args::parse`] checks the whole
//! line against them: an unknown flag or
//! a stray argument is an error, so is a value flag at the end of the line
//! or followed straight by another flag, and so is a flag given twice.
//! `--help` (or `-h`) anywhere on the line asks for the usage text instead.
//!
//! ```
//! use asmcap::args::Args;
//!
//! let raw: Vec<String> = ["--trials", "100", "--smoke"].map(String::from).to_vec();
//! let args = Args::parse(&raw, "--trials --csv", "--smoke")?;
//! assert!(args.has("--smoke"));
//! assert_eq!(args.parsed::<u32>("--trials")?, Some(100));
//! assert_eq!(args.value("--csv"), None);
//! # Ok::<(), String>(())
//! ```

use std::str::FromStr;

// The methods are `#[inline]` (or generic), so each binary compiles its own
// copy and this module adds no code to this crate's codegen units. Without
// that, the extra module reshuffles how those units are merged and changes
// inlining on the mapping path.

/// The command line, checked against the flags one binary accepts.
#[derive(Debug)]
pub struct Args {
    /// Each flag in command-line order, with its value if it takes one.
    flags: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// Parses `raw` (the arguments after the program name) against the
    /// binary's `value_flags` (each followed by its value) and `switches`
    /// (standing alone), both space-separated lists.
    ///
    /// # Errors
    ///
    /// An unknown flag or stray argument, a value flag whose value is
    /// missing (at the end of the line, or followed straight by another
    /// flag), and a flag given twice; each message names the flag.
    #[inline]
    pub fn parse(
        raw: &[String],
        value_flags: &'static str,
        switches: &'static str,
    ) -> Result<Self, String> {
        if raw.iter().any(|a| a == "--help" || a == "-h") {
            return Ok(Self {
                flags: vec![("--help", None)],
            });
        }
        let mut args = Self { flags: Vec::new() };
        let mut raw = raw.iter();
        while let Some(arg) = raw.next() {
            let known = |list: &'static str| list.split_whitespace().find(|f| f == arg);
            let (flag, value) = if let Some(flag) = known(value_flags) {
                match raw.next() {
                    Some(value) if !value.starts_with("--") => (flag, Some(value.clone())),
                    _ => return Err(format!("flag {flag} needs a value")),
                }
            } else if let Some(flag) = known(switches) {
                (flag, None)
            } else {
                return Err(format!("unknown flag '{arg}' (see --help)"));
            };
            if args.has(flag) {
                return Err(format!("flag {flag} given twice"));
            }
            args.flags.push((flag, value));
        }
        Ok(args)
    }

    /// Whether `flag` was given (`--help` when the usage text was asked for).
    #[inline]
    #[must_use]
    pub fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }

    /// The value of a value flag, if it was given.
    #[inline]
    #[must_use]
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(f, _)| *f == flag)
            .and_then(|(_, value)| value.as_deref())
    }

    /// The value of a value flag parsed as `T`, if it was given.
    ///
    /// # Errors
    ///
    /// A value that does not parse as `T`; the message names the flag and
    /// the value.
    pub fn parsed<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| v.parse().map_err(|_| format!("bad value '{v}' for {flag}")))
            .transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &[&str]) -> Result<Args, String> {
        let raw: Vec<String> = raw.iter().map(|a| (*a).to_owned()).collect();
        Args::parse(
            &raw,
            "--threshold --seed --prefilter-k",
            "--demo --prefilter",
        )
    }

    #[test]
    fn known_flags_parse_with_their_values() {
        let args = parse(&["--demo", "--threshold", "6", "--prefilter"]).expect("valid line");
        assert!(args.has("--demo") && args.has("--prefilter"));
        assert!(!args.has("--seed"));
        assert_eq!(args.value("--threshold"), Some("6"));
        assert_eq!(args.value("--seed"), None);
        assert_eq!(args.value("--demo"), None);
        assert!(parse(&[]).expect("empty line").flags.is_empty());
    }

    #[test]
    fn unknown_flags_and_stray_arguments_are_rejected_by_name() {
        for (raw, named) in [
            (&["--demo", "--prefiltr"][..], "--prefiltr"),
            (&["--treshold", "6"][..], "--treshold"),
            (&["--demo", "stray"][..], "stray"),
        ] {
            let err = parse(raw).expect_err("unknown flag accepted");
            assert_eq!(err, format!("unknown flag '{named}' (see --help)"));
        }
    }

    #[test]
    fn a_value_flag_without_its_value_is_rejected_by_name() {
        for (raw, named) in [
            (&["--demo", "--prefilter-k"][..], "--prefilter-k"),
            (&["--threshold"][..], "--threshold"),
            (&["--seed", "--prefilter"][..], "--seed"),
        ] {
            let err = parse(raw).expect_err("valueless flag accepted");
            assert_eq!(err, format!("flag {named} needs a value"));
        }
        // A value may start with a single dash (a negative number).
        let args = parse(&["--seed", "-3"]).expect("single-dash value");
        assert_eq!(args.value("--seed"), Some("-3"));
    }

    #[test]
    fn a_flag_given_twice_is_rejected_by_name() {
        for (raw, named) in [
            (&["--threshold", "6", "--threshold", "6"][..], "--threshold"),
            (&["--demo", "--seed", "1", "--demo"][..], "--demo"),
        ] {
            let err = parse(raw).expect_err("repeated flag accepted");
            assert_eq!(err, format!("flag {named} given twice"));
        }
    }

    #[test]
    fn help_anywhere_wins_over_every_other_check() {
        for raw in [
            &["--help"][..],
            &["--bogus", "-h"],
            &["--threshold", "--help"],
        ] {
            let args = parse(raw).expect("help is never an error");
            assert!(args.has("--help"), "{raw:?}");
        }
    }

    #[test]
    fn typed_getter_parses_or_names_the_flag_and_value() {
        let args = parse(&["--threshold", "6", "--seed", "x1"]).expect("valid line");
        assert_eq!(args.parsed::<usize>("--threshold"), Ok(Some(6)));
        assert_eq!(args.parsed::<usize>("--prefilter-k"), Ok(None));
        assert_eq!(
            args.parsed::<u64>("--seed"),
            Err("bad value 'x1' for --seed".to_owned())
        );
        // The value is checked against the requested type.
        let args = parse(&["--threshold", "-1"]).expect("valid line");
        assert_eq!(
            args.parsed::<usize>("--threshold"),
            Err("bad value '-1' for --threshold".to_owned())
        );
        assert_eq!(args.parsed::<i32>("--threshold"), Ok(Some(-1)));
    }
}
