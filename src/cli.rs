//! Canonical usage text and typed usage errors for the `cfd` binary.
//!
//! The usage constants are the **single source** of each subcommand's
//! help *and* of the options it accepts: the binary splices them into
//! its usage template and rejects any `--name` its subcommand's block
//! does not mention ([`check_options`]), so help and parser can never
//! drift apart. `tests/readme_sync.rs` asserts `README.md` embeds the
//! gateway and sweep blocks verbatim, so neither can the README.
//!
//! [`UsageError`] is the typed rejection for malformed option values
//! (`--shards 0`, `--batch 0`, a zero tenant memory budget, unparsable
//! numbers): the binary maps it to its usage-printing error path, and
//! the variants are unit-tested here so a refactor can't silently turn
//! a clean rejection back into a panic.

use std::fmt;

/// A rejected command-line option, with enough structure to test the
/// error paths without string-matching free-form prose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UsageError {
    /// An option that must be at least 1 was zero (`--shards 0`,
    /// `--batch 0`, `--window 0`, `--cells-per-element 0` — the last
    /// two would size a detector, or every tenant of an arena, at a
    /// zero-bit memory budget).
    Zero(&'static str),
    /// An option's value failed to parse.
    Bad {
        /// The option name, without the `--` prefix.
        option: &'static str,
        /// The rejected raw value.
        value: String,
    },
    /// A required option was not given.
    Missing(&'static str),
    /// An option's value parsed but was rejected for a stated reason
    /// (an unknown enum value). A file named by an option that cannot be
    /// read or parsed is not a usage error: `cfd` reports it alone.
    Invalid {
        /// The option name, without the `--` prefix.
        option: &'static str,
        /// Why the value was rejected.
        reason: String,
    },
    /// An argument no command recognizes.
    Unknown(String),
    /// An option that requires a value was the last argument.
    MissingValue(&'static str),
}

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Zero(option) => write!(f, "--{option} must be at least 1"),
            Self::Bad { option, value } => write!(f, "--{option}: bad value `{value}`"),
            Self::Missing(option) => write!(f, "--{option} is required"),
            Self::Invalid { option, reason } => write!(f, "--{option}: {reason}"),
            Self::Unknown(arg) => write!(f, "unrecognized argument `{arg}`"),
            Self::MissingValue(option) => write!(f, "--{option} requires a value"),
        }
    }
}

impl std::error::Error for UsageError {}

/// Validates that an already-parsed count option is at least 1.
///
/// # Errors
///
/// Returns [`UsageError::Zero`] when `value == 0`.
pub fn positive(option: &'static str, value: usize) -> Result<usize, UsageError> {
    if value == 0 {
        Err(UsageError::Zero(option))
    } else {
        Ok(value)
    }
}

/// Parses a count option that must be at least 1.
///
/// # Errors
///
/// Returns [`UsageError::Bad`] when `raw` is not a number and
/// [`UsageError::Zero`] when it parses to 0.
pub fn parse_positive(option: &'static str, raw: &str) -> Result<usize, UsageError> {
    let value: usize = raw.parse().map_err(|_| UsageError::Bad {
        option,
        value: raw.to_owned(),
    })?;
    positive(option, value)
}

/// The `cfd generate` usage block.
pub const GENERATE_USAGE: &str = "  generate   synthesize a click trace
             --kind unique|duplicates|botnet|coalition|crawler|flashcrowd
             --count <clicks> [--seed <u64>] --out <file>";

/// The `cfd detect` usage block (`{algos}` is spliced in from the
/// backend registry).
pub const DETECT_USAGE: &str = "  detect     run a duplicate detector over a trace
             --algo {algos}|exact
             --window <N> [--sub-windows <Q>] [--cells-per-element <c>]
             [--k <hashes>] [--seed <u64>] --trace <file>
             [--shards <S>] [--batch <B>] [--layout scattered|blocked]
             [--window-units <U>] [--sub-units <U>] [--unit-ticks <T>]
             [--score-publishers]
             (cells = filter bits for gbf, timestamp entries for tbf;
              default 14, the paper's Fig. 2 ratio; --shards splits the
              keyspace over S detectors of window N/S, --batch sets the
              observe_batch chunk size, default 512; time-tbf/time-gbf
              judge each click at its own trace tick over a wall-clock
              window: window-units units for time-tbf, sub-windows
              sub-windows of sub-units units for time-gbf, each unit
              unit-ticks ticks — there --window sizes the tables as the
              expected clicks per window, and shards keep the full time
              window since they share one clock)";

/// The `cfd run` usage block (`{algos}` is spliced in from the backend
/// registry).
pub const RUN_USAGE: &str = "  run        drive the concurrent billing pipeline end to end
             --algo {algos}|exact
             [--window <N>]
             [--sub-windows <Q>] [--cells-per-element <c>] [--k <hashes>]
             [--seed <u64>] [--shards <S>] [--batch <B>] [--queue <Q>]
             [--layout scattered|blocked]
             [--window-units <U>] [--sub-units <U>] [--unit-ticks <T>]
             (--trace <file> | [--kind <workload>] [--count <clicks>])
             (--queue is the per-worker ring size in batches, rounded up
              to a power of two)
             [--ads <N>] [--report-json <file>]
             [--metrics[=millis]] [--metrics-json]
             (--metrics prints periodic telemetry snapshots to stderr:
              per-shard queue depth, per-stage latency, detector fill +
              online FP estimate; --metrics-json emits JSON lines
              instead of tables; see docs/OBSERVABILITY.md;
              --ads N bills against a fixed registry of N campaigns —
              the same one `cfd serve --ads N` uses — and --report-json
              writes the final report for byte-for-byte comparison)";

/// The `cfd size` usage block.
pub const SIZE_USAGE: &str = "  size       memory required for a target false-positive rate
             --algo gbf|tbf|metwally --window <N> [--sub-windows <Q>]
             --target-fp <rate>";

/// The `cfd serve` usage block. Spliced into the binary's help text
/// and asserted verbatim in `README.md`.
pub const SERVE_USAGE: &str = "\
  serve      run the long-lived billing gateway over a socket or file
             --listen unix:PATH|tcp:ADDR|tail:FILE
             [--algo <backend>] [--window <N>] [--shards <S>]
             [--sub-windows <Q>] [--cells-per-element <c>] [--k <hashes>]
             [--seed <u64>] [--layout scattered|blocked] [--batch <B>]
             [--window-units <U>] [--sub-units <U>] [--unit-ticks <T>]
             [--queue <Q>] [--ads <N>] [--hub-batches <batches>]
             [--checkpoint <file>] [--checkpoint-every <clicks>] [--resume]
             [--report-json <file>] [--metrics[=millis]] [--metrics-json]
             (any `cfd algos` backend; time-tbf/time-gbf judge each click
              at its CFDW tick over the time window `cfd detect`
              describes; clicks arrive as CFDW wire frames and flow
              through a bounded hub into one pipeline run; every
              --checkpoint-every clicks a barrier snapshot of the complete
              billing state is written and fsynced by a writer thread
              while clicks keep moving; SIGTERM/SIGINT or a client DRAIN
              frame drains gracefully -- in-flight clicks, final
              checkpoint, final report; --resume restarts from
              --checkpoint, and the HELLO position makes clients skip
              everything the checkpoint already covers; --ads N bills
              against the same fixed registry as `cfd run --ads N`, so
              the two reports are comparable byte for byte)";

/// The `cfd replay-client` usage block. Spliced into the binary's help
/// text and asserted verbatim in `README.md`.
pub const REPLAY_USAGE: &str = "\
  replay-client
             stream a recorded trace to a running gateway
             --connect unix:PATH|tcp:ADDR|tail:FILE --trace <file>
             [--frame-clicks <N>] [--limit <clicks>] [--drain]
             [--throttle-ms <millis>] [--retries <attempts>]
             (dials with capped exponential backoff until the server is
              up; every (re)connect reads the server HELLO position and
              resumes from it, so a crashed-and-restarted server never
              double-bills and never misses a click; --drain asks the
              server to shut down once this trace is fully processed)";

/// The `cfd sweep` usage block. Spliced into the binary's help text
/// and asserted verbatim in `README.md`.
pub const SWEEP_USAGE: &str = "\
  sweep      brute-force a scenario's declared detector grid
             --scenario <file.toml> [--quick] [--out <report.json>]
             [--table]
             (compiles the spec's traffic mix into one click stream,
              runs every (algo, memory, k, Q, layout, shards, batch,
              dispatch) grid point against it -- `algo = \"auto\"`
              resolves from the closed-form FP models -- and writes a
              `cfd-bench-sweep/1` report with per-config accuracy,
              memory, and median throughput plus compare-groups rows;
              `tools/check_bench.py` validates the artifact and its
              [[gates]]; --quick caps the stream, shrinking the spec's
              windows with it, for CI smoke runs)";

/// The option names a usage block accepts: every `--name` token in it,
/// without the dashes (a bare `--` separator in prose names nothing).
pub fn usage_options(usage: &str) -> impl Iterator<Item = &str> {
    usage.split("--").skip(1).filter_map(|rest| {
        let end = rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .unwrap_or(rest.len());
        (end > 0).then(|| &rest[..end])
    })
}

/// Rejects the first of `names` (option names without the dashes) that
/// `usage` does not mention, so a typo or a removed option fails loudly
/// instead of being silently ignored.
///
/// # Errors
///
/// Returns [`UsageError::Unknown`] naming the rejected `--option`.
pub fn check_options<'a>(
    usage: &str,
    names: impl IntoIterator<Item = &'a str>,
) -> Result<(), UsageError> {
    for name in names {
        if !usage_options(usage).any(|o| o == name) {
            return Err(UsageError::Unknown(format!("--{name}")));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_counts_are_rejected_not_panicked() {
        for option in ["shards", "batch", "queue", "window", "cells-per-element"] {
            let err = positive(option, 0).unwrap_err();
            assert_eq!(err, UsageError::Zero(option));
            assert_eq!(err.to_string(), format!("--{option} must be at least 1"));
        }
    }

    #[test]
    fn positive_counts_pass_through() {
        assert_eq!(positive("shards", 4), Ok(4));
        assert_eq!(parse_positive("batch", "512"), Ok(512));
    }

    #[test]
    fn unparsable_values_name_the_option_and_value() {
        let err = parse_positive("shards", "four").unwrap_err();
        assert_eq!(
            err,
            UsageError::Bad {
                option: "shards",
                value: "four".to_owned(),
            }
        );
        assert_eq!(err.to_string(), "--shards: bad value `four`");
        assert_eq!(
            parse_positive("batch", "0"),
            Err(UsageError::Zero("batch")),
            "`0` parses, then fails the at-least-1 check"
        );
        assert_eq!(
            parse_positive("window", "-3"),
            Err(UsageError::Bad {
                option: "window",
                value: "-3".to_owned(),
            })
        );
    }

    #[test]
    fn usage_blocks_name_the_options_their_commands_read() {
        let run: Vec<&str> = usage_options(RUN_USAGE).collect();
        for name in [
            "algo",
            "trace",
            "kind",
            "count",
            "queue",
            "metrics",
            "metrics-json",
        ] {
            assert!(run.contains(&name), "cfd run help lost --{name}");
        }
        let serve: Vec<&str> = usage_options(SERVE_USAGE).collect();
        for name in [
            "listen",
            "hub-batches",
            "checkpoint-every",
            "resume",
            "report-json",
        ] {
            assert!(serve.contains(&name), "cfd serve help lost --{name}");
        }
        // The prose `--` separators in the serve block name nothing.
        assert!(!serve.contains(&""));
    }

    #[test]
    fn options_a_command_does_not_take_are_rejected_by_name() {
        for (usage, name) in [
            (RUN_USAGE, "transport"),
            (RUN_USAGE, "pin-workers"),
            (SERVE_USAGE, "transport"),
            (SERVE_USAGE, "pin-workers"),
            (RUN_USAGE, "shrads"),
            (SIZE_USAGE, "shards"),
        ] {
            let err = check_options(usage, [name]).unwrap_err();
            assert_eq!(err, UsageError::Unknown(format!("--{name}")));
            assert!(err.to_string().contains(&format!("`--{name}`")), "{err}");
        }
        assert_eq!(check_options(RUN_USAGE, ["shards", "metrics-json"]), Ok(()));
        assert_eq!(
            check_options(GENERATE_USAGE, ["kind", "count", "out"]),
            Ok(())
        );
        assert_eq!(check_options(DETECT_USAGE, ["score-publishers"]), Ok(()));
        assert_eq!(check_options(REPLAY_USAGE, ["throttle-ms"]), Ok(()));
        assert_eq!(check_options(SWEEP_USAGE, ["table", "quick"]), Ok(()));
    }

    #[test]
    fn structured_variants_render_their_option_names() {
        assert_eq!(
            UsageError::Missing("scenario").to_string(),
            "--scenario is required"
        );
        assert_eq!(
            UsageError::Invalid {
                option: "scenario",
                reason: "nosuch.toml: No such file or directory (os error 2)".to_owned(),
            }
            .to_string(),
            "--scenario: nosuch.toml: No such file or directory (os error 2)"
        );
        assert_eq!(
            UsageError::Unknown("--bogus".to_owned()).to_string(),
            "unrecognized argument `--bogus`"
        );
        assert_eq!(
            UsageError::MissingValue("out").to_string(),
            "--out requires a value"
        );
    }
}
