//! `repro` argument errors (ROADMAP item 5, SNIPPETS.md §3 AC-3: malformed
//! input fails deterministically): every malformed or contradictory
//! invocation exits 2 with one line on stderr and nothing on stdout — none
//! panics, none is silently accepted — and the line names the check that
//! caught it.

use std::process::Command;

/// The conformance table: one malformed invocation per row, and a piece of
/// the one stderr line it must print.
const MALFORMED: &[(&[&str], &str)] = &[
    // An unknown scale used to run the full-scale figure.
    (&["figs", "4", "--scale", "bogus"], "--scale: \"bogus\""),
    // Unparsable or missing values used to panic (exit 101).
    (&["all", "--seed", "x"], "--seed: \"x\" is not a seed"),
    (
        &["all", "--threads", "x"],
        "--threads: \"x\" is not a count",
    ),
    (&["all", "--seed"], "--seed needs a seed"),
    (&["figs", "x"], "figs: \"x\" is not a figure number"),
    (&["faults", "1.5"], "loss rate must be in [0, 1)"),
    (
        &["engine", "--scale", "small", "--epochs", "0"],
        "--epochs must be >= 1",
    ),
    // An empty DHT used to panic building its tree (exit 101).
    (&["xl2", "--peers", "0"], "--peers must be >= 1"),
    // Selections the chosen phase does not run used to be asserts.
    (&["xl", "8"], "repro xl takes no positional operands"),
    (
        &["engine", "--scale", "xl"],
        "--scale: \"xl\" is not full|small",
    ),
    // Flags the chosen phase ignores used to be dropped silently.
    (
        &["figs", "4", "--scale", "small", "--epochs", "3"],
        "repro figs does not take --epochs",
    ),
    (
        &["figs", "4", "--scale", "small", "--peers", "64"],
        "repro figs does not take --peers",
    ),
    (
        &["figs", "4", "--scale", "small", "--exact"],
        "repro figs does not take --exact",
    ),
    (
        &["xl", "--scale", "small"],
        "repro xl does not take --scale",
    ),
    (
        &["xl2", "--peers", "1024", "--scale", "small"],
        "repro xl2 does not take --scale",
    ),
    (
        &[
            "engine", "--scale", "small", "--epochs", "1", "--peers", "64",
        ],
        "repro engine does not take --peers",
    ),
    (
        &["engine", "--scale", "small", "--epochs", "1", "--exact"],
        "repro engine does not take --exact",
    ),
    (
        &["figs", "4", "--scale", "small", "--gates", "gates"],
        "repro figs does not take --gates",
    ),
    (
        &["analyze", "t.ndjson", "--trace", "a.json"],
        "repro analyze does not take --trace",
    ),
    (
        &["analyze", "t.ndjson", "--profile", "p"],
        "repro analyze does not take --profile",
    ),
    (
        &["analyze", "t.ndjson", "--threads", "2"],
        "repro analyze does not take --threads",
    ),
    (
        &["analyze", "t.ndjson", "--out", "g.json"],
        "--out only applies with --gates",
    ),
    // Unknown names.
    (&["figs", "9"], "no figure 9"),
    (&["claims", "nope"], "unknown claim nope"),
    (&["bogus"], "unknown subcommand bogus"),
    (&["analyze"], "needs at least one artifact path"),
    // The legacy flag spelling, `--timing` and `--quiet` are gone.
    (&["--all"], "unknown subcommand --all"),
    (&["--fig", "4"], "unknown subcommand --fig"),
    (&["all", "--timing"], "unknown argument --timing"),
    (&["all", "--quiet"], "unknown argument --quiet"),
    (&["xl", "--fig", "7"], "unknown argument --fig"),
];

#[test]
fn malformed_invocations_exit_2_with_one_stderr_line() {
    // A readable artifact, so the `analyze` rows fail on their flags and
    // not on a missing input.
    let dir = std::env::temp_dir().join(format!("repro-cli-errors-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    let meta = "{\"type\":\"meta\",\"format\":\"proxbal-trace\",\"version\":1,\"tracks\":0,\"events\":0}\n";
    std::fs::write(dir.join("t.ndjson"), meta).expect("write trace artifact");
    for (args, expected) in MALFORMED {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(*args)
            .current_dir(&dir)
            .output()
            .expect("spawn repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr:?}");
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: stderr {stderr:?}");
        assert!(
            stderr.contains(expected),
            "{args:?}: stderr {stderr:?} does not name {expected:?}"
        );
    }
    std::fs::remove_dir_all(&dir).expect("remove scratch directory");
}
