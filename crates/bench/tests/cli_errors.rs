//! `repro` argument errors (ROADMAP item 5, SNIPPETS.md §3 AC-3: malformed
//! input fails deterministically): every malformed or contradictory
//! invocation exits 2 with one line on stderr and nothing on stdout — none
//! panics, none is silently accepted.

use std::process::Command;

/// The conformance table: one malformed invocation per row.
const MALFORMED: &[&[&str]] = &[
    // An unknown scale used to run the full-scale figure.
    &["--scale", "bogus", "--fig", "4"],
    // Unparsable or missing values used to panic (exit 101).
    &["--seed", "x"],
    &["--threads", "x"],
    &["--fig"],
    &["figs", "x"],
    &["faults", "1.5"],
    &["engine", "--scale", "small", "--epochs", "0"],
    // Selections the chosen phase does not run used to be asserts.
    &["xl", "--fig", "8"],
    &["engine", "--scale", "xl"],
    // Flags the chosen phase ignores used to be dropped silently.
    &["--fig", "4", "--scale", "small", "--epochs", "3"],
    &["--fig", "4", "--scale", "small", "--peers", "64"],
    &["--fig", "4", "--scale", "small", "--exact"],
    &["xl", "--faults", "0.1"],
    &["xl2", "--peers", "1024", "--faults", "0.1"],
    &[
        "engine", "--scale", "small", "--epochs", "1", "--faults", "0.1",
    ],
    &["engine", "--scale", "small", "--epochs", "1", "--timing"],
    &["faults", "--scale", "small", "--json", "f.json"],
    &["--fig", "4", "--scale", "small", "--gates", "gates"],
    &["analyze", "t.ndjson", "--trace", "a.json"],
    &["analyze", "t.ndjson", "--profile", "p"],
    &["analyze", "t.ndjson", "--threads", "2"],
    // Unknown names.
    &["--fig", "9"],
    &["--claim", "nope"],
    &["bogus"],
    &["analyze"],
];

#[test]
fn malformed_invocations_exit_2_with_one_stderr_line() {
    // A readable artifact, so the `analyze` rows fail on their flags and
    // not on a missing input.
    let dir = std::env::temp_dir().join(format!("repro-cli-errors-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    let meta = "{\"type\":\"meta\",\"format\":\"proxbal-trace\",\"version\":1,\"tracks\":0,\"events\":0}\n";
    std::fs::write(dir.join("t.ndjson"), meta).expect("write trace artifact");
    for args in MALFORMED {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(*args)
            .current_dir(&dir)
            .output()
            .expect("spawn repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr:?}");
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: stderr {stderr:?}");
        assert!(!stderr.trim().is_empty(), "{args:?}: empty message");
    }
    std::fs::remove_dir_all(&dir).expect("remove scratch directory");
}
