//! DESIGN.md names only paths that exist: every backticked token that
//! starts with one of the repository's top-level directories must resolve
//! from the repository root.

use std::path::Path;

/// Prefixes that mark a backticked token as a repository path.
const ROOTS: [&str; 7] = [
    "crates/",
    "tests/",
    "examples/",
    "hostbench/",
    "benchmarks/",
    "src/",
    ".github/",
];

/// The repository paths DESIGN.md names in backticks that do not exist,
/// as `DESIGN.md:<line>: <token>`. Code spans are read line by line, so a
/// fence's run of backticks cannot shift the spans after it.
fn missing_paths(root: &Path, text: &str) -> Vec<String> {
    text.lines()
        .enumerate()
        .flat_map(|(i, line)| {
            line.split('`')
                .skip(1)
                .step_by(2)
                .filter(|token| ROOTS.iter().any(|r| token.starts_with(r)))
                .filter(|token| !root.join(token).exists())
                .map(move |token| format!("DESIGN.md:{}: {token}", i + 1))
        })
        .collect()
}

#[test]
fn design_names_only_paths_that_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md is readable");
    let missing = missing_paths(root, &text);
    assert!(
        missing.is_empty(),
        "DESIGN.md names paths that do not exist:\n{}",
        missing.join("\n")
    );
}

#[test]
fn the_check_sees_paths_in_code_spans_only() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = "`tests/design_paths.rs` and `crates/obs` exist\n\
                `tests/no_such_file.rs`, but tests/bare.rs is prose\n\
                ```rust\n\
                `src/lib.rs` after a fence";
    assert_eq!(
        missing_paths(root, text),
        ["DESIGN.md:2: tests/no_such_file.rs"]
    );
}
