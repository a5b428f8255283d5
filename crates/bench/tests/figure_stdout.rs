//! Output-discipline smoke test for the figure binaries: stdout carries
//! only the machine-consumable result stream (section headers, the table,
//! the summary numbers), every diagnostic goes to stderr. A script piping
//! `fig12 > results.txt` must get a file that parses.

use std::process::Command;

/// Every stdout line of a figure binary must be one of: blank, a `==`
/// section header, a table rule, a table row whose trailing columns are
/// finite numbers, or a `label: value` summary line.
fn assert_stdout_line_parses(line: &str) {
    if line.is_empty() || line.starts_with("== ") {
        return;
    }
    assert!(
        !line.starts_with('#'),
        "diagnostic leaked onto stdout: {line:?}"
    );
    if line.chars().all(|c| c == '-' || c == ' ' || c == '+') {
        return; // table rule
    }
    // `label: value` summary lines ("average oracle speedup: 1.0123",
    // "GCC slows down 0 of 3 benchmarks", "worst GCC slowdown: b at 0.9").
    if line.contains(':') {
        return;
    }
    let fields: Vec<&str> = line.split_whitespace().collect();
    // Benchmark-name header row of the table: a single bare identifier.
    if !line.starts_with(' ') && fields.len() == 1 {
        return;
    }
    // Method rows: a name column then at least one finite numeric column.
    assert!(
        fields.len() >= 2,
        "unparseable stdout line: {line:?}"
    );
    let numeric = fields[1..]
        .iter()
        .filter(|f| f.parse::<f64>().map(f64::is_finite).unwrap_or(false))
        .count();
    assert!(
        numeric > 0,
        "table row has no numeric column: {line:?}"
    );
}

#[test]
fn fig12_stdout_is_pure_parseable_results() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig12_oracle_vs_gcc"))
        .arg("--tiny")
        .output()
        .expect("fig12 launches");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    let stderr = String::from_utf8(out.stderr).expect("stderr is UTF-8");
    assert!(
        out.status.success(),
        "fig12 failed: {stderr}\n--- stdout:\n{stdout}"
    );

    // Diagnostics live on stderr...
    assert!(
        stderr.contains("# generating suite"),
        "progress diagnostic missing from stderr: {stderr:?}"
    );
    // ...and the result stream is complete and parseable.
    assert!(stdout.contains("== Figure 12"), "missing figure header");
    assert!(stdout.contains("average oracle speedup:"), "missing summary");
    for line in stdout.lines() {
        assert_stdout_line_parses(line);
    }
    // The headline numbers parse back out of the summary lines.
    for label in ["average oracle speedup:", "average GCC speedup:"] {
        let line = stdout
            .lines()
            .find(|l| l.starts_with(label))
            .unwrap_or_else(|| panic!("missing `{label}` line"));
        let value: f64 = line[label.len()..].trim().parse().expect("summary parses");
        assert!(value.is_finite() && value > 0.0, "{label} {value}");
    }
}

/// Runs a figure binary with `args` and returns its stdout, failing the
/// test with its stderr when it exits unsuccessfully.
fn stdout_of(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin)
        .args(args)
        .output()
        .expect("binary launches");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{bin} {args:?} failed: {stderr}");
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

#[test]
fn run_all_stdout_is_the_seven_figures_concatenated() {
    let figures = [
        env!("CARGO_BIN_EXE_fig02_motivating"),
        env!("CARGO_BIN_EXE_fig03_04_tree_paths"),
        env!("CARGO_BIN_EXE_fig12_oracle_vs_gcc"),
        env!("CARGO_BIN_EXE_fig13_comparison"),
        env!("CARGO_BIN_EXE_fig14_stateml_features"),
        env!("CARGO_BIN_EXE_fig15_tree_comparison"),
        env!("CARGO_BIN_EXE_fig16_best_features"),
    ];
    let separate: String = figures
        .iter()
        .map(|bin| stdout_of(bin, &["--tiny"]))
        .collect();
    let one_pass = stdout_of(env!("CARGO_BIN_EXE_run_all"), &["--tiny"]);
    assert!(one_pass.contains("== Figure 16"), "run_all stopped early");
    assert!(
        one_pass == separate,
        "run_all differs from its figures run separately\n--- run_all:\n{one_pass}\n--- separately:\n{separate}"
    );
}

#[test]
fn fig15_measures_through_the_dataset_dir() {
    let dir = std::env::temp_dir().join(format!("fegen-fig15-dataset-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().expect("temp path is UTF-8");
    let stdout = stdout_of(
        env!("CARGO_BIN_EXE_fig15_tree_comparison"),
        &["--tiny", "--dataset-dir", dir_arg],
    );
    assert!(stdout.contains("== Figure 15"), "missing figure header");
    assert!(
        dir.join(fegen_bench::dataset::META_FILE).is_file(),
        "fig15 did not create the dataset store"
    );
    let shards = std::fs::read_dir(dir.join(fegen_bench::dataset::SHARD_DIR))
        .map_or(0, |entries| entries.count());
    assert_eq!(shards, 3, "one shard per tiny-suite benchmark");
    let _ = std::fs::remove_dir_all(&dir);
}
