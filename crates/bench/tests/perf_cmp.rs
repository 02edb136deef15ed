//! `perf cmp OLD NEW [--fail-below R]`, the CI perf gate: it must read
//! both the committed baseline (whose rows carry a third key the
//! current format dropped) and the current row format, skip benches
//! missing from NEW, and exit 1 on a breached floor or an unreadable
//! file.

use std::path::PathBuf;
use std::process::{Command, Output};

fn perf_cmp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perf"))
        .arg("cmp")
        .args(args)
        .output()
        .expect("spawn perf")
}

fn baseline() -> String {
    let p = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_PR7.json");
    p.to_str().expect("utf-8 path").to_string()
}

/// Writes a BENCH file in the current two-key row format and returns
/// its path.
fn new_format_file(tag: &str) -> String {
    let p = std::env::temp_dir().join(format!("forhdc_perf_cmp_{tag}_{}.json", std::process::id()));
    std::fs::write(
        &p,
        "{\n  \"version\": 1,\n  \"mode\": \"fast\",\n  \"benches\": {\n    \
         \"block_cache/touch_hot\": {\"ns_per_op\": 3.0, \"ops\": 250001},\n    \
         \"e2e/fig3_point_for\": {\"ns_per_op\": 668.6, \"ops\": 6986},\n    \
         \"e2e/new_only\": {\"ns_per_op\": 1.0, \"ops\": 1}\n  }\n}\n",
    )
    .unwrap();
    p.to_str().expect("utf-8 path").to_string()
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).unwrap()
}

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).unwrap()
}

#[test]
fn reads_the_committed_baseline_and_the_current_format() {
    let new = new_format_file("formats");
    let out = perf_cmp(&[&baseline(), &new]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    // One row per bench present in both files, in OLD's order; benches
    // only NEW has are not rows either.
    assert_eq!(
        stdout(&out),
        "block_cache/touch_hot\t6.0\t3.0\t2.00\ne2e/fig3_point_for\t334.3\t668.6\t0.50\n"
    );
    // The current format also parses on the OLD side.
    let out = perf_cmp(&[&new, &new]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert_eq!(stdout(&out).lines().count(), 3);
    let _ = std::fs::remove_file(&new);
}

#[test]
fn a_bench_missing_from_new_is_skipped() {
    // BENCH_PR7.json lists ten benches, among them a retired one (the
    // last row, 522 ns) that `perf` no longer emits. Benches with no
    // NEW row yield no row and cannot trip the floor.
    let base = std::fs::read_to_string(baseline()).unwrap();
    let bench_rows = base.lines().filter(|l| l.contains("\"ns_per_op\"")).count();
    assert_eq!(bench_rows, 10);
    assert!(base.contains("{\"ns_per_op\": 522.0"));
    let new = new_format_file("missing");
    let out = perf_cmp(&[&baseline(), &new, "--fail-below", "0.30"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert_eq!(stdout(&out).lines().count(), 2, "{}", stdout(&out));
    let _ = std::fs::remove_file(&new);
}

#[test]
fn a_row_below_the_floor_exits_1() {
    let new = new_format_file("floor");
    let out = perf_cmp(&[&baseline(), &new, "--fail-below", "0.60"]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("e2e/fig3_point_for speedup 0.50x"), "{err}");
    assert!(!err.contains("block_cache/touch_hot"), "{err}");
    // Every row is still printed before the verdict.
    assert_eq!(stdout(&out).lines().count(), 2);
    let _ = std::fs::remove_file(&new);
}

#[test]
fn an_unreadable_file_exits_1() {
    let missing = std::env::temp_dir()
        .join(format!(
            "forhdc_perf_cmp_absent_{}.json",
            std::process::id()
        ))
        .to_str()
        .unwrap()
        .to_string();
    for args in [[baseline(), missing.clone()], [missing.clone(), baseline()]] {
        let out = perf_cmp(&[&args[0], &args[1]]);
        assert_eq!(out.status.code(), Some(1));
        assert!(stderr(&out).contains("could not read"), "{}", stderr(&out));
    }
}
