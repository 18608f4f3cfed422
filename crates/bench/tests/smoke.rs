//! Smoke tests: every experiment binary runs to completion in --quick mode
//! and emits a well-formed markdown table.

use std::process::Command;

fn run(bin: &str) -> String {
    let out = Command::new(bin)
        .arg("--quick")
        .output()
        .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} exited with {:?}\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 output")
}

fn assert_table(output: &str, min_rows: usize) {
    let table_rows = output.lines().filter(|l| l.starts_with('|')).count();
    // Header + separator + data rows.
    assert!(
        table_rows >= 2 + min_rows,
        "expected a table with at least {min_rows} data rows, got:\n{output}"
    );
}

#[test]
fn e1_runs() {
    let out = run(env!("CARGO_BIN_EXE_e1_datasets"));
    assert_table(&out, 5);
    assert!(out.contains("collab-astro-like"));
}

#[test]
fn e2_runs() {
    let out = run(env!("CARGO_BIN_EXE_e2_threshold"));
    assert_table(&out, 8);
    assert!(out.contains("argmin tau"));
}

#[test]
fn e3_runs() {
    let out = run(env!("CARGO_BIN_EXE_e3_scaling_n"));
    assert_table(&out, 4);
    assert!(out.contains("fitted exponents"));
}

#[test]
fn e4_runs() {
    let out = run(env!("CARGO_BIN_EXE_e4_scaling_alpha"));
    assert_table(&out, 6);
}

#[test]
fn e5_runs() {
    let out = run(env!("CARGO_BIN_EXE_e5_lowerbound"));
    assert_table(&out, 2);
    assert!(out.contains("lower bound"));
}

#[test]
fn e6_runs() {
    let out = run(env!("CARGO_BIN_EXE_e6_ba"));
    assert_table(&out, 3);
}

#[test]
fn e7_runs() {
    let out = run(env!("CARGO_BIN_EXE_e7_one_query"));
    assert_table(&out, 3);
}

#[test]
fn e8_runs() {
    let out = run(env!("CARGO_BIN_EXE_e8_distance"));
    assert_table(&out, 5);
}

#[test]
fn e9_runs() {
    let out = run(env!("CARGO_BIN_EXE_e9_ddist"));
    assert_table(&out, 5);
    // The P_l construction row must be the only `in P_l = true` row.
    let pl_true = out
        .lines()
        .filter(|l| l.starts_with('|') && l.contains("true") && l.ends_with("true   |"))
        .count();
    assert!(
        pl_true <= 1,
        "at most the P_l construction is in P_l:\n{out}"
    );
}

#[test]
fn e10_runs() {
    let out = run(env!("CARGO_BIN_EXE_e10_dynamic"));
    assert_table(&out, 2);
    assert!(out.contains("relabels"));
}

#[test]
fn e11_runs() {
    let out = run(env!("CARGO_BIN_EXE_e11_models"));
    assert_table(&out, 5);
    assert!(out.contains("barabasi-albert"));
}

#[test]
fn e12_runs() {
    let out = run(env!("CARGO_BIN_EXE_e12_smallworld"));
    assert_table(&out, 4);
    assert!(out.contains("mean distance") || out.contains("mean / log2 n"));
}

#[test]
fn e13_runs() {
    let out = run(env!("CARGO_BIN_EXE_e13_routing"));
    assert_table(&out, 9);
    assert!(out.contains("stretch"));
}

#[test]
fn e14_runs() {
    let out = run(env!("CARGO_BIN_EXE_e14_universal"));
    assert_table(&out, 4);
    assert!(out.contains("embeddings verified"));
}

#[test]
fn e15_runs() {
    let out = run(env!("CARGO_BIN_EXE_e15_compression"));
    assert_table(&out, 8);
    assert!(out.contains("best compressed"));
}

#[test]
fn e16_runs() {
    let out = run(env!("CARGO_BIN_EXE_e16_distance_oracles"));
    assert_table(&out, 5);
    assert!(out.contains("full table"));
}

#[test]
fn e17_runs() {
    let out = run(env!("CARGO_BIN_EXE_e17_serving"));
    // 2 schemes x 2 skews.
    assert_table(&out, 4);
    assert!(out.contains("threshold"));
    assert!(out.contains("adjlist"));
    assert!(out.contains("zipf"));
}

#[test]
fn e19_runs() {
    // Route the JSON artifact to a temp path so the smoke run does not
    // clobber the committed BENCH_obs.json.
    let out_path = std::env::temp_dir().join(format!("e19-smoke-{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_e19_observability"))
        .args(["--quick", "--out"])
        .arg(&out_path)
        .output()
        .expect("launch e19");
    assert!(
        out.status.success(),
        "e19 exited with {:?}\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8 output");
    // 3 store modes + 2 serve modes + 2 encode modes.
    assert_table(&stdout, 7);
    assert!(stdout.contains("traced-off"));
    assert!(stdout.contains("worst tracing-disabled overhead"));
    let json = std::fs::read_to_string(&out_path).expect("BENCH_obs.json written");
    std::fs::remove_file(&out_path).ok();
    assert!(json.contains("\"workload\": \"serve.tcp\""));
    assert!(json.contains("\"overhead_pct\""));
}
