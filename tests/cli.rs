//! Integration tests for the `plab` command-line tool: the gen → stats →
//! fit → encode → query pipeline a user would run from a shell.

use std::path::PathBuf;
use std::process::{Command, Output};

fn plab(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_plab"))
        .args(args)
        .output()
        .expect("plab should launch")
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("plab-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn help_prints_usage() {
    let out = plab(&["--help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn unknown_subcommand_fails() {
    let out = plab(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));
}

#[test]
fn gen_stats_fit_pipeline() {
    let graph = tmp("pipeline.el");
    let out = plab(&[
        "gen",
        "--model",
        "chung-lu",
        "--n",
        "3000",
        "--alpha",
        "2.5",
        "--seed",
        "7",
        "--out",
        graph.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = plab(&["stats", graph.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("vertices       3000"), "{text}");
    assert!(text.contains("degeneracy"));

    let out = plab(&["fit", graph.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    let alpha_line = text.lines().find(|l| l.starts_with("alpha")).unwrap();
    let alpha: f64 = alpha_line
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    assert!((alpha - 2.5).abs() < 0.6, "fitted alpha {alpha}");

    let _ = std::fs::remove_file(graph);
}

#[test]
fn encode_and_query_agree_with_graph() {
    let graph = tmp("enc.el");
    let labels = tmp("enc.plab");
    assert!(plab(&[
        "gen",
        "--model",
        "ba",
        "--n",
        "500",
        "--m-param",
        "2",
        "--seed",
        "3",
        "--out",
        graph.to_str().unwrap(),
    ])
    .status
    .success());

    for scheme in [
        "powerlaw",
        "sparse",
        "adjlist",
        "orientation",
        "moon",
        "tau:8",
    ] {
        let mut args = vec!["encode", "--scheme", scheme];
        let alpha_args = ["--alpha", "3.0"];
        if scheme == "powerlaw" {
            args.extend_from_slice(&alpha_args);
        }
        args.extend_from_slice(&[graph.to_str().unwrap(), "--out", labels.to_str().unwrap()]);
        let out = plab(&args);
        assert!(
            out.status.success(),
            "{scheme}: {}",
            String::from_utf8_lossy(&out.stderr)
        );

        // Reload the graph to pick true/false query pairs.
        let text = std::fs::read_to_string(&graph).unwrap();
        let g = pl_graph::io::from_edge_list(&text).unwrap();
        let (u, v) = g.edges().next().unwrap();
        let out = plab(&[
            "query",
            labels.to_str().unwrap(),
            &u.to_string(),
            &v.to_string(),
        ]);
        assert!(out.status.success());
        assert_eq!(
            String::from_utf8_lossy(&out.stdout).trim(),
            "true",
            "{scheme}"
        );

        // A guaranteed non-edge: a vertex with itself.
        let out = plab(&["query", labels.to_str().unwrap(), "0", "0"]);
        assert_eq!(
            String::from_utf8_lossy(&out.stdout).trim(),
            "false",
            "{scheme}"
        );
    }

    let _ = std::fs::remove_file(graph);
    let _ = std::fs::remove_file(labels);
}

#[test]
fn query_rejects_out_of_range() {
    let graph = tmp("range.el");
    let labels = tmp("range.plab");
    assert!(plab(&[
        "gen",
        "--model",
        "er",
        "--n",
        "50",
        "--edges",
        "100",
        "--out",
        graph.to_str().unwrap(),
    ])
    .status
    .success());
    assert!(plab(&[
        "encode",
        "--scheme",
        "adjlist",
        graph.to_str().unwrap(),
        "--out",
        labels.to_str().unwrap(),
    ])
    .status
    .success());
    let out = plab(&["query", labels.to_str().unwrap(), "0", "5000"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("out of range"));

    let _ = std::fs::remove_file(graph);
    let _ = std::fs::remove_file(labels);
}

/// Runs `plab` with the given stdin content piped in.
fn plab_with_stdin(args: &[&str], input: &str) -> Output {
    use std::io::Write;
    let mut child = Command::new(env!("CARGO_BIN_EXE_plab"))
        .args(args)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("plab should launch");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input.as_bytes())
        .expect("write stdin");
    child.wait_with_output().expect("plab should finish")
}

#[test]
fn query_stdin_answers_batches_and_rejects_garbage() {
    let graph = tmp("stdin.el");
    let labels = tmp("stdin.plab");
    assert!(plab(&[
        "gen",
        "--model",
        "ba",
        "--n",
        "200",
        "--m-param",
        "2",
        "--seed",
        "11",
        "--out",
        graph.to_str().unwrap(),
    ])
    .status
    .success());
    assert!(plab(&[
        "encode",
        "--scheme",
        "tau:4",
        graph.to_str().unwrap(),
        "--out",
        labels.to_str().unwrap(),
    ])
    .status
    .success());

    let text = std::fs::read_to_string(&graph).unwrap();
    let g = pl_graph::io::from_edge_list(&text).unwrap();
    let edges: Vec<(u32, u32)> = g.edges().take(5).collect();
    let mut input = String::from("# comment lines and blanks are skipped\n\n");
    for &(u, v) in &edges {
        input.push_str(&format!("{u} {v}\n"));
    }
    input.push_str("0 0\n");
    let out = plab_with_stdin(&["query", labels.to_str().unwrap(), "--stdin"], &input);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let answers: Vec<&str> = std::str::from_utf8(&out.stdout).unwrap().lines().collect();
    assert_eq!(answers.len(), edges.len() + 1);
    assert!(answers[..edges.len()].iter().all(|&a| a == "true"));
    assert_eq!(answers[edges.len()], "false");

    // Malformed pairs must exit non-zero, naming the offending line.
    for bad in ["0 zebra\n", "1\n", "1 2 3\n", "0 99999\n"] {
        let out = plab_with_stdin(&["query", labels.to_str().unwrap(), "--stdin"], bad);
        assert!(!out.status.success(), "input {bad:?} should fail");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("line 1"),
            "input {bad:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    let _ = std::fs::remove_file(graph);
    let _ = std::fs::remove_file(labels);
}

#[test]
fn encode_distance_scheme_and_query_adjacency() {
    let graph = tmp("dist.el");
    let labels = tmp("dist.plab");
    assert!(plab(&[
        "gen",
        "--model",
        "chung-lu",
        "--n",
        "400",
        "--alpha",
        "2.5",
        "--seed",
        "5",
        "--out",
        graph.to_str().unwrap(),
    ])
    .status
    .success());
    let out = plab(&[
        "encode",
        "--scheme",
        "distance",
        "--alpha",
        "2.5",
        "--f",
        "2",
        graph.to_str().unwrap(),
        "--out",
        labels.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&graph).unwrap();
    let g = pl_graph::io::from_edge_list(&text).unwrap();
    let (u, v) = g.edges().next().unwrap();
    let out = plab(&[
        "query",
        labels.to_str().unwrap(),
        &u.to_string(),
        &v.to_string(),
    ]);
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "true");

    let _ = std::fs::remove_file(graph);
    let _ = std::fs::remove_file(labels);
}

#[test]
fn serve_and_loadgen_round_trip() {
    use std::io::{BufRead, BufReader};

    let graph = tmp("serve.el");
    let labels = tmp("serve.plab");
    assert!(plab(&[
        "gen",
        "--model",
        "chung-lu",
        "--n",
        "1000",
        "--alpha",
        "2.5",
        "--seed",
        "9",
        "--out",
        graph.to_str().unwrap(),
    ])
    .status
    .success());
    assert!(plab(&[
        "encode",
        "--scheme",
        "powerlaw",
        "--alpha",
        "2.5",
        graph.to_str().unwrap(),
        "--out",
        labels.to_str().unwrap(),
    ])
    .status
    .success());

    // Port 0 lets the OS pick; the server reports the bound address on
    // stderr as "listening on 127.0.0.1:PORT".
    let mut server = Command::new(env!("CARGO_BIN_EXE_plab"))
        .args(["serve", labels.to_str().unwrap(), "--addr", "127.0.0.1:0"])
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("server should launch");
    let stderr = BufReader::new(server.stderr.take().expect("piped stderr"));
    let mut addr = None;
    for line in stderr.lines() {
        let line = line.expect("server stderr");
        if let Some(rest) = line.strip_prefix("listening on ") {
            addr = Some(rest.trim().to_string());
            break;
        }
    }
    let addr = addr.expect("server should report its address");

    let out = plab(&[
        "loadgen",
        &addr,
        "--connections",
        "2",
        "--requests",
        "2000",
        "--batch",
        "32",
        "--skew",
        "zipf:1.1",
    ]);
    let _ = server.kill();
    let _ = server.wait();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("4000 queries"), "{text}");
    assert!(text.contains("server stats"), "{text}");
    assert!(text.contains("qps"), "{text}");

    let _ = std::fs::remove_file(graph);
    let _ = std::fs::remove_file(labels);
}

#[test]
fn gen_rejects_bad_model_and_missing_n() {
    let out = plab(&["gen", "--model", "nope", "--n", "10"]);
    assert!(!out.status.success());
    let out = plab(&["gen", "--model", "er"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--n"));
}

#[test]
fn stats_ddist_prints_degree_classes() {
    let graph = tmp("ddist.el");
    assert!(plab(&[
        "gen",
        "--model",
        "chung-lu",
        "--n",
        "2000",
        "--alpha",
        "2.5",
        "--out",
        graph.to_str().unwrap(),
    ])
    .status
    .success());
    let out = plab(&["stats", graph.to_str().unwrap(), "--ddist"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("ddist"), "{text}");
    assert!(
        text.lines().any(|l| l.trim_start().starts_with('1')),
        "{text}"
    );
    let _ = std::fs::remove_file(graph);
}
