//! End-to-end tests of the `mfhls` command-line binary, driving it the way
//! a user would (file in, report out).

use std::process::Command;

fn mfhls(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_mfhls"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn write_protocol(name: &str, body: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("mfhls_cli_{name}_{}.mfa", std::process::id()));
    std::fs::write(&path, body).expect("temp file");
    path
}

const PROTOCOL: &str = r#"
assay "cli test"
op prep { capacity: medium accessories: [pump] duration: 6m }
repeat 3 {
    op capture { accessories: [cell-trap] duration: >= 3m after: [prep] }
    op read { accessories: [optical-system] duration: 4m after: [capture] }
}
"#;

#[test]
fn no_args_prints_usage() {
    let out = mfhls(&[]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
}

#[test]
fn unknown_command_fails() {
    let out = mfhls(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn synth_reports_metrics() {
    let path = write_protocol("synth", PROTOCOL);
    let out = mfhls(&[
        "synth",
        path.to_str().unwrap(),
        "--gantt",
        "--report",
        "--iterations",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("cli test: 7 ops (3 indeterminate)"), "{text}");
    assert!(text.contains("exec time"));
    assert!(text.contains("layer 0"), "gantt missing");
    assert!(text.contains("critical path"), "report missing");
    let _ = std::fs::remove_file(path);
}

#[test]
fn synth_conventional_flag_works() {
    let path = write_protocol("conv", PROTOCOL);
    let out = mfhls(&["synth", path.to_str().unwrap(), "--conventional"]);
    assert!(out.status.success());
    let _ = std::fs::remove_file(path);
}

#[test]
fn synth_custom_weights_and_budget() {
    let path = write_protocol("weights", PROTOCOL);
    let out = mfhls(&[
        "synth",
        path.to_str().unwrap(),
        "--weights",
        "10,1,1,4",
        "--max-devices",
        "6",
        "--threshold",
        "4",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_file(path);
}

#[test]
fn synth_rejects_bad_weights() {
    let path = write_protocol("badw", PROTOCOL);
    let out = mfhls(&["synth", path.to_str().unwrap(), "--weights", "1,2"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("four numbers"));
    let _ = std::fs::remove_file(path);
}

#[test]
fn validate_accepts_and_rejects() {
    let good = write_protocol("good", PROTOCOL);
    let out = mfhls(&["validate", good.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("OK"));
    let _ = std::fs::remove_file(good);

    let bad = write_protocol("bad", "assay \"x\"\nop a { bogus: 1 }");
    let out = mfhls(&["validate", bad.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bogus"));
    let _ = std::fs::remove_file(bad);
}

#[test]
fn simulate_prints_trial_stats() {
    let path = write_protocol("sim", PROTOCOL);
    let out = mfhls(&[
        "simulate",
        path.to_str().unwrap(),
        "--trials",
        "20",
        "--policy",
        "hybrid",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("20 trials"), "{text}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn simulate_online_policy() {
    let path = write_protocol("simon", PROTOCOL);
    let out = mfhls(&[
        "simulate",
        path.to_str().unwrap(),
        "--trials",
        "10",
        "--policy",
        "online",
        "--latency",
        "3",
    ]);
    assert!(out.status.success());
    let _ = std::fs::remove_file(path);
}

#[test]
fn export_lp_emits_model() {
    let path = write_protocol("lp", PROTOCOL);
    let out = mfhls(&["export-lp", path.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Minimize"));
    assert!(text.contains("Subject To"));
    assert!(text.contains("Binaries"));
    let _ = std::fs::remove_file(path);
}

#[test]
fn export_lp_rejects_out_of_range_layer() {
    let path = write_protocol("lp_range", PROTOCOL);
    let out = mfhls(&["export-lp", path.to_str().unwrap(), "--layer", "99"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("out of range"));
    let _ = std::fs::remove_file(path);
}

#[test]
fn svg_export_writes_file() {
    let path = write_protocol("svg", PROTOCOL);
    let svg = std::env::temp_dir().join(format!("mfhls_cli_{}.svg", std::process::id()));
    let out = mfhls(&[
        "synth",
        path.to_str().unwrap(),
        "--svg",
        svg.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let content = std::fs::read_to_string(&svg).expect("svg written");
    assert!(content.starts_with("<svg"));
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(svg);
}

#[test]
fn csv_export_writes_file() {
    let path = write_protocol("csv", PROTOCOL);
    let csv = std::env::temp_dir().join(format!("mfhls_cli_{}.csv", std::process::id()));
    let out = mfhls(&[
        "synth",
        path.to_str().unwrap(),
        "--csv",
        csv.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let content = std::fs::read_to_string(&csv).expect("csv written");
    assert!(content.starts_with("op,name,layer,device"));
    assert_eq!(content.lines().count(), 1 + 7);
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(csv);
}

#[test]
fn graph_emits_dot() {
    let path = write_protocol("dot", PROTOCOL);
    let out = mfhls(&["graph", path.to_str().unwrap(), "--layers"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("digraph"));
    assert!(text.contains("cluster_layer_0"));
    let _ = std::fs::remove_file(path);
}

#[test]
fn repo_protocol_files_synthesize() {
    for file in [
        "protocols/single_cell_screen.mfa",
        "protocols/bead_wash.mfa",
    ] {
        let out = mfhls(&["synth", file]);
        assert!(
            out.status.success(),
            "{file}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn unknown_flag_is_rejected() {
    let path = write_protocol("badflag", PROTOCOL);
    let out = mfhls(&["synth", path.to_str().unwrap(), "--trails", "5"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag '--trails'"), "{err}");
    assert!(err.contains("'mfhls synth'"), "{err}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn threads_is_rejected_where_nothing_runs_in_parallel() {
    // A synthesis run is sequential, so only the subcommands that fan out
    // trials accept --threads; synth rejects it like any unknown flag.
    let path = write_protocol("synth_threads", PROTOCOL);
    let out = mfhls(&["synth", path.to_str().unwrap(), "--threads", "2"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag '--threads'"), "{err}");
    assert!(err.contains("'mfhls synth'"), "{err}");
    let out = mfhls(&[
        "simulate",
        path.to_str().unwrap(),
        "--trials",
        "3",
        "--threads",
        "2",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_file(path);
}

#[test]
fn flag_missing_value_is_rejected() {
    let path = write_protocol("noval", PROTOCOL);
    let out = mfhls(&["synth", path.to_str().unwrap(), "--svg"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("'--svg' of 'mfhls synth' expects a value")
    );
    // A flag as the "value" of another flag is also a missing value.
    let out = mfhls(&["synth", path.to_str().unwrap(), "--max-devices", "--gantt"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("expects a value"));
    let _ = std::fs::remove_file(path);
}

#[test]
fn misspelled_policy_is_rejected() {
    let path = write_protocol("hybird", PROTOCOL);
    let out = mfhls(&[
        "simulate",
        path.to_str().unwrap(),
        "--trials",
        "1",
        "--policy",
        "hybird",
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown policy 'hybird'"), "{err}");
    assert!(err.contains("hybrid|online"), "{err}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn unexpected_positional_is_rejected() {
    let path = write_protocol("extra", PROTOCOL);
    let out = mfhls(&["synth", path.to_str().unwrap(), "stray.mfa"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unexpected argument 'stray.mfa'"));
    let _ = std::fs::remove_file(path);
}

#[test]
fn trace_flag_writes_validating_jsonl() {
    let path = write_protocol("trace", PROTOCOL);
    let trace = std::env::temp_dir().join(format!("mfhls_cli_{}.jsonl", std::process::id()));
    let out = mfhls(&[
        "synth",
        path.to_str().unwrap(),
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let content = std::fs::read_to_string(&trace).expect("trace written");
    assert!(
        content.starts_with("{\"schema\":\"mfhls-obs/v1\""),
        "{content}"
    );
    assert!(content.contains("\"name\":\"layer_solved\""), "{content}");

    // The binary's own validator accepts the file it just wrote...
    let out = mfhls(&["trace-check", trace.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("valid mfhls-obs/v1 trace"));

    // ...and rejects a corrupted one.
    std::fs::write(&trace, content.replace("mfhls-obs/v1", "bogus/v0")).expect("rewrite");
    let out = mfhls(&["trace-check", trace.to_str().unwrap()]);
    assert!(!out.status.success());
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(trace);
}

#[test]
fn trace_chrome_format_emits_trace_events() {
    let path = write_protocol("chrome", PROTOCOL);
    let trace = std::env::temp_dir().join(format!("mfhls_cli_{}.chrome.json", std::process::id()));
    let out = mfhls(&[
        "synth",
        path.to_str().unwrap(),
        "--trace",
        trace.to_str().unwrap(),
        "--trace-format",
        "chrome",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let content = std::fs::read_to_string(&trace).expect("trace written");
    assert!(content.starts_with("{\"traceEvents\":["), "{content}");
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(trace);
}

#[test]
fn log_flag_echoes_to_stderr() {
    let path = write_protocol("log", PROTOCOL);
    let out = mfhls(&["synth", path.to_str().unwrap(), "--log", "info"]);
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("[info] synthesis"), "{err}");
    assert!(err.contains("layer_solved"), "{err}");

    let out = mfhls(&["synth", path.to_str().unwrap(), "--log", "loud"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown log level 'loud'"));
    let _ = std::fs::remove_file(path);
}

#[test]
fn faultsim_fault_free_matches_baseline() {
    let out = mfhls(&[
        "faultsim",
        "protocols/single_cell_screen.mfa",
        "--trials",
        "0",
        "--exact",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("reproduces simulate_hybrid exactly"),
        "{text}"
    );
}

#[test]
fn faultsim_forced_failure_reports_recovery() {
    let out = mfhls(&[
        "faultsim",
        "protocols/single_cell_screen.mfa",
        "--trials",
        "25",
        "--fail-device",
        "8",
        "--fault-rate",
        "0.01",
        "--exact",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("forced failure: device d8"), "{text}");
    assert!(text.contains("quarantined d8 unused: true"), "{text}");
    assert!(text.contains("hybrid+recovery"), "{text}");
    assert!(text.contains("padded-offline"), "{text}");
    assert!(text.contains("online"), "{text}");
}

fn mfhls_with_stdin(args: &[&str], input: &str) -> std::process::Output {
    use std::io::Write as _;
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_mfhls"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(input.as_bytes())
        .expect("write to child stdin");
    child.wait_with_output().expect("binary runs")
}

#[test]
fn synth_format_json_emits_api_response() {
    let path = write_protocol("fmtjson", PROTOCOL);
    let out = mfhls(&["synth", path.to_str().unwrap(), "--format", "json"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let v = mfhls::svc::Json::parse(text.trim()).expect("stdout is one JSON document");
    assert_eq!(
        v.get("version").and_then(mfhls::svc::Json::as_str),
        Some("mfhls-api/v1")
    );
    assert_eq!(
        v.get("type").and_then(mfhls::svc::Json::as_str),
        Some("synthesis")
    );
    assert_eq!(
        v.get("assay").and_then(mfhls::svc::Json::as_str),
        Some("cli test")
    );
    assert!(v.get("stats").is_some(), "{text}");

    let out = mfhls(&["synth", path.to_str().unwrap(), "--format", "yaml"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown format"));
    let _ = std::fs::remove_file(path);
}

#[test]
fn simulate_format_json_emits_trial_stats() {
    let path = write_protocol("simjson", PROTOCOL);
    let out = mfhls(&[
        "simulate",
        path.to_str().unwrap(),
        "--trials",
        "5",
        "--format",
        "json",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v = mfhls::svc::Json::parse(String::from_utf8_lossy(&out.stdout).trim())
        .expect("stdout is one JSON document");
    assert_eq!(
        v.get("version").and_then(mfhls::svc::Json::as_str),
        Some("mfhls-api/v1")
    );
    assert_eq!(v.get("trials").and_then(mfhls::svc::Json::as_u64), Some(5));
    let _ = std::fs::remove_file(path);
}

#[test]
fn faultsim_format_json_emits_survival_stats() {
    let out = mfhls(&[
        "faultsim",
        "protocols/single_cell_screen.mfa",
        "--trials",
        "4",
        "--format",
        "json",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v = mfhls::svc::Json::parse(String::from_utf8_lossy(&out.stdout).trim())
        .expect("stdout is one JSON document");
    assert_eq!(
        v.get("version").and_then(mfhls::svc::Json::as_str),
        Some("mfhls-api/v1")
    );
    assert!(v.get("baseline_makespan").is_some());
    assert!(v.get("policies").is_some());
}

const SERVE_BATCH: &str = concat!(
    r#"{"version":"mfhls-api/v1","type":"synthesize","id":"one","assay":{"dsl":"assay \"a\"\nop p { duration: 4m }\nop q { duration: >= 2m after: [p] }"}}"#,
    "\n",
    r#"{"version":"mfhls-api/v1","type":"synthesize","id":"two","assay":{"benchmark":"kinase","scale":1}}"#,
    "\n",
    "not json\n",
    r#"{"version":"mfhls-api/v1","type":"shutdown"}"#,
    "\n",
);

#[test]
fn serve_round_trips_ndjson_over_stdin() {
    let out = mfhls_with_stdin(&["serve", "--workers", "1"], SERVE_BATCH);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<mfhls::svc::Json> = stdout
        .lines()
        .map(|l| mfhls::svc::Json::parse(l).expect("each response line is JSON"))
        .collect();
    assert_eq!(lines.len(), 3, "{stdout}");
    // The malformed line is rejected immediately, before the batch that
    // the shutdown control flushes.
    assert_eq!(
        lines[0]
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(mfhls::svc::Json::as_str),
        Some("malformed_request")
    );
    assert_eq!(
        lines[1].get("id").and_then(mfhls::svc::Json::as_str),
        Some("one")
    );
    assert_eq!(
        lines[2].get("id").and_then(mfhls::svc::Json::as_str),
        Some("two")
    );
    let summary = String::from_utf8_lossy(&out.stderr);
    assert!(summary.contains("mfhls serve:"), "{summary}");
    assert!(summary.contains("2 accepted, 2 solved"), "{summary}");
}

#[test]
fn serve_is_worker_count_invariant_end_to_end() {
    let run = |workers: &str| {
        let out = mfhls_with_stdin(&["serve", "--workers", workers], SERVE_BATCH);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    assert_eq!(
        run("1"),
        run("4"),
        "serve responses differ between 1 and 4 workers"
    );
}

#[test]
fn serve_overload_rejection_is_typed() {
    let mut input = String::new();
    for i in 0..3 {
        input.push_str(&format!(
            r#"{{"version":"mfhls-api/v1","type":"synthesize","id":"b{i}","assay":{{"dsl":"assay \"b\"\nop p {{ duration: 2m }}"}}}}"#
        ));
        input.push('\n');
    }
    let out = mfhls_with_stdin(&["serve", "--workers", "1", "--queue", "2"], &input);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let first = mfhls::svc::Json::parse(stdout.lines().next().expect("responses written"))
        .expect("response is JSON");
    assert_eq!(
        first.get("id").and_then(mfhls::svc::Json::as_str),
        Some("b2")
    );
    assert_eq!(
        first
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(mfhls::svc::Json::as_str),
        Some("overloaded")
    );
}

#[test]
fn serve_rejects_bad_flags() {
    let out = mfhls_with_stdin(&["serve", "--queue", "0"], "");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--queue"));
    let out = mfhls_with_stdin(&["serve", "--bogus"], "");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag"));
}

#[test]
fn serve_validates_shard_window_queue_bounds_at_parse_time() {
    // Zero and absurd values are rejected before the service starts,
    // with an error that names the offending flag.
    for (flag, value) in [
        ("--shards", "0"),
        ("--window", "0"),
        ("--queue", "0"),
        ("--shards", "1000000"),
        ("--window", "999999999"),
        ("--queue", "1000000"),
    ] {
        let out = mfhls_with_stdin(&["serve", flag, value], "");
        assert!(!out.status.success(), "serve {flag} {value} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(flag), "error must name {flag}: {err}");
        assert!(
            err.contains("at least") || err.contains("at most"),
            "error must state the bound: {err}"
        );
    }
    // Non-numeric values hit the same targeted path.
    let out = mfhls_with_stdin(&["serve", "--shards", "many"], "");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--shards"));
}

#[test]
fn serve_stream_is_shard_invariant_end_to_end() {
    // Same stdin, different shard/pipeline settings: stdout must be
    // byte-for-byte identical (the ordered merge pins response order to
    // admission order, not shard completion order).
    let baseline = mfhls_with_stdin(&["serve", "--workers", "1", "--shards", "1"], SERVE_BATCH);
    assert!(
        baseline.status.success(),
        "{}",
        String::from_utf8_lossy(&baseline.stderr)
    );
    for args in [
        &["serve", "--workers", "1", "--shards", "4"][..],
        &["serve", "--workers", "2", "--shards", "2", "--window", "1"][..],
        &["serve", "--workers", "0", "--shards", "3", "--window", "4"][..],
    ] {
        let out = mfhls_with_stdin(args, SERVE_BATCH);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&baseline.stdout),
            "serve responses differ under {args:?}"
        );
    }
}
