//! Double-run determinism of the observability stream (OBSERVABILITY.md's
//! headline contract): two seeded runs of each experiment that streams
//! JSONL (`exp_e15`, `exp_e16`, `exp_e18`, `exp_e19`) must emit
//! byte-identical event streams.
//!
//! Each test shells out to the real binary (Cargo exposes its path via
//! `CARGO_BIN_EXE_<name>`), so the property is checked end-to-end — lazy
//! sink init from `NFM_OBS_OUT`, instrumentation across tensor/model/core,
//! and the final `nfm_bench::finish()` snapshot — not just in-process.

use std::process::{Command, Stdio};

/// Run the experiment binary `exe` at quick scale with the sink pointed at
/// `path`, pinned to a fixed thread count, and return the emitted stream.
fn run(exe: &str, path: &std::path::Path) -> Vec<u8> {
    let status = Command::new(exe)
        .env("NFM_SCALE", "quick")
        .env("NFM_THREADS", "2")
        .env("NFM_OBS_OUT", path)
        .env_remove("NFM_OBS_WALL")
        .stdout(Stdio::null())
        .status()
        .unwrap_or_else(|e| panic!("spawn {exe}: {e}"));
    assert!(status.success(), "{exe} exited with {status}");
    let bytes = std::fs::read(path).expect("read emitted stream");
    let _ = std::fs::remove_file(path);
    bytes
}

/// Minimal structural check that one emitted line is a plausible JSON
/// object of a known record type carrying the expected `seq`. (CI
/// additionally parses every line with a real JSON parser.)
fn check_line(line: &str, expected_seq: u64) {
    assert!(line.starts_with("{\"type\":\"") && line.ends_with('}'), "not an object: {line}");
    let ty = line["{\"type\":\"".len()..].split('"').next().unwrap();
    assert!(
        matches!(ty, "event" | "span" | "table" | "row" | "metric"),
        "unknown record type {ty:?}: {line}"
    );
    let seq_field = format!("\"seq\":{expected_seq},");
    assert!(line.contains(&seq_field), "expected {seq_field} in: {line}");
}

/// Run experiment `name` (binary `exe`) twice and check its stream.
fn check_stream(name: &str, exe: &str) {
    let path = |run: &str| {
        std::env::temp_dir().join(format!("nfm_obs_{name}_{}_run_{run}.jsonl", std::process::id()))
    };
    let a = run(exe, &path("a"));
    let b = run(exe, &path("b"));
    assert!(!a.is_empty(), "{name} must emit events when NFM_OBS_OUT is set");
    assert_eq!(a, b, "{name}: seeded runs must produce byte-identical JSONL streams");

    let text = String::from_utf8(a).expect("stream is UTF-8");
    let mut kinds: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    for (i, line) in text.lines().enumerate() {
        check_line(line, i as u64);
        kinds.insert(line["{\"type\":\"".len()..].split('"').next().unwrap().to_string());
    }
    // The stream must exercise the full record vocabulary: banner event,
    // train/serve spans, the experiment's tables + rows, and the final
    // registry snapshot.
    for want in ["event", "span", "table", "row", "metric"] {
        assert!(kinds.iter().any(|k| *k == want), "{name}: no {want:?} record in stream");
    }
    // Wall-clock metrics must be filtered out of the deterministic stream.
    assert!(!text.contains("\"unit\":\"us\""), "{name}: wall-time metrics leaked into the stream");
}

#[test]
fn e15_obs_stream_is_byte_identical_across_runs() {
    check_stream("exp_e15", env!("CARGO_BIN_EXE_exp_e15"));
}

#[test]
fn e16_obs_stream_is_byte_identical_across_runs() {
    check_stream("exp_e16", env!("CARGO_BIN_EXE_exp_e16"));
}

#[test]
fn e18_obs_stream_is_byte_identical_across_runs() {
    check_stream("exp_e18", env!("CARGO_BIN_EXE_exp_e18"));
}

#[test]
fn e19_obs_stream_is_byte_identical_across_runs() {
    check_stream("exp_e19", env!("CARGO_BIN_EXE_exp_e19"));
}
