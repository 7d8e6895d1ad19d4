//! Consistency of the committed hostbench artifacts.
//!
//! `BENCH_hostbench.json` (the machine-readable record, including the
//! committed-baseline gate's input) and `BENCH_hostbench_summary.md`
//! (the human-readable table CI appends to the job summary) are both
//! written by `hostbench` — but historically a `--rig`-filtered run
//! could overwrite the summary with a single-row table while the JSON
//! kept the full grid, and nothing noticed until a human read the
//! stale table. The binary now only writes the summary on a full
//! unfiltered grid; this test keeps the two committed artifacts from
//! drifting apart again: every summary row in the JSON must appear in
//! the markdown with exactly the cells `render_markdown` would emit,
//! and vice versa.
//!
//! The summary's dense-window column is deterministic, so it is pinned
//! by rig family as well: the saturated RV-CAP transfers run dense
//! windows, the MMIO-bound HWICAP and SD-staging rigs never do.
//!
//! `BENCH_hostbench_profile.md` heads each rig's table with its
//! profiled pass's wall time and outside-tick share; those headers
//! must match the JSON's `profile_passes` records the same way.
//!
//! Both files are hand-parsed (no serde in the build environment),
//! matching the hand-rolled encoder in `rvcap_bench::report`.

use std::path::PathBuf;

/// Repo root: this file lives at `crates/bench/tests/`, two levels
/// below the crate, which is two levels below the root.
fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root resolves")
}

/// One summary record from the JSON's `"summary"` array.
#[derive(Debug)]
struct SummaryRow {
    rig: String,
    naive_cps: f64,
    active_set_cps: f64,
    speedup_vs_naive: f64,
    dense_cycles: u64,
}

fn str_field(obj: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let start = obj.find(&pat)? + pat.len();
    let end = obj[start..].find('"')?;
    Some(obj[start..start + end].to_string())
}

fn num_field(obj: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = obj.find(&pat)? + pat.len();
    let rest = &obj[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// The body of the JSON array under `key`. The report's arrays hold
/// flat objects (no nested arrays), so the slice between `"key":[` and
/// the next `]` contains exactly the records.
fn array_body<'a>(json: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\":[");
    let start = json
        .find(&pat)
        .unwrap_or_else(|| panic!("JSON has a {key} array"))
        + pat.len();
    let end = json[start..].find(']').expect("array closes");
    &json[start..start + end]
}

/// Extract the summary records from a full `BENCH_hostbench.json`.
fn parse_summary(json: &str) -> Vec<SummaryRow> {
    array_body(json, "summary")
        .split('{')
        .filter_map(|obj| {
            Some(SummaryRow {
                rig: str_field(obj, "rig")?,
                naive_cps: num_field(obj, "naive_cps")?,
                active_set_cps: num_field(obj, "active_set_cps")?,
                speedup_vs_naive: num_field(obj, "speedup_vs_naive")?,
                dense_cycles: num_field(obj, "dense_cycles")? as u64,
            })
        })
        .collect()
}

/// Data rows of the markdown table: `| rig | ... |` lines past the
/// header and the `|---|` separator.
fn parse_table(md: &str) -> Vec<Vec<String>> {
    md.lines()
        .filter(|l| l.starts_with('|') && !l.starts_with("|---") && !l.starts_with("| rig"))
        .map(|l| {
            l.trim_matches('|')
                .split('|')
                .map(|c| c.trim().to_string())
                .collect()
        })
        .collect()
}

#[test]
fn summary_matches_json() {
    let root = repo_root();
    let json = std::fs::read_to_string(root.join("BENCH_hostbench.json"))
        .expect("committed BENCH_hostbench.json");
    let md = std::fs::read_to_string(root.join("BENCH_hostbench_summary.md"))
        .expect("committed BENCH_hostbench_summary.md");

    let summary = parse_summary(&json);
    assert!(!summary.is_empty(), "JSON summary array is empty");
    let table = parse_table(&md);

    let json_rigs: Vec<&str> = summary.iter().map(|s| s.rig.as_str()).collect();
    let md_rigs: Vec<&str> = table.iter().map(|r| r[0].as_str()).collect();
    assert_eq!(
        json_rigs, md_rigs,
        "summary markdown covers a different rig set (or order) than the JSON — \
         one of the two artifacts is stale; regenerate both with a full grid run"
    );

    for (s, row) in summary.iter().zip(&table) {
        // Exactly the cells `render_markdown` formats, recomputed from
        // the JSON values.
        let expect = [
            s.rig.clone(),
            format!("{:.0}", s.naive_cps),
            format!("{:.0}", s.active_set_cps),
            format!("{:.1}x", s.speedup_vs_naive),
            s.dense_cycles.to_string(),
        ];
        assert_eq!(
            row.as_slice(),
            &expect,
            "summary row for {} does not match the JSON record",
            s.rig
        );
    }
}

#[test]
fn dense_windows_engage_only_on_streaming_rigs() {
    let json = std::fs::read_to_string(repo_root().join("BENCH_hostbench.json"))
        .expect("committed BENCH_hostbench.json");
    let summary = parse_summary(&json);
    for s in &summary {
        if s.rig.starts_with("rvcap_") {
            assert!(
                s.dense_cycles > 0,
                "{}: the saturated DMA stream never opened a dense window",
                s.rig
            );
        } else if s.rig.starts_with("hwicap_") || s.rig == "sd_staging" {
            assert_eq!(
                s.dense_cycles, 0,
                "{}: a dense window opened on an MMIO-bound rig",
                s.rig
            );
        }
    }
    assert!(
        summary.iter().any(|s| s.rig.starts_with("rvcap_"))
            && summary.iter().any(|s| s.rig.starts_with("hwicap_"))
            && summary.iter().any(|s| s.rig == "sd_staging"),
        "summary lacks a pinned rig family"
    );
}

#[test]
fn profile_headers_match_json() {
    let root = repo_root();
    let json = std::fs::read_to_string(root.join("BENCH_hostbench.json"))
        .expect("committed BENCH_hostbench.json");
    let md = std::fs::read_to_string(root.join("BENCH_hostbench_profile.md"))
        .expect("committed BENCH_hostbench_profile.md");
    let expect: Vec<String> = array_body(&json, "profile_passes")
        .split('{')
        .filter_map(|obj| {
            let outside = num_field(obj, "outside_tick_pct")?;
            assert!(
                (0.0..=100.0).contains(&outside),
                "outside-tick share {outside} is not a percentage"
            );
            Some(format!(
                "### {} — {:.3} ms pass, {:.1}% outside tick calls",
                str_field(obj, "rig")?,
                num_field(obj, "wall_ms")?,
                outside
            ))
        })
        .collect();
    assert!(!expect.is_empty(), "JSON records no profiled pass");
    let headers: Vec<&str> = md.lines().filter(|l| l.starts_with("### ")).collect();
    assert_eq!(
        headers, expect,
        "profile markdown headers disagree with the JSON's profiled passes — \
         regenerate both with one `hostbench --profile` run"
    );
}
