//! Every committed `BENCH_*.json` artifact parses as JSON and carries the
//! schema tag of the code that produces it.

use pm_bench::{chaos, drift, emit, faults, multi};
use pm_serve::Json;
use std::path::Path;

/// Each committed artifact and the schema tag its producer writes (the
/// serve tag is a constant of the `serve_bench` binary).
const PRODUCERS: [(&str, &str); 7] = [
    ("BENCH_fig11_baseline.json", emit::JSON_SCHEMA),
    ("BENCH_fig11_full_baseline.json", emit::JSON_SCHEMA),
    ("BENCH_fig11_drift_baseline.json", drift::DRIFT_JSON_SCHEMA),
    (
        "BENCH_fig11_faults_baseline.json",
        faults::FAULTS_JSON_SCHEMA,
    ),
    ("BENCH_fig11_chaos_baseline.json", chaos::CHAOS_JSON_SCHEMA),
    ("BENCH_fig11_multi_baseline.json", multi::MULTI_JSON_SCHEMA),
    ("BENCH_serve_baseline.json", "pm-bench/serve/v1"),
];

#[test]
fn committed_artifacts_parse_and_carry_their_producers_schema() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut committed: Vec<String> = std::fs::read_dir(&root)
        .expect("the repository root lists")
        .map(|entry| entry.expect("a directory entry").file_name())
        .filter_map(|name| name.into_string().ok())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    committed.sort();
    let mut listed: Vec<String> = PRODUCERS.iter().map(|(name, _)| name.to_string()).collect();
    listed.sort();
    assert_eq!(committed, listed, "every artifact has its producer listed");
    for (name, schema) in PRODUCERS {
        let text = std::fs::read_to_string(root.join(name)).expect("the artifact reads");
        let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(schema),
            "{name}"
        );
    }
}
