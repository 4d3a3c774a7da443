//! `BENCHMARK.json` at the repository root lists exactly the metrics the
//! benchmark prints, with the same units and in the same order.

use laminar_perfbench::report::{layer_metric_names, END_TO_END};

/// The `(name, unit)` pairs of the JSON array under `key`.
fn section(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array closes")];
    let field = |entry: &str, f: &str| {
        let at =
            entry.find(&format!("\"{f}\": \"")).expect("field present") + f.len() + 5;
        entry[at..at + entry[at..].find('"').expect("string closes")].to_string()
    };
    body.split('{').skip(1).map(|e| (field(e, "name"), field(e, "unit"))).collect()
}

#[test]
fn benchmark_json_matches_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json readable");
    let e2e: Vec<(String, String)> =
        END_TO_END.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect();
    assert_eq!(section(&json, "end_to_end"), e2e);
    let layers: Vec<(String, String)> =
        layer_metric_names().into_iter().map(|(n, u)| (n, u.to_string())).collect();
    assert_eq!(section(&json, "per_layer"), layers);
}
