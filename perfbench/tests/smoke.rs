//! Smoke test: every workload runs a couple of jobs, traced and
//! untraced, and emits exactly the metrics `BENCHMARK.json` lists, each
//! finite and with its declared unit.

use iosim_perfbench::{run, Config, Workload};

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |obj: &str, key: &str| -> String {
        let k = obj
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("{key} missing in {obj}"));
        let rest = &obj[k + key.len() + 2..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closing quote");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

#[test]
fn every_workload_emits_every_declared_metric() {
    for trace in [false, true] {
        let want = declared(if trace { "per_layer" } else { "end_to_end" });
        assert!(!want.is_empty());
        for workload in Workload::ALL {
            let report = run(&Config {
                workload,
                seed: 3,
                seconds: 1e-3,
                trace,
                span_file: None,
            });
            let ctx = format!("{} trace={trace}", workload.name());
            assert!(report.correct, "{ctx}: {:?}", report.problems);
            assert_eq!(report.failed, 0, "{ctx}");
            let got: Vec<(String, String)> = report
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(got, want, "{ctx}");
            for m in &report.metrics {
                assert!(m.value.is_finite(), "{ctx}: {} = {}", m.name, m.value);
            }
            let json = report.to_json();
            assert!(json.starts_with("{\"correct\": true"), "{ctx}: {json}");
        }
    }
}

#[test]
fn traced_and_untraced_jobs_simulate_the_same_thing() {
    // Model values come from the reference job; every timed job, traced
    // or not, is checked against it, so a traced run that passes has
    // simulated exactly what the untraced jobs did.
    let report = run(&Config {
        workload: Workload::OpenloopCache,
        seed: 11,
        seconds: 0.2,
        trace: true,
        span_file: None,
    });
    assert!(report.correct, "{:?}", report.problems);
    assert!(report.attempted >= 2, "{}", report.attempted);
    let get = |n: &str| report.metrics.iter().find(|m| m.name == n).unwrap().value;
    assert!(get("model.virtual_exec_s") > 0.0);
    assert!(get("cache.hits") > 0.0);
    assert!(get("workload.openloop_ms") > 0.0);
}
