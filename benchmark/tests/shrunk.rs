//! Every workload, at a tenth of its size, for two seconds: the run must be
//! correct, fail nothing and report every metric the spec names — the
//! end-to-end seven untraced, the whole per-layer list traced, plus a
//! parseable trace whose layer self times add up to the traced round time.
//!
//! Each run is its own process (the benchmark's counters are process-wide),
//! started from the binary Cargo built for this test.

use std::path::Path;
use std::process::Command;

use gpma_benchmark::json::Json;
use gpma_benchmark::spec::{END_TO_END, PER_LAYER, WORKLOADS};

fn run(workload: &str, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_gpma-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "2",
            "--shrunk",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark binary starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace} exited with {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).unwrap_or_else(|e| panic!("{workload}: bad result line ({e}): {last}"))
}

fn assert_result(workload: &str, result: &Json, names: &[(&str, &str)], allow_zero: bool) {
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{workload}"
    );
    assert_eq!(
        result.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{workload}"
    );
    assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    let keys: Vec<&str> = result
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics object");
    let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = names.iter().map(|(n, _)| *n).collect();
    assert_eq!(
        got, want,
        "{workload}: exactly the spec's metrics, in spec order"
    );
    for ((name, m), (_, unit)) in metrics.iter().zip(names) {
        let v = m.get("value").and_then(Json::as_f64);
        assert!(
            v.is_some_and(f64::is_finite),
            "{workload}: {name} = {:?}",
            m.get("value")
        );
        assert!(
            allow_zero || v != Some(0.0),
            "{workload}: {name} must never read 0"
        );
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(*unit),
            "{workload}: {name}"
        );
    }
}

#[test]
fn every_workload_is_correct_and_reports_the_seven_metrics() {
    let names: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    for w in WORKLOADS {
        assert_result(w.name, &run(w.name, false), &names, false);
    }
}

#[test]
fn every_traced_run_reports_every_layer_metric_and_a_consistent_trace() {
    let names: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    for w in WORKLOADS {
        let result = run(w.name, true);
        assert_result(w.name, &result, &names, true);

        // Tests run from the package root, so the trace lands in `trace/`.
        let path = Path::new("trace").join(format!("{}.json", w.name));
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let doc = Json::parse(&text).expect("trace parses");
        assert_eq!(doc.get("workload").and_then(Json::as_str), Some(w.name));
        let spans = doc.get("spans").and_then(Json::as_arr).expect("spans");
        assert!(!spans.is_empty());
        assert_eq!(doc.get("dropped_spans").and_then(Json::as_f64), Some(0.0));
        for s in spans {
            for key in ["name", "start_ns", "end_ns", "parent", "round"] {
                assert!(s.get(key).is_some(), "span without {key}");
            }
            assert!(
                s.get("end_ns").and_then(Json::as_f64) >= s.get("start_ns").and_then(Json::as_f64)
            );
        }
        // Layer self times (everything but the driver's own `section`
        // spans) must account for the traced round time to within 10 %.
        let root = doc.get("root_ns").and_then(Json::as_f64).unwrap();
        let layers: f64 = doc
            .get("layers")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter(|l| l.get("layer").and_then(Json::as_str) != Some("section"))
            .map(|l| l.get("self_ns").and_then(Json::as_f64).unwrap())
            .sum();
        assert!(
            (root - layers).abs() <= 0.10 * root,
            "{}: layers {layers} ns vs rounds {root} ns",
            w.name
        );
    }
}
