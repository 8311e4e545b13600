//! Smoke test of the benchmark at tiny sizes: every workload runs through
//! the command line, prints every declared metric with its unit, repeats
//! its op sequence and outputs for a repeated seed, and its traced run's
//! closure ratio stays within tolerance.

use qokit_e2ebench::{run, RunCtx, Size, END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;
use std::process::Command;

/// The traced run's spans must account for at least this share of each op
/// (the rest is the benchmark's own time between calls).
const CLOSURE_MIN: f64 = 0.95;

/// `(name, unit)` of every metric object in a `BENCHMARK.json` section.
fn declared(json: &str, section: &str) -> Vec<(String, String)> {
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &json[start..json[start..].find(']').expect("section closes") + start];
    body.split("{\"name\": \"")
        .skip(1)
        .map(|item| {
            let name = item.split('"').next().expect("name").to_string();
            let unit = item
                .split("\"unit\": \"")
                .nth(1)
                .and_then(|u| u.split('"').next())
                .unwrap_or("")
                .to_string();
            (name, unit)
        })
        .collect()
}

/// The value of `name` in a result line, if present with `unit`.
fn metric(line: &str, name: &str, unit: &str) -> Option<f64> {
    let rest = line.split(&format!("\"{name}\": {{\"value\": ")).nth(1)?;
    let (value, tail) = rest.split_once(", \"unit\": ")?;
    tail.starts_with(&format!("\"{unit}\"}}"))
        .then(|| value.parse().ok())
        .flatten()
}

fn run_cli(workload: &str, trace: u8) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_qokit-e2ebench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--size", "smoke"])
        .output()
        .expect("run the benchmark binary");
    assert!(output.status.success(), "{workload} trace {trace} failed");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn benchmark_json_declares_the_metrics_the_code_reports() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let pairs = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared(&json, "end_to_end"), pairs(END_TO_END));
    assert_eq!(declared(&json, "per_layer"), pairs(PER_LAYER));
    let workloads: Vec<String> = declared(&json, "workloads")
        .into_iter()
        .map(|w| w.0)
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for &workload in WORKLOADS {
        for (trace, table) in [(0u8, END_TO_END), (1, PER_LAYER)] {
            let line = run_cli(workload, trace);
            assert!(
                line.starts_with("{\"correct\": true, "),
                "{workload}: {line}"
            );
            for &(name, unit) in table {
                let v = metric(&line, name, unit)
                    .unwrap_or_else(|| panic!("{workload}: {name} [{unit}] missing in {line}"));
                assert!(v.is_finite(), "{workload}: {name} = {v}");
                if trace == 0 {
                    assert!(v > 0.0, "{workload}: end-to-end {name} is {v}");
                }
            }
            if trace == 1 {
                let closure = metric(&line, "trace.closure", "ratio").expect("closure");
                assert!(
                    (CLOSURE_MIN..=1.0).contains(&closure),
                    "{workload}: trace.closure {closure} outside [{CLOSURE_MIN}, 1]"
                );
            }
        }
    }
}

#[test]
fn a_repeated_seed_repeats_the_ops_and_their_outputs() {
    for &workload in WORKLOADS {
        let ctx = RunCtx {
            seed: 11,
            seconds: 0.3,
            trace: false,
            size: Size::Smoke,
        };
        let a = run(workload, ctx).expect("known workload");
        let b = run(workload, ctx).expect("known workload");
        assert!(
            a.correct() && b.correct(),
            "{workload}: {:?} {:?}",
            a.errors,
            b.errors
        );
        // Runs are time-boxed, so they may complete different numbers of
        // ops; every op both runs completed must match.
        let by_id = |ops: &[String]| -> BTreeMap<String, String> {
            ops.iter()
                .map(|o| (o.split(':').next().expect("op id").to_string(), o.clone()))
                .collect()
        };
        let (ma, mb) = (by_id(&a.ops), by_id(&b.ops));
        let shared: Vec<&String> = ma.keys().filter(|k| mb.contains_key(*k)).collect();
        assert!(!shared.is_empty(), "{workload}: no ops ran");
        for id in shared {
            assert_eq!(ma[id], mb[id], "{workload}");
        }
        let other = run(workload, RunCtx { seed: 12, ..ctx }).expect("known workload");
        assert_ne!(
            a.ops[0], other.ops[0],
            "{workload}: the seed changes the inputs"
        );
    }
}
