//! The benchmark's own checks: deterministic generators, tiny runs of
//! every workload that pass the output checks, detection of corrupt
//! outputs, and agreement between the metrics printed and the ones
//! `BENCHMARK.json` declares.

use std::collections::BTreeMap;
use std::path::PathBuf;

use ouessant_perfbench::farm_run::{expected_outputs, run_epoch};
use ouessant_perfbench::paper::Plan;
use ouessant_perfbench::runner::{end_to_end, per_layer, Options, DEFAULT_SEED};
use ouessant_perfbench::trace::Tracer;
use ouessant_perfbench::workload::Workload;

const FARM_WORKLOADS: [Workload; 3] = [
    Workload::MixedBacklog,
    Workload::ChaosDeadline,
    Workload::SparseIdle,
];

fn tiny(workload: Workload, seed: u64) -> Options {
    Options {
        workload,
        seed,
        seconds: 0.0,
        trace_out: Some(
            PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
                .join(format!("trace-{}-{seed}.json", workload.name())),
        ),
        batches: Some(1),
    }
}

#[test]
fn generators_are_deterministic_per_seed() {
    for w in FARM_WORKLOADS {
        let a = format!("{:?}", w.generate(7, 2));
        assert_eq!(a, format!("{:?}", w.generate(7, 2)), "{}", w.name());
        assert_ne!(a, format!("{:?}", w.generate(8, 2)), "{}", w.name());
    }
    let plan = format!("{:?}", Plan::new(7));
    assert_eq!(plan, format!("{:?}", Plan::new(7)));
    assert_ne!(plan, format!("{:?}", Plan::new(8)));
}

#[test]
fn tiny_runs_pass_the_output_checks_on_two_seeds() {
    for seed in [DEFAULT_SEED, 0x5EED_0002] {
        for w in Workload::ALL {
            let outcome = end_to_end(&tiny(w, seed));
            assert!(
                outcome.correct(),
                "{} seed {seed:#x}: {:?}",
                w.name(),
                outcome.problems
            );
            assert!(outcome.attempted > 0, "{}", w.name());
            assert_eq!(outcome.failed, 0, "{}", w.name());
        }
    }
}

#[test]
fn chaos_deadline_completes_every_reference_job() {
    let w = Workload::ChaosDeadline;
    let batches = w.reference_batches().unwrap();
    let epoch = run_epoch(w, DEFAULT_SEED, batches, true, &mut Tracer::new(), 0);
    assert!(epoch.report.retries > 0, "the chaos makes jobs retry");
    assert_eq!(epoch.submitted(), epoch.completed());
    assert_eq!(epoch.deadline_drops, 0);
}

#[test]
fn a_corrupt_output_fails_the_check() {
    let w = Workload::MixedBacklog;
    let expected = expected_outputs(&w.generate(DEFAULT_SEED, 1));
    let mut epoch = run_epoch(w, DEFAULT_SEED, 1, true, &mut Tracer::new(), 0);
    assert!(epoch.check(&expected).is_empty());
    let digest = epoch.digest();
    epoch.records[5].output[0] ^= 1;
    assert_eq!(epoch.check(&expected).len(), 1);
    assert_ne!(
        epoch.digest(),
        digest,
        "the cross-check digest sees outputs"
    );
    epoch.records.pop();
    assert_eq!(
        epoch.check(&expected).len(),
        2,
        "a missing record is caught"
    );
}

#[test]
fn stepping_modes_agree_on_every_farm_workload() {
    for w in FARM_WORKLOADS {
        let fast = run_epoch(w, 3, 1, true, &mut Tracer::new(), 0);
        let slow = run_epoch(w, 3, 1, false, &mut Tracer::new(), 0);
        assert_eq!(fast.sim_cycles, slow.sim_cycles, "{}", w.name());
        assert_eq!(fast.digest(), slow.digest(), "{}", w.name());
    }
}

/// A minimal JSON reader: enough for `BENCHMARK.json` and the result
/// line.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

fn parse_json(text: &str) -> Json {
    let bytes = text.as_bytes();
    let mut at = 0;
    let value = parse_value(bytes, &mut at);
    skip_ws(bytes, &mut at);
    assert_eq!(at, bytes.len(), "trailing text after JSON value");
    value
}

fn skip_ws(b: &[u8], at: &mut usize) {
    while *at < b.len() && b[*at].is_ascii_whitespace() {
        *at += 1;
    }
}

fn parse_value(b: &[u8], at: &mut usize) -> Json {
    skip_ws(b, at);
    match b[*at] {
        b'{' => {
            *at += 1;
            let mut map = BTreeMap::new();
            loop {
                skip_ws(b, at);
                if b[*at] == b'}' {
                    *at += 1;
                    return Json::Obj(map);
                }
                let Json::Str(key) = parse_value(b, at) else {
                    panic!("object key must be a string")
                };
                skip_ws(b, at);
                assert_eq!(b[*at], b':');
                *at += 1;
                let value = parse_value(b, at);
                assert!(map.insert(key, value).is_none(), "duplicate key");
                skip_ws(b, at);
                if b[*at] == b',' {
                    *at += 1;
                }
            }
        }
        b'[' => {
            *at += 1;
            let mut items = Vec::new();
            loop {
                skip_ws(b, at);
                if b[*at] == b']' {
                    *at += 1;
                    return Json::Arr(items);
                }
                items.push(parse_value(b, at));
                skip_ws(b, at);
                if b[*at] == b',' {
                    *at += 1;
                }
            }
        }
        b'"' => {
            *at += 1;
            let start = *at;
            while b[*at] != b'"' {
                assert_ne!(b[*at], b'\\', "escapes are not expected here");
                *at += 1;
            }
            *at += 1;
            Json::Str(String::from_utf8(b[start..*at - 1].to_vec()).expect("UTF-8"))
        }
        b't' | b'f' | b'n' => {
            let word: String = b[*at..]
                .iter()
                .take_while(|c| c.is_ascii_alphabetic())
                .map(|&c| c as char)
                .collect();
            *at += word.len();
            match word.as_str() {
                "true" => Json::Bool(true),
                "false" => Json::Bool(false),
                "null" => Json::Null,
                other => panic!("bad literal {other}"),
            }
        }
        _ => {
            let start = *at;
            while *at < b.len() && matches!(b[*at], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                *at += 1;
            }
            let text = std::str::from_utf8(&b[start..*at]).expect("ASCII");
            Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
        }
    }
}

fn field<'a>(json: &'a Json, key: &str) -> &'a Json {
    match json {
        Json::Obj(map) => map.get(key).unwrap_or_else(|| panic!("no key {key}")),
        _ => panic!("not an object"),
    }
}

/// The `name`s of one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
    let Json::Arr(items) = field(&parse_json(&text), section).clone() else {
        panic!("{section} is not a list")
    };
    items
        .iter()
        .map(|item| {
            let Json::Str(name) = field(item, "name") else {
                panic!("name is not a string")
            };
            let unit = match item {
                Json::Obj(map) => match map.get("unit") {
                    Some(Json::Str(unit)) => unit.clone(),
                    _ => String::new(),
                },
                _ => String::new(),
            };
            (name.clone(), unit)
        })
        .collect()
}

/// The metrics a result line carries, as (name, unit), in order.
fn printed(line: &str) -> Vec<(String, String)> {
    let json = parse_json(line);
    assert!(matches!(field(&json, "correct"), Json::Bool(true)));
    assert!(matches!(field(&json, "attempted"), Json::Num(n) if *n >= 1.0));
    assert!(matches!(field(&json, "failed"), Json::Num(_)));
    let Json::Obj(metrics) = field(&json, "metrics") else {
        panic!("metrics is not an object")
    };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(matches!(field(m, "value"), Json::Num(_)), "{name}");
            let Json::Str(unit) = field(m, "unit") else {
                panic!("{name} has no unit")
            };
            (name.clone(), unit.clone())
        })
        .collect()
}

#[test]
fn printed_metrics_match_benchmark_json_both_ways() {
    let workloads: Vec<String> = declared("workloads").into_iter().map(|w| w.0).collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);

    let mut totals = declared("end_to_end");
    let mut layers = declared("per_layer");
    totals.sort();
    layers.sort();
    for w in Workload::ALL {
        let options = tiny(w, DEFAULT_SEED);
        let got = printed(&end_to_end(&options).json());
        assert_eq!(got, totals, "{} --trace 0", w.name());
        let got = printed(&per_layer(&options).json());
        assert_eq!(got, layers, "{} --trace 1", w.name());
    }
}

#[test]
fn traced_run_writes_a_chrome_trace() {
    let options = tiny(Workload::SparseIdle, DEFAULT_SEED);
    let outcome = per_layer(&options);
    assert!(outcome.correct(), "{:?}", outcome.problems);
    let path = options.trace_out.expect("set by tiny()");
    let trace = parse_json(&std::fs::read_to_string(path).expect("trace written"));
    let Json::Arr(events) = field(&trace, "traceEvents") else {
        panic!("traceEvents is not a list")
    };
    let names: Vec<&Json> = events.iter().map(|e| field(e, "name")).collect();
    for want in [
        "setup",
        "submit.custom",
        "run_until_idle",
        "report",
        "take_records",
    ] {
        assert!(names.contains(&&Json::Str(want.into())), "no {want} span");
    }
    assert!(names.contains(&&Json::Str("queue-wait".into())));
}
