//! Tests of the benchmark itself: seeded inputs repeat byte for byte, the
//! checker catches tampered outputs (so `failed` is not 0 by
//! construction), and the metric catalogue obeys the naming rules and
//! matches `BENCHMARK.json`.

use mfbench::check::{check_serve_line, check_synth, expected_line, reference_run};
use mfbench::inputs::{self, Expect, ServeLine};
use mfbench::metrics::{END_TO_END, PER_LAYER};
use mfhls_core::{CoreError, Synthesizer};
use mfhls_svc::Json;

#[test]
fn inputs_are_byte_identical_for_a_seed() {
    for seed in [1, 0xDEAD_BEEF] {
        assert_eq!(
            inputs::synth_oneshot(seed).fingerprint(),
            inputs::synth_oneshot(seed).fingerprint()
        );
        assert_eq!(
            inputs::synth_exact(seed).fingerprint(),
            inputs::synth_exact(seed).fingerprint()
        );
        assert_eq!(
            inputs::serve_reuse(seed).fingerprint(),
            inputs::serve_reuse(seed).fingerprint()
        );
        assert_eq!(
            inputs::serve_cold(seed).fingerprint(),
            inputs::serve_cold(seed).fingerprint()
        );
    }
    // The seed is not ignored.
    assert_ne!(
        inputs::synth_oneshot(1).fingerprint(),
        inputs::synth_oneshot(2).fingerprint()
    );
    assert_ne!(
        inputs::synth_exact(1).fingerprint(),
        inputs::synth_exact(2).fingerprint()
    );
    assert_ne!(
        inputs::serve_reuse(1).fingerprint(),
        inputs::serve_reuse(2).fingerprint()
    );
}

#[test]
fn compositions_are_fixed() {
    let oneshot = inputs::synth_oneshot(3);
    assert_eq!(oneshot.requests.len(), 10 * inputs::ONESHOT_PER_PROFILE + 3);
    let mut order = oneshot.order.clone();
    order.sort_unstable();
    assert_eq!(order, (0..oneshot.requests.len()).collect::<Vec<_>>());
    let cold = inputs::serve_cold(3);
    assert_eq!(cold.cycle_len(), inputs::COLD_CYCLE);
    let oversized = cold
        .windows
        .iter()
        .flatten()
        .filter(|l| matches!(l.expect, Expect::Error("parse_error")))
        .count();
    assert_eq!(oversized, inputs::COLD_OVERSIZED);
    let reuse = inputs::serve_reuse(3);
    assert_eq!(reuse.cycle_len(), inputs::REUSE_CYCLE);
    // The riffles: distinct assays, none served in warm-up, so each
    // misses the delta cache.
    let assay_of = |l: &ServeLine| match l.expect {
        Expect::Synth { assay, .. } => Some(assay),
        Expect::Error(_) => None,
    };
    let warm: Vec<usize> = reuse.warmup.iter().flatten().filter_map(assay_of).collect();
    let mut riffles: Vec<usize> = reuse
        .windows
        .iter()
        .flatten()
        .filter(|l| l.id.as_deref().is_some_and(|id| id.starts_with('m')))
        .filter_map(assay_of)
        .collect();
    riffles.sort_unstable();
    riffles.dedup();
    assert_eq!(riffles.len(), inputs::REUSE_PERMUTED);
    assert!(riffles.iter().all(|a| !warm.contains(a)));
}

/// Moves one op onto the start of another op bound to the same device in
/// the same layer: a device conflict `validate_schedule` must reject.
fn move_onto_neighbour(schedule: &mut mfhls_core::HybridSchedule) -> bool {
    for layer in &mut schedule.layers {
        for i in 0..layer.ops.len() {
            for j in 0..layer.ops.len() {
                if i != j && layer.ops[i].device == layer.ops[j].device {
                    layer.ops[j].start = layer.ops[i].start;
                    return true;
                }
            }
        }
    }
    false
}

#[test]
fn checker_flags_a_moved_op() {
    let inp = inputs::synth_oneshot(1);
    let case1 = inp
        .requests
        .iter()
        .find(|r| r.label == "case1")
        .expect("case 1 is in every draw");
    let mut result = Synthesizer::new(case1.config.clone())
        .run(&case1.assay)
        .expect("case 1 synthesizes");
    assert_eq!(check_synth(case1, &Ok(result.clone())), Ok(()));
    assert!(move_onto_neighbour(&mut result.schedule));
    assert!(check_synth(case1, &Ok(result)).is_err());
}

#[test]
fn checker_flags_tampered_serve_responses() {
    let inp = inputs::serve_reuse(1);
    let line: &ServeLine = inp
        .windows
        .iter()
        .flatten()
        .find(|l| matches!(l.expect, Expect::Synth { .. }))
        .expect("the stream has synthesis requests");
    let Expect::Synth { assay, .. } = line.expect else {
        unreachable!()
    };
    let id = line.id.as_deref().expect("synthesis requests carry ids");
    let reference = reference_run(&inp.assays[assay]);
    let good = expected_line(id, &inp.assays[assay], &reference);
    assert_eq!(check_serve_line(line, &good, Some(&good)), Ok(()));
    assert_eq!(check_serve_line(line, &good, None), Ok(()));

    // An op moved in the schedule.
    let moved = good.replacen("\"start\":0", "\"start\":1", 1);
    assert_ne!(moved, good);
    assert!(check_serve_line(line, &moved, Some(&good)).is_err());

    // The wrong class.
    let error = format!(
        r#"{{"version":"mfhls-api/v1","type":"response","id":"{id}","status":"error","error":{{"kind":"parse_error","message":"x"}}}}"#
    );
    assert!(check_serve_line(line, &error, None).is_err());
    let malformed = inp
        .windows
        .iter()
        .flatten()
        .find(|l| matches!(l.expect, Expect::Error("malformed_request")) && l.id.is_none())
        .expect("the stream has malformed lines");
    let ok_for_malformed = good.replacen(&format!("\"id\":\"{id}\""), "\"id\":null", 1);
    assert!(check_serve_line(malformed, &ok_for_malformed, None).is_err());
}

#[test]
fn budget_exhaustion_is_accepted_only_on_resource_starved_assays() {
    let exhausted = Err(CoreError::DeviceBudgetExhausted {
        op: 0,
        max_devices: 4,
    });
    for inp in [inputs::synth_oneshot(1), inputs::synth_exact(1)] {
        let mut starved = 0;
        for req in &inp.requests {
            let accepted = check_synth(req, &exhausted).is_ok();
            assert_eq!(
                accepted,
                req.label.starts_with("gen-resource-starved"),
                "{}",
                req.label
            );
            starved += usize::from(accepted);
        }
        assert!(starved > 0, "the panels hold resource-starved assays");
    }

    let inp = inputs::serve_cold(1);
    let budget_error = |id: &str| {
        let mut out = String::new();
        mfhls_svc::api::response_error(
            Some(id),
            mfhls_svc::api::ErrorKind::SynthesisError,
            &exhausted.as_ref().unwrap_err().to_string(),
        )
        .write(&mut out);
        out
    };
    let mut seen = [false; 2];
    for line in inp.windows.iter().flatten() {
        let Expect::Synth {
            may_exhaust_budget, ..
        } = line.expect
        else {
            continue;
        };
        let response = budget_error(line.id.as_deref().expect("synthesis requests carry ids"));
        assert_eq!(
            check_serve_line(line, &response, None).is_ok(),
            may_exhaust_budget
        );
        // A reference run that errs the same way is no excuse either.
        assert_eq!(
            check_serve_line(line, &response, Some(&response)).is_ok(),
            may_exhaust_budget
        );
        seen[usize::from(may_exhaust_budget)] = true;
    }
    assert_eq!(seen, [true, true], "the stream holds both kinds of assay");
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn metric_names_follow_the_rules() {
    assert!(END_TO_END.len() <= 16);
    assert!(PER_LAYER.len() <= 128);
    let mut seen = std::collections::BTreeSet::new();
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(m.name), "{}", m.name);
        assert!(seen.insert(m.name), "{} is used twice", m.name);
        assert!(m.unit.len() <= 16 && !m.unit.is_empty(), "{}", m.unit);
        assert!(m
            .unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        assert!(m.better == "higher" || m.better == "lower");
    }
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
}

#[test]
fn catalogue_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
    let spec = Json::parse(&text).expect("BENCHMARK.json is JSON");
    let names = |key: &str| -> Vec<(String, String, String)> {
        spec.get(key)
            .and_then(Json::as_array)
            .expect("metric lists are arrays")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_owned();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    };
    let ours = |defs: &[mfbench::metrics::MetricDef]| -> Vec<(String, String, String)> {
        defs.iter()
            .map(|m| (m.name.to_owned(), m.unit.to_owned(), m.better.to_owned()))
            .collect()
    };
    assert_eq!(names("end_to_end"), ours(END_TO_END));
    assert_eq!(names("per_layer"), ours(PER_LAYER));
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads is an array")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_owned))
        .collect();
    let expected: Vec<String> = inputs::Workload::ALL
        .iter()
        .map(|w| w.name().to_owned())
        .collect();
    assert_eq!(workloads, expected);
}
