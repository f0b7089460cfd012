//! Thread-count invariance: the determinism contract of `mfhls-par`.
//!
//! A synthesis run is sequential: it never calls into the worker pool,
//! so everything it reports — schedule, per-iteration metrics with the
//! cache counters, and the full trace, diagnostics included — is the same
//! at any thread count. The parallel sites (simulation trials,
//! survivability studies) must produce **bitwise-identical** results at
//! any thread count. These tests pin both rules by running the same work
//! pinned to 1 and 4 workers and comparing full result structures, and
//! check that the layer-solution memo cache is a pure accelerator (cache
//! on ≡ cache off). The `mfhls-obs` logical record stream is held to the
//! same standard: identical fingerprints at any thread count and cache
//! setting.

use mfhls::core::recovery::RetryPolicy;
use mfhls::par::with_threads;
use mfhls::sim::{run_with_recovery, trials, DurationModel, FaultModel, SimConfig};
use mfhls::{SynthConfig, Synthesizer};

fn cases() -> Vec<mfhls::Assay> {
    // Cases 1 and 2 of Table 2 — big enough to exercise multi-layer
    // synthesis and re-synthesis, small enough for a debug test run.
    vec![
        mfhls::assays::kinase_activity(2),
        mfhls::assays::gene_expression(10),
    ]
}

#[test]
fn synthesis_is_thread_count_invariant() {
    for assay in cases() {
        let run = || {
            Synthesizer::new(SynthConfig::default())
                .run(&assay)
                .expect("benchmark assay must synthesize")
        };
        let seq = with_threads(1, run);
        let par = with_threads(4, run);
        assert_eq!(
            seq.schedule,
            par.schedule,
            "schedule differs between 1 and 4 threads for '{}'",
            assay.name()
        );
        // Iteration metrics must match too.
        assert_eq!(seq.iterations.len(), par.iterations.len());
        for (s, p) in seq.iterations.iter().zip(&par.iterations) {
            assert_eq!(s.exec_time, p.exec_time);
            assert_eq!(s.device_count, p.device_count);
            assert_eq!(s.path_count, p.path_count);
            assert_eq!(s.objective, p.objective);
        }
    }
}

#[test]
fn synthesis_run_is_sequential() {
    // No part of a run depends on the pool size: not the cache hit/miss
    // split of any iteration, and not a single trace record, diagnostics
    // included. Table 2 cases 1-3 under the default heuristic and under a
    // cheap-leg portfolio.
    let solvers = [
        mfhls::core::SolverKind::default(),
        mfhls::svc::solver_from_str("portfolio:heuristic+sdc").expect("valid spec"),
    ];
    for (case, _, assay) in mfhls::assays::benchmarks() {
        for solver in &solvers {
            let traced = |threads: usize| {
                with_threads(threads, || {
                    mfhls::obs::start_capture(mfhls::obs::CaptureConfig::default());
                    let result = Synthesizer::new(
                        SynthConfig::builder()
                            .solver(solver.clone())
                            .build()
                            .expect("valid config"),
                    )
                    .run(&assay)
                    .expect("benchmark assay must synthesize");
                    let trace = mfhls::obs::finish_capture().expect("capture was active");
                    (result.iterations, trace.to_jsonl())
                })
            };
            let (iterations_1, trace_1) = traced(1);
            let (iterations_4, trace_4) = traced(4);
            assert_eq!(
                iterations_1, iterations_4,
                "case {case} under {solver:?}: iteration stats differ between 1 and 4 threads"
            );
            assert!(
                trace_1 == trace_4,
                "case {case} under {solver:?}: trace differs between 1 and 4 threads"
            );
        }
    }
}

#[test]
fn ilp_solver_is_thread_count_invariant() {
    // The exact §4 path must honour the same contract as the heuristic:
    // identical schedules AND identical solver work counters at any thread
    // count. The counters live inside cached layer solutions, so cache hits
    // replay the original solve's numbers. Hand-built two-layer assay:
    // small enough for debug-mode exact solves, with an indeterminate op
    // so re-synthesis actually runs.
    use mfhls::chip::{Accessory, Capacity, ContainerKind};
    use mfhls::{Duration, Operation};
    let mut assay = mfhls::Assay::new("ilp-determinism");
    let mix = assay.add_op(
        Operation::new("mix")
            .container(ContainerKind::Ring)
            .capacity(Capacity::Medium)
            .accessory(Accessory::Pump)
            .with_duration(Duration::fixed(6)),
    );
    let heat = assay.add_op(
        Operation::new("heat")
            .container(ContainerKind::Chamber)
            .capacity(Capacity::Small)
            .accessory(Accessory::HeatingPad)
            .with_duration(Duration::fixed(4)),
    );
    let capture = assay.add_op(
        Operation::new("capture")
            .container(ContainerKind::Chamber)
            .capacity(Capacity::Small)
            .with_duration(Duration::at_least(3)),
    );
    let wash = assay.add_op(
        Operation::new("wash")
            .container(ContainerKind::Ring)
            .capacity(Capacity::Medium)
            .accessory(Accessory::Pump)
            .with_duration(Duration::fixed(5)),
    );
    let detect = assay.add_op(
        Operation::new("detect")
            .accessory(Accessory::OpticalSystem)
            .with_duration(Duration::fixed(2)),
    );
    assay.add_dependency(mix, capture).unwrap();
    assay.add_dependency(heat, capture).unwrap();
    assay.add_dependency(capture, wash).unwrap();
    assay.add_dependency(wash, detect).unwrap();
    let run = || {
        Synthesizer::new(
            SynthConfig::builder()
                .solver(mfhls::core::SolverKind::Ilp { max_nodes: 100_000 })
                .build()
                .expect("valid config"),
        )
        .run(&assay)
        .expect("small assay must synthesize with the exact solver")
    };
    let seq = with_threads(1, run);
    let par = with_threads(4, run);
    assert_eq!(
        seq.schedule, par.schedule,
        "ILP schedule differs between 1 and 4 threads"
    );
    assert_eq!(seq.iterations.len(), par.iterations.len());
    for (s, p) in seq.iterations.iter().zip(&par.iterations) {
        assert_eq!(s.exec_time, p.exec_time);
        assert_eq!(s.objective, p.objective);
        assert_eq!(
            s.solver, p.solver,
            "ILP solver stats differ between 1 and 4 threads"
        );
    }
    // The exact path actually ran: every iteration carries ILP work.
    assert!(seq.iterations.iter().all(|it| it.solver.ilp_solves > 0));
    assert!(seq.iterations.iter().all(|it| it.solver.pivots > 0));
}

#[test]
fn layer_cache_is_a_pure_accelerator() {
    for assay in cases() {
        let run = |cache: bool| {
            Synthesizer::new(
                SynthConfig::builder()
                    .layer_cache(cache)
                    .build()
                    .expect("valid config"),
            )
            .run(&assay)
            .expect("benchmark assay must synthesize")
        };
        let cold = run(false);
        let warm = run(true);
        assert_eq!(
            cold.schedule,
            warm.schedule,
            "layer cache changed the schedule for '{}'",
            assay.name()
        );
        assert!(cold.iterations.iter().all(|it| it.cache_hits == 0));
    }
}

#[test]
fn logical_trace_is_thread_count_and_cache_invariant() {
    // The observability layer's determinism contract: the *logical* record
    // stream (spans, layer/iteration events — everything except diagnostics
    // like cache hit/miss splits and per-solve ILP records) is identical
    // at any thread count and with the layer cache on or off.
    let assay = mfhls::assays::gene_expression(10);
    let traced = |threads: usize, cache: bool| {
        with_threads(threads, || {
            mfhls::obs::start_capture(mfhls::obs::CaptureConfig::default());
            let result = Synthesizer::new(
                SynthConfig::builder()
                    .layer_cache(cache)
                    .build()
                    .expect("valid config"),
            )
            .run(&assay)
            .expect("benchmark assay must synthesize");
            let trace = mfhls::obs::finish_capture().expect("capture was active");
            (result.schedule, trace)
        })
    };
    let (schedule_1, trace_1) = traced(1, true);
    let (schedule_4, trace_4) = traced(4, true);
    let (schedule_nc, trace_nc) = traced(1, false);
    assert_eq!(schedule_1, schedule_4);
    assert_eq!(schedule_1, schedule_nc);

    let fp_1 = trace_1.logical_fingerprint();
    assert!(
        fp_1.contains("layer_solved") && fp_1.contains("synthesis"),
        "logical fingerprint must cover the pipeline: {fp_1}"
    );
    assert_eq!(
        fp_1,
        trace_4.logical_fingerprint(),
        "logical trace differs between 1 and 4 threads"
    );
    assert_eq!(
        fp_1,
        trace_nc.logical_fingerprint(),
        "logical trace differs between cache on and cache off"
    );
    // With capture active the full JSONL export round-trips the validator.
    let n = mfhls::obs::validate_jsonl(&trace_1.to_jsonl()).expect("exported trace validates");
    assert_eq!(n, trace_1.len());
}

#[test]
fn fault_run_trace_is_thread_count_invariant() {
    // Fault injection and recovery re-synthesis emit logical events too;
    // the whole narrated run must trace identically at any pool size.
    let assay = mfhls::assays::gene_expression(10);
    let config = SynthConfig::default();
    let result = Synthesizer::new(config.clone())
        .run(&assay)
        .expect("benchmark assay must synthesize");
    let model = DurationModel::GeometricRetry {
        success_probability: 0.53,
        max_attempts: 20,
    };
    let faults = FaultModel::uniform(0.02);
    let policy = RetryPolicy::default();
    let traced = |threads: usize| {
        with_threads(threads, || {
            mfhls::obs::start_capture(mfhls::obs::CaptureConfig::default());
            let run = run_with_recovery(
                &assay,
                &result.schedule,
                &SimConfig { model, seed: 7 },
                &faults,
                &policy,
                &config,
            )
            .expect("fault-injected run must not error");
            let trace = mfhls::obs::finish_capture().expect("capture was active");
            (run.makespan, trace)
        })
    };
    let (makespan_1, trace_1) = traced(1);
    let (makespan_4, trace_4) = traced(4);
    assert_eq!(makespan_1, makespan_4);
    let fp = trace_1.logical_fingerprint();
    assert!(!fp.is_empty(), "fault run must record logical events");
    assert_eq!(fp, trace_4.logical_fingerprint());
}

#[test]
fn simulation_trials_are_thread_count_invariant() {
    let assay = mfhls::assays::gene_expression(10);
    let result = Synthesizer::new(SynthConfig::default())
        .run(&assay)
        .expect("benchmark assay must synthesize");
    let model = DurationModel::GeometricRetry {
        success_probability: 0.53,
        max_attempts: 20,
    };
    let hybrid = |_| trials::run_hybrid_trials(&assay, &result.schedule, model, 32).unwrap();
    assert_eq!(
        with_threads(1, || hybrid(())),
        with_threads(4, || hybrid(()))
    );
    let online =
        |_| trials::run_online_trials(&assay, &result.schedule, model, 32, 2, true).unwrap();
    assert_eq!(
        with_threads(1, || online(())),
        with_threads(4, || online(()))
    );
}

#[test]
fn fault_events_and_survivability_are_thread_count_invariant() {
    let assay = mfhls::assays::gene_expression(10);
    let config = SynthConfig::default();
    let result = Synthesizer::new(config.clone())
        .run(&assay)
        .expect("benchmark assay must synthesize");
    let model = DurationModel::GeometricRetry {
        success_probability: 0.53,
        max_attempts: 20,
    };
    let faults = FaultModel::uniform(0.02);
    let policy = RetryPolicy::default();

    // A single fault-injected run with recovery re-synthesis: the exact
    // fault event sequence must not depend on the pool size.
    let one_run = || {
        run_with_recovery(
            &assay,
            &result.schedule,
            &SimConfig { model, seed: 7 },
            &faults,
            &policy,
            &config,
        )
        .expect("fault-injected run must not error")
    };
    let seq = with_threads(1, one_run);
    let par = with_threads(4, one_run);
    assert_eq!(seq.fault_events, par.fault_events);
    assert_eq!(seq.makespan, par.makespan);
    assert_eq!(seq.completed, par.completed);

    // Monte-Carlo survivability: per-policy statistics (f64 means
    // included) must be bitwise identical — the ordered reduction folds
    // trial records in seed order.
    let survive = || {
        trials::survivability_trials(
            &assay,
            &result.schedule,
            model,
            &faults,
            &policy,
            &config,
            24,
            3.0,
            2,
        )
        .expect("survivability trials must not error")
    };
    assert_eq!(with_threads(1, survive), with_threads(4, survive));
}
