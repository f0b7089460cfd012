//! The synth workloads: one fresh `Synthesizer::run` per request, closed
//! loop with one client, at the default `mfhls-par` thread count.

use crate::check::{check_synth, same_outcome};
use crate::inputs::{SynthInputs, Workload};
use crate::layers::{self, Counts};
use crate::metrics::Outcome;
use crate::trace::Tracer;
use crate::{procstat, stats, RunArgs, SetupTimes, SETUP_AFTER, SETUP_BEFORE};
use mfhls_core::{CoreError, SynthesisResult, Synthesizer};
use std::time::{Duration, Instant};

type SynthOutcome = Result<SynthesisResult, CoreError>;

fn inputs(workload: Workload, seed: u64) -> SynthInputs {
    match workload {
        Workload::SynthExact => crate::inputs::synth_exact(seed),
        _ => crate::inputs::synth_oneshot(seed),
    }
}

fn run_one(inputs: &SynthInputs, i: usize) -> SynthOutcome {
    let req = &inputs.requests[i];
    Synthesizer::new(req.config.clone()).run(&req.assay)
}

/// Times `n` set-ups into `times`; returns the last one's inputs. A
/// set-up only generates the inputs: the figures take per-request
/// medians over the cycles, so the cold first run of a request moves
/// none of them, and a warm-up run would add its thread start-up jitter
/// to `setup_s` (a 5–13 ms portfolio run next to 2 ms of input
/// generation on `synth-exact`).
fn setup(times: &mut SetupTimes, n: usize, workload: Workload, seed: u64) -> SynthInputs {
    times.repeat(n, || inputs(workload, seed), SynthInputs::fingerprint)
}

/// Table 2 quality summed over the first outcome of every request.
fn quality(inputs: &SynthInputs, first: &[Option<SynthOutcome>], out: &mut Outcome) {
    let (mut exec, mut devices, mut paths) = (0u64, 0u64, 0u64);
    for (req, outcome) in inputs.requests.iter().zip(first) {
        if let Some(Ok(r)) = outcome {
            exec += r.schedule.exec_time(&req.assay).fixed;
            devices += r.schedule.used_device_count() as u64;
            paths += r.schedule.path_count() as u64;
        }
    }
    out.values.insert("exec_time_min", exec as f64);
    out.values.insert("devices", devices as f64);
    out.values.insert("paths", paths as f64);
}

/// Runs the checker on the first outcome of every request; a request
/// that fails counts once per time it was sent.
fn check_all(
    inputs: &SynthInputs,
    first: &[Option<SynthOutcome>],
    sent: &[u64],
    out: &mut Outcome,
) {
    for ((req, outcome), &n) in inputs.requests.iter().zip(first).zip(sent) {
        if let Some(outcome) = outcome {
            if let Err(e) = check_synth(req, outcome) {
                eprintln!("mfbench: check failed: {e}");
                out.failed += n;
            }
        }
    }
}

/// The untraced run: whole cycles of the seeded request order until
/// `args.seconds` have passed, timing every `Synthesizer::run` call.
/// Every request is sent once per cycle, so the latency figures take each
/// request's median over the cycles first — a stall of the machine during
/// one cycle moves one sample per request, not the figure: the median
/// latency is the median of those per-request medians, and throughput is
/// the request count over their sum. CPU per request is the median over
/// the cycles.
pub fn run(args: &RunArgs) -> Outcome {
    let mut times = SetupTimes::default();
    let inputs = setup(&mut times, SETUP_BEFORE, args.workload, args.seed);
    let mut out = Outcome::default();
    let n = inputs.requests.len();
    let mut first: Vec<Option<SynthOutcome>> = (0..n).map(|_| None).collect();
    let mut sent = vec![0u64; n];
    let mut latencies = Vec::new();
    let mut by_request: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut cycles = 0;
    let deadline = Duration::from_secs(args.seconds);
    // One segment per cycle: every segment sends the same requests.
    let mut segments = stats::Segments::new(Duration::ZERO);
    let t0 = Instant::now();
    while cycles == 0 || t0.elapsed() < deadline {
        for &i in &inputs.order {
            let t = Instant::now();
            let outcome = run_one(&inputs, i);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            latencies.push(ms);
            by_request[i].push(ms);
            sent[i] += 1;
            match &first[i] {
                None => first[i] = Some(outcome),
                Some(f) if !same_outcome(f, &outcome) => {
                    eprintln!(
                        "mfbench: {} gave a different outcome on a repeat",
                        inputs.requests[i].label
                    );
                    out.failed += 1;
                }
                Some(_) => {}
            }
        }
        cycles += 1;
        segments.record(inputs.order.len() as u64);
    }
    let wall = t0.elapsed().as_secs_f64();
    let rss = procstat::peak_rss_mb();
    setup(&mut times, SETUP_AFTER, args.workload, args.seed);
    if !times.identical() {
        out.broken
            .push("inputs differ between set-up repetitions".into());
    }
    let spread = segments.summary();
    let (_, cpu_per_req) = segments.finish();
    let medians: Vec<f64> = by_request.iter().map(|v| stats::median(v)).collect();

    check_all(&inputs, &first, &sent, &mut out);
    out.attempted = latencies.len() as u64;
    let (tail, pct, block, blocks) = stats::tail(&latencies);
    out.values.insert("setup_s", times.median());
    out.values.insert(
        "throughput_rps",
        1e3 * n as f64 / medians.iter().sum::<f64>(),
    );
    out.values.insert("latency_p50_ms", stats::median(&medians));
    out.values.insert("latency_tail_ms", tail);
    out.values.insert("cpu_ms_per_req", cpu_per_req);
    out.values.insert("peak_rss_mb", rss);
    quality(&inputs, &first, &mut out);
    println!(
        "mfbench: {} requests in {cycles} cycles of {n}, {wall:.2} s; tail = p{pct:.2} of {block} samples, median of {blocks} blocks; {spread}",
        out.attempted
    );
    out
}

/// The traced run: one untraced cycle, the same cycle with every
/// `Synthesizer::run` in a request span, another untraced cycle (the
/// tracing overhead compares the traced cycle with the mean of the two
/// untraced ones), then the layer probes outside the request spans. One
/// cycle each, so the counts repeat exactly.
pub fn run_traced(args: &RunArgs, tracer: &mut Tracer) -> Outcome {
    let mut times = SetupTimes::default();
    let inputs = setup(&mut times, SETUP_BEFORE, args.workload, args.seed);
    let mut out = Outcome::default();
    if !times.identical() {
        out.broken
            .push("inputs differ between set-up repetitions".into());
    }
    let untraced = || {
        let mut ms = 0.0;
        for &i in &inputs.order {
            let t = Instant::now();
            let _ = std::hint::black_box(run_one(&inputs, i));
            ms += t.elapsed().as_secs_f64() * 1e3;
        }
        ms
    };
    let before_ms = untraced();

    let n = inputs.requests.len();
    let mut first: Vec<Option<SynthOutcome>> = (0..n).map(|_| None).collect();
    let mut counts = Counts::default();
    for &i in &inputs.order {
        let outcome = tracer.span("request", i as u64, |t| {
            t.span("core.synth", i as u64, |_| {
                let cpu0 = procstat::cpu_ms();
                let outcome = run_one(&inputs, i);
                counts.synth_cpu_ms += procstat::cpu_ms() - cpu0;
                outcome
            })
        });
        counts.absorb(&outcome);
        first[i] = Some(outcome);
    }
    let traced_ms = tracer.totals().get("request").map_or(0.0, |t| t.busy_ms);
    let untraced_ms = (before_ms + untraced()) / 2.0;

    for &i in &inputs.order {
        let req = &inputs.requests[i];
        let result = first[i].as_ref().and_then(|o| o.as_ref().ok());
        layers::probe(
            tracer,
            i as u64,
            &req.assay,
            &req.config,
            result,
            &mut counts,
        );
    }

    check_all(&inputs, &first, &vec![1; n], &mut out);
    out.attempted = n as u64;
    out.values = layers::per_layer_values(&tracer.totals(), &counts);
    out.values.insert("svc.service.windows", 0.0);
    out.values.insert("svc.service.overhead_ms", 0.0);
    out.values
        .insert("trace.overhead", traced_ms / untraced_ms.max(1e-9));
    out.values.insert("failed_share", out.failed_share());
    println!(
        "mfbench: traced {n} requests: {traced_ms:.1} ms traced vs {untraced_ms:.1} ms untraced"
    );
    out
}
