//! The serve workloads: an NDJSON stream fed in-process to
//! `SynthesisService::serve` under the default `ServiceConfig`, closed
//! loop with one client — the client offers a window (16 request lines
//! and the blank line that closes it) and sends the next one only after
//! the service has written the window's responses.

use crate::check::{self, check_serve_line, expected_line, response_order};
use crate::inputs::{Expect, ServeInputs, ServeLine, Workload};
use crate::layers::{self, Counts};
use crate::metrics::Outcome;
use crate::trace::Tracer;
use crate::{procstat, stats, RunArgs, SetupTimes, SETUP_AFTER, SETUP_BEFORE};
use mfhls_core::{AssayShape, DeltaCache, SharedLayerCache, Synthesizer};
use mfhls_svc::api::{response_error, response_ok, ErrorKind};
use mfhls_svc::{parse_incoming, Incoming, Json, ServiceConfig, ServiceSummary, SynthesisService};
use std::collections::BTreeMap;
use std::io::{self, BufRead, Read, Write};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

fn inputs(workload: Workload, seed: u64) -> ServeInputs {
    match workload {
        Workload::ServeCold => crate::inputs::serve_cold(seed),
        _ => crate::inputs::serve_reuse(seed),
    }
}

/// State the client's two halves share: the feeder offers a window, the
/// sink collects its responses and releases the next one.
#[derive(Default)]
struct Client {
    /// Windows whose responses were written.
    done: usize,
    /// When the window in flight was offered.
    offered_at: Option<Instant>,
    /// Latency of each window, ms: offered to responses written.
    latencies: Vec<f64>,
    /// Response bytes of each window of the first pass over the stream.
    first_pass: Vec<Vec<u8>>,
    /// Windows of later passes that differed from the first pass, in
    /// response lines.
    repeat_mismatches: u64,
    /// Responses received.
    responses: u64,
    /// Rate and CPU segments of the pass (see [`stats::Segments`]).
    segments: Option<stats::Segments>,
}

/// Minimum length of a throughput segment on the serve workloads.
const SEGMENT: Duration = Duration::from_secs(1);

type Shared = Arc<(Mutex<Client>, Condvar)>;

/// The client's sending half: offers one window at a time, blocking
/// until the previous window's responses arrived. Ends the stream at a
/// window boundary once the deadline has passed and every window was
/// sent at least once.
struct Feeder<'a> {
    windows: &'a [Vec<u8>],
    sent: usize,
    pos: usize,
    deadline: Option<Instant>,
    shared: Shared,
}

impl Read for Feeder<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let chunk = self.fill_buf()?;
        let n = chunk.len().min(buf.len());
        buf[..n].copy_from_slice(&chunk[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for Feeder<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        let windows = self.windows;
        if windows.is_empty() {
            return Ok(&[]);
        }
        if self.sent > 0 {
            let current = &windows[(self.sent - 1) % windows.len()];
            if self.pos < current.len() {
                return Ok(&current[self.pos..]);
            }
        }
        let (lock, cvar) = &*self.shared;
        let mut client = lock.lock().expect("client state poisoned");
        while client.done < self.sent {
            client = cvar.wait(client).expect("client state poisoned");
        }
        let expired = self.deadline.is_none_or(|d| Instant::now() >= d);
        if self.sent >= windows.len() && expired {
            return Ok(&[]);
        }
        client.offered_at = Some(Instant::now());
        drop(client);
        let next = &windows[self.sent % windows.len()];
        self.sent += 1;
        self.pos = 0;
        Ok(&next[..])
    }

    fn consume(&mut self, amt: usize) {
        self.pos += amt;
    }
}

/// The client's receiving half: the service writes each window's
/// responses in one chunk.
struct Sink {
    windows: usize,
    shared: Shared,
}

impl Write for Sink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let (lock, cvar) = &*self.shared;
        let mut client = lock.lock().expect("client state poisoned");
        let ms = client
            .offered_at
            .take()
            .map_or(0.0, |t| t.elapsed().as_secs_f64() * 1e3);
        let lines = buf.iter().filter(|&&b| b == b'\n').count();
        client.responses += lines as u64;
        client.latencies.push(ms);
        if let Some(segments) = &mut client.segments {
            segments.record(lines as u64);
        }
        let k = client.done;
        if k < self.windows {
            client.first_pass.push(buf.to_vec());
        } else if client.first_pass[k % self.windows] != buf {
            let first = &client.first_pass[k % self.windows];
            let differing = first
                .split(|&b| b == b'\n')
                .zip(buf.split(|&b| b == b'\n'))
                .filter(|(a, b)| a != b)
                .count()
                .max(1);
            client.repeat_mismatches += differing as u64;
        }
        client.done += 1;
        cvar.notify_all();
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Serves `windows` closed loop; passes over them again until `deadline`
/// (one pass when `None`). Returns the client state, the wall time and
/// the service's own summary of the stream.
fn serve_closed_loop(
    service: &SynthesisService,
    windows: &[Vec<u8>],
    deadline: Option<Instant>,
) -> (Client, f64, ServiceSummary) {
    let client = Client {
        segments: Some(stats::Segments::new(SEGMENT)),
        ..Client::default()
    };
    let shared: Shared = Arc::new((Mutex::new(client), Condvar::new()));
    let feeder = Feeder {
        windows,
        sent: 0,
        pos: 0,
        deadline,
        shared: Arc::clone(&shared),
    };
    let sink = Sink {
        windows: windows.len(),
        shared: Arc::clone(&shared),
    };
    let t0 = Instant::now();
    let summary = service
        .serve(feeder, sink)
        .expect("in-memory serve streams do not fail");
    let wall = t0.elapsed().as_secs_f64();
    let client = std::mem::take(&mut *shared.0.lock().expect("client state poisoned"));
    (client, wall, summary)
}

fn window_bytes(windows: &[Vec<ServeLine>]) -> Vec<Vec<u8>> {
    windows
        .iter()
        .map(|w| ServeInputs::window_bytes(w))
        .collect()
}

/// One set-up: generate the inputs, build the service and serve the
/// warm-up windows. Returns the inputs, the service and the warm-up
/// responses.
fn setup_once(workload: Workload, seed: u64) -> (ServeInputs, SynthesisService, Client) {
    let inp = inputs(workload, seed);
    let service = SynthesisService::new(ServiceConfig::default());
    let (warm, _, _) = serve_closed_loop(&service, &window_bytes(&inp.warmup), None);
    (inp, service, warm)
}

/// Times `n` set-ups into `times`; returns the last one.
fn setup(
    times: &mut SetupTimes,
    n: usize,
    workload: Workload,
    seed: u64,
) -> (ServeInputs, SynthesisService, Client) {
    times.repeat(
        n,
        || setup_once(workload, seed),
        |(inp, _, _)| inp.fingerprint(),
    )
}

/// Which `ok` requests get a cache-off reference run: all of them on
/// `serve-reuse`; on `serve-cold`, where a reference run costs as much as
/// serving, a seeded eighth.
fn sampled(workload: Workload, seed: u64, assay: usize) -> bool {
    workload != Workload::ServeCold
        || (seed ^ (assay as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .rotate_left(17)
            .is_multiple_of(8)
}

/// Checks the responses of `windows` (one chunk per window, as served)
/// and sums the Table 2 quality of the `ok` responses. Returns the failed
/// response count per window and the (exec, devices, paths) sums.
fn check_windows(
    workload: Workload,
    seed: u64,
    inputs: &ServeInputs,
    windows: &[Vec<ServeLine>],
    chunks: &[Vec<u8>],
) -> (Vec<u64>, (u64, u64, u64)) {
    let mut wanted: Vec<usize> = windows
        .iter()
        .flatten()
        .filter_map(|l| match l.expect {
            Expect::Synth { assay, .. } if sampled(workload, seed, assay) => Some(assay),
            _ => None,
        })
        .collect();
    wanted.sort_unstable();
    wanted.dedup();
    let references: BTreeMap<usize, _> = wanted
        .iter()
        .copied()
        .zip(mfhls_par::par_map(&wanted, |&a| {
            check::reference_run(&inputs.assays[a])
        }))
        .collect();

    let mut failed = Vec::with_capacity(windows.len());
    let mut quality = (0, 0, 0);
    for (k, window) in windows.iter().enumerate() {
        let text = chunks
            .get(k)
            .map(|c| String::from_utf8_lossy(c).into_owned())
            .unwrap_or_default();
        let responses: Vec<&str> = text.lines().collect();
        let order = response_order(window);
        let mut bad = 0u64;
        if responses.len() != order.len() {
            eprintln!(
                "mfbench: window {k}: {} responses to {} requests",
                responses.len(),
                order.len()
            );
            bad += order.len() as u64;
        } else {
            for (line, response) in order.iter().zip(&responses) {
                let expected = match (&line.expect, &line.id) {
                    (Expect::Synth { assay, .. }, Some(id)) => references
                        .get(assay)
                        .map(|r| expected_line(id, &inputs.assays[*assay], r)),
                    _ => None,
                };
                if let Err(e) = check_serve_line(line, response, expected.as_deref()) {
                    eprintln!("mfbench: check failed: {e}");
                    bad += 1;
                }
                if let Some((exec, devices, paths)) = check::response_quality(response) {
                    quality.0 += exec;
                    quality.1 += devices;
                    quality.2 += paths;
                }
            }
        }
        failed.push(bad);
    }
    (failed, quality)
}

/// The untraced run: the warm-up windows during set-up, then passes over
/// the stream until `args.seconds` have passed (at least one pass).
/// Throughput and CPU per request are medians over segments of at least
/// [`SEGMENT`].
pub fn run(args: &RunArgs) -> Outcome {
    let mut times = SetupTimes::default();
    let (inputs, service, warm) = setup(&mut times, SETUP_BEFORE, args.workload, args.seed);
    let mut out = Outcome::default();
    let windows = window_bytes(&inputs.windows);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let (mut client, wall, _) = serve_closed_loop(&service, &windows, Some(deadline));
    let rss = procstat::peak_rss_mb();
    drop(service);
    setup(&mut times, SETUP_AFTER, args.workload, args.seed);
    if !times.identical() {
        out.broken
            .push("inputs differ between set-up repetitions".into());
    }
    let segments = client.segments.take().expect("the timed pass is segmented");
    let spread = segments.summary();
    let (rate, cpu_per_req) = segments.finish();

    let (warm_failed, _) = check_windows(
        args.workload,
        args.seed,
        &inputs,
        &inputs.warmup,
        &warm.first_pass,
    );
    let (failed, quality) = check_windows(
        args.workload,
        args.seed,
        &inputs,
        &inputs.windows,
        &client.first_pass,
    );
    // A window that failed on the first pass fails again on every repeat.
    let passes = client.done / windows.len();
    let extra = client.done % windows.len();
    out.failed = warm_failed.iter().sum::<u64>()
        + client.repeat_mismatches
        + failed
            .iter()
            .enumerate()
            .map(|(k, f)| f * (passes + usize::from(k < extra)) as u64)
            .sum::<u64>();
    out.attempted = client.responses + warm.responses;
    let (tail, pct, block, blocks) = stats::tail(&client.latencies);
    out.values.insert("setup_s", times.median());
    out.values.insert("throughput_rps", rate);
    out.values
        .insert("latency_p50_ms", stats::median(&client.latencies));
    out.values.insert("latency_tail_ms", tail);
    out.values.insert("cpu_ms_per_req", cpu_per_req);
    out.values.insert("peak_rss_mb", rss);
    out.values.insert("exec_time_min", quality.0 as f64);
    out.values.insert("devices", quality.1 as f64);
    out.values.insert("paths", quality.2 as f64);
    println!(
        "mfbench: {} responses over {} windows ({} per pass), {wall:.2} s; tail = p{pct:.2} of {block} windows, median of {blocks} blocks; {spread}",
        client.responses,
        client.done,
        windows.len(),
    );
    out
}

/// A request that reached the solver in a replay: its request number, the
/// resolved assay and the result.
type Solved = (u64, mfhls_core::Assay, mfhls_core::SynthesisResult);

/// Windows of the stream the traced run replays (after the warm-up).
const TRACED_WINDOWS: usize = 40;

/// Replays `windows` through the service's public functions, one request
/// after another, in the order the service's stages call them:
/// `parse_incoming` → `resolve_assay` / `resolve_config` →
/// `AssayShape::of` / `DeltaCache::lookup_full` →
/// `Synthesizer::with_shared_cache(..).run` → `response_ok` +
/// `Json::write`. Caches start empty, as in a fresh service. Returns one
/// response chunk per window, in the service's response order, and the
/// requests that reached the solver (for the layer probes).
fn replay(
    windows: &[Vec<ServeLine>],
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> (Vec<Vec<u8>>, Vec<Solved>) {
    let config = ServiceConfig::default();
    let cache = Arc::new(SharedLayerCache::new(config.cache_entries));
    let delta = DeltaCache::new(config.cache_entries);
    let mut chunks = Vec::with_capacity(windows.len());
    let mut solved = Vec::new();
    let mut k = 0u64;
    for window in windows {
        let mut rejected = String::new();
        let mut answered = String::new();
        for line in window {
            k += 1;
            tracer.span("request", k, |t| {
                let parsed = t.span("svc.api.parse", k, |_| parse_incoming(&line.line));
                let req = match parsed {
                    Ok(Incoming::Synthesize(req)) => req,
                    Ok(_) => return,
                    Err(e) => {
                        counts.rejected += 1;
                        t.span("svc.api.respond", k, |_| {
                            let id = Json::parse(&line.line).ok().and_then(|v| {
                                v.get("id").and_then(Json::as_str).map(str::to_owned)
                            });
                            let before = rejected.len();
                            response_error(id.as_deref(), e.kind, &e.message).write(&mut rejected);
                            rejected.push('\n');
                            counts.respond_bytes += (rejected.len() - before) as u64;
                        });
                        return;
                    }
                };
                let t0 = Instant::now();
                let resolved = t.span("svc.api.resolve", k, |_| {
                    req.resolve_assay(config.max_ops)
                        .and_then(|a| req.resolve_config().map(|c| (a, c)))
                });
                let (assay, synth_config) = match resolved {
                    Ok(v) => v,
                    Err(e) => {
                        counts.rejected += 1;
                        counts.rejected_ms += t0.elapsed().as_secs_f64() * 1e3;
                        t.span("svc.api.respond", k, |_| {
                            let before = rejected.len();
                            response_error(Some(&req.id), e.kind, &e.message).write(&mut rejected);
                            rejected.push('\n');
                            counts.respond_bytes += (rejected.len() - before) as u64;
                        });
                        return;
                    }
                };
                counts.resolved_ops += assay.len() as u64;
                let shape = t.span("core.delta.shape", k, |_| {
                    AssayShape::of(&assay, &synth_config).ok()
                });
                let hit = shape.as_ref().and_then(|s| {
                    counts.delta_lookups += 1;
                    t.span("core.delta.lookup", k, |_| delta.lookup_full(s))
                });
                let delta_hit = hit.is_some();
                let outcome = match hit {
                    Some(r) => {
                        counts.delta_hits += 1;
                        Ok(r)
                    }
                    None => {
                        let outcome = t.span("core.synth", k, |_| {
                            let cpu0 = procstat::cpu_ms();
                            let outcome = Synthesizer::new(synth_config.clone())
                                .with_shared_cache(cache.clone())
                                .run(&assay);
                            counts.synth_cpu_ms += procstat::cpu_ms() - cpu0;
                            outcome
                        });
                        counts.absorb(&outcome);
                        if let (Ok(r), Some(s)) = (&outcome, &shape) {
                            t.span("core.delta.insert", k, |_| delta.insert(s, r));
                            solved.push((k, assay.clone(), r.clone()));
                        }
                        outcome
                    }
                };
                t.span("svc.api.respond", k, |_| {
                    let before = answered.len();
                    match &outcome {
                        Ok(r) => response_ok(
                            &req.id,
                            &assay,
                            r,
                            req.artifacts,
                            None,
                            delta_hit,
                            &synth_config.solver,
                        )
                        .write(&mut answered),
                        Err(e) => {
                            response_error(Some(&req.id), ErrorKind::SynthesisError, &e.to_string())
                                .write(&mut answered)
                        }
                    }
                    answered.push('\n');
                    counts.respond_bytes += (answered.len() - before) as u64;
                });
            });
        }
        rejected.push_str(&answered);
        chunks.push(rejected.into_bytes());
    }
    (chunks, solved)
}

/// The traced run: the warm-up plus the first [`TRACED_WINDOWS`] windows
/// of the stream, served once untraced by the service, then replayed
/// through the public functions untraced, traced and untraced again
/// (fresh caches each time), then the layer probes on every request that
/// reached the solver.
pub fn run_traced(args: &RunArgs, tracer: &mut Tracer) -> Outcome {
    let mut times = SetupTimes::default();
    let (inputs, _, _) = setup(&mut times, SETUP_BEFORE, args.workload, args.seed);
    let mut out = Outcome::default();
    if !times.identical() {
        out.broken
            .push("inputs differ between set-up repetitions".into());
    }
    let windows: Vec<Vec<ServeLine>> = inputs
        .warmup
        .iter()
        .chain(inputs.windows.iter().take(TRACED_WINDOWS))
        .cloned()
        .collect();
    let service = SynthesisService::new(ServiceConfig::default());
    let (served, serve_wall, summary) = serve_closed_loop(&service, &window_bytes(&windows), None);

    // Untraced replays before and after the traced one: the tracing
    // overhead compares the traced replay with their mean.
    let untraced = || {
        let t0 = Instant::now();
        let (chunks, _) = replay(&windows, &mut Tracer::new(false), &mut Counts::default());
        (chunks, t0.elapsed().as_secs_f64() * 1e3)
    };
    let (plain, before_ms) = untraced();
    let mut counts = Counts::default();
    let t0 = Instant::now();
    let (chunks, solved) = replay(&windows, tracer, &mut counts);
    let traced_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (_, after_ms) = untraced();
    let untraced_ms = (before_ms + after_ms) / 2.0;
    let totals = tracer.totals();

    // The service rejects what the replay rejects at admission, plus the
    // synthesis errors.
    if summary.rejected != counts.rejected + counts.synth_errors {
        eprintln!(
            "mfbench: the service rejected {} requests, the replay {} at admission and {} in synthesis",
            summary.rejected, counts.rejected, counts.synth_errors
        );
        out.failed += 1;
    }

    let synth_config = mfhls_core::SynthConfig::default();
    for (k, assay, result) in &solved {
        layers::probe(tracer, *k, assay, &synth_config, Some(result), &mut counts);
    }

    // The replay must answer exactly as the service did.
    for (k, (a, b)) in served.first_pass.iter().zip(&chunks).enumerate() {
        if a != b || plain.get(k) != Some(b) {
            eprintln!("mfbench: window {k}: replayed responses differ from the service's");
            out.failed += 1;
        }
    }
    let (failed, _) = check_windows(
        args.workload,
        args.seed,
        &inputs,
        &windows,
        &served.first_pass,
    );
    out.failed += failed.iter().sum::<u64>();
    out.attempted = windows.iter().map(Vec::len).sum::<usize>() as u64;

    let stage_ms: f64 = [
        "svc.api.parse",
        "svc.api.resolve",
        "core.delta.shape",
        "core.delta.lookup",
        "core.delta.insert",
        "core.synth",
        "svc.api.respond",
    ]
    .iter()
    .map(|n| totals.get(n).map_or(0.0, |t| t.busy_ms))
    .sum();
    let mut values = layers::per_layer_values(&tracer.totals(), &counts);
    // The probes run after the replay, so `stage_ms` excludes them.
    values.insert("svc.service.windows", summary.batches as f64);
    values.insert("svc.service.overhead_ms", serve_wall * 1e3 - stage_ms);
    values.insert("trace.overhead", traced_ms / untraced_ms.max(1e-9));
    out.values = values;
    out.values.insert("failed_share", out.failed_share());
    println!(
        "mfbench: traced {} requests over {} windows: serve {:.1} ms, replay {untraced_ms:.1} ms untraced vs {traced_ms:.1} ms traced",
        out.attempted,
        windows.len(),
        serve_wall * 1e3
    );
    out
}
