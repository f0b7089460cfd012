//! Per-layer probes and the per-layer metric table of a traced run.
//!
//! `Synthesizer::run` calls its layers internally, so a traced run
//! times them by probing: outside each request span it calls the same
//! public functions on the same input — `layer_assay`,
//! `TransportTimes::initial`/`refined`, `LayerKey::of` /
//! `CanonicalLayerKey::of` and one `LayerSolver::solve` per layer and
//! backend on a layer problem with a fresh device pool (the way
//! `gen::check` builds its layer problems), and `validate_schedule`.

use crate::trace::{SpanTotals, Tracer};
use mfhls_core::heuristic::HeuristicLayerSolver;
use mfhls_core::ilp_model::IlpLayerSolver;
use mfhls_core::validate::validate_schedule;
use mfhls_core::{
    layer_assay, Assay, CanonicalLayerKey, CoreError, LayerKey, LayerProblem, LayerSolver,
    SdcLayerSolver, SolverKind, SolverStats, SynthConfig, SynthesisResult, TransportTimes,
    PORTFOLIO_ILP_OP_LIMIT, PORTFOLIO_ILP_PIVOT_WORK,
};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;

/// Work counts read from the public result structs of a traced run.
#[derive(Debug, Default)]
pub struct Counts {
    /// Re-synthesis passes (`IterationStats` entries).
    pub passes: u64,
    /// `Synthesizer::run` calls that returned an error.
    pub synth_errors: u64,
    /// Solver work summed over every pass.
    pub solver: SolverStats,
    /// Layer-cache exact hits.
    pub exact_hits: u64,
    /// Layer-cache canonical hits.
    pub canonical_hits: u64,
    /// Layer-cache misses.
    pub misses: u64,
    /// Whole-request delta-cache hits and lookups.
    pub delta_hits: u64,
    /// Delta-cache lookups.
    pub delta_lookups: u64,
    /// Layers formed by the probes' `layer_assay` calls.
    pub layers: u64,
    /// Ops handed to heuristic probe solves.
    pub heuristic_ops: u64,
    /// CPU time spent inside `Synthesizer::run` calls, ms.
    pub synth_cpu_ms: f64,
    /// Ops of assays resolved at admission.
    pub resolved_ops: u64,
    /// Requests rejected at admission (malformed or oversized).
    pub rejected: u64,
    /// Time of the `resolve` calls that rejected, ms.
    pub rejected_ms: f64,
    /// Response bytes written.
    pub respond_bytes: u64,
}

impl Counts {
    /// Adds a synthesis outcome's `IterationStats`: passes, solver work
    /// and the per-run layer-cache split.
    pub fn absorb(&mut self, outcome: &Result<SynthesisResult, CoreError>) {
        let Ok(result) = outcome else {
            self.synth_errors += 1;
            return;
        };
        for it in &result.iterations {
            self.passes += 1;
            self.solver.merge(&it.solver);
            self.canonical_hits += it.cache_canonical_hits;
            self.exact_hits += it
                .cache_hits
                .saturating_sub(it.cache_canonical_hits + it.cache_store_hits);
            self.misses += it.cache_misses;
        }
    }
}

/// A leaf backend a layer probe runs.
enum Leg {
    Heuristic(usize),
    Sdc(usize),
    Ilp(usize),
}

fn legs(solver: &SolverKind) -> Vec<Leg> {
    match solver {
        SolverKind::Heuristic { improvement_passes } => vec![Leg::Heuristic(*improvement_passes)],
        SolverKind::Sdc { improvement_passes } => vec![Leg::Sdc(*improvement_passes)],
        SolverKind::Ilp { max_nodes } => vec![Leg::Ilp(*max_nodes)],
        SolverKind::Hybrid {
            max_nodes,
            improvement_passes,
            ..
        } => vec![Leg::Heuristic(*improvement_passes), Leg::Ilp(*max_nodes)],
        SolverKind::Portfolio { backends } => backends.iter().flat_map(legs).collect(),
        _ => Vec::new(),
    }
}

/// Probes the layers of one request (see the module docs). `result` is
/// the request's own synthesis outcome: its schedule feeds
/// `TransportTimes::refined` and `validate_schedule`.
pub fn probe(
    t: &mut Tracer,
    request: u64,
    assay: &Assay,
    config: &SynthConfig,
    result: Option<&SynthesisResult>,
    counts: &mut Counts,
) {
    t.span("probe", request, |t| {
        let layering = t.span("core.layering", request, |_| {
            layer_assay(black_box(assay), config.indeterminate_threshold)
        });
        let Ok(layering) = layering else {
            return;
        };
        counts.layers += layering.num_layers() as u64;
        let transport = t.span("core.transport", request, |_| {
            TransportTimes::initial(black_box(assay), &config.transport)
        });
        for (k, ops) in layering.layers().iter().enumerate() {
            let problem = LayerProblem {
                assay,
                ops: ops.clone(),
                devices: Vec::new(),
                bindable: Vec::new(),
                max_devices: config.max_devices,
                transport: &transport,
                weights: config.weights,
                costs: &config.costs,
                existing_paths: BTreeSet::new(),
                cross_inputs: Vec::new(),
                component_oriented: config.component_oriented,
            };
            black_box(t.span("core.cache.key", request, |_| {
                (
                    LayerKey::of(&problem, k),
                    CanonicalLayerKey::of(&problem, "h"),
                )
            }));
            // Exact legs are cut off at the best objective found so far
            // and skip layers past the portfolio's op limit, as the
            // portfolio racer runs them.
            let mut best: Option<u64> = None;
            for leg in legs(&config.solver) {
                let solved = match leg {
                    Leg::Heuristic(passes) => {
                        counts.heuristic_ops += problem.ops.len() as u64;
                        t.span("core.heuristic", request, |_| {
                            HeuristicLayerSolver {
                                improvement_passes: passes,
                            }
                            .solve(black_box(&problem))
                        })
                    }
                    Leg::Sdc(passes) => t.span("core.sdc", request, |_| {
                        SdcLayerSolver {
                            improvement_passes: passes,
                        }
                        .solve(black_box(&problem))
                    }),
                    Leg::Ilp(max_nodes) => {
                        if problem.ops.len() > PORTFOLIO_ILP_OP_LIMIT {
                            continue;
                        }
                        t.span("core.ilp", request, |_| {
                            IlpLayerSolver {
                                max_nodes,
                                cutoff: best,
                                pivot_work: Some(PORTFOLIO_ILP_PIVOT_WORK),
                                ..IlpLayerSolver::default()
                            }
                            .solve(black_box(&problem))
                        })
                    }
                };
                if let Ok(s) = black_box(solved) {
                    best = Some(best.map_or(s.objective, |b| b.min(s.objective)));
                }
            }
        }
        if let Some(result) = result {
            let mut device_of = vec![0usize; assay.len()];
            for slot in result.schedule.layers.iter().flat_map(|l| &l.ops) {
                device_of[slot.op.index()] = slot.device;
            }
            black_box(t.span("core.transport", request, |_| {
                TransportTimes::refined(assay, &config.transport, &device_of)
            }));
            let _ = black_box(t.span("core.validate", request, |_| {
                validate_schedule(assay, &result.schedule)
            }));
        }
    });
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The per-layer metric values of a traced run. Every `PER_LAYER` name
/// is filled; a layer the workload never calls reads 0.
pub fn per_layer_values(
    totals: &BTreeMap<&'static str, SpanTotals>,
    counts: &Counts,
) -> crate::metrics::Values {
    let t = |name: &str| totals.get(name).copied().unwrap_or_default();
    let s = &counts.solver;
    let mut v = crate::metrics::Values::new();
    v.insert("svc.api.parse.calls", t("svc.api.parse").calls as f64);
    v.insert("svc.api.parse.busy_ms", t("svc.api.parse").busy_ms);
    v.insert("svc.api.resolve.busy_ms", t("svc.api.resolve").busy_ms);
    v.insert("svc.api.resolve.ops", counts.resolved_ops as f64);
    v.insert("svc.api.resolve.rejected_ms", counts.rejected_ms);
    v.insert("svc.api.rejected", counts.rejected as f64);
    v.insert("core.layering.calls", t("core.layering").calls as f64);
    v.insert("core.layering.busy_ms", t("core.layering").busy_ms);
    v.insert("core.layering.layers", counts.layers as f64);
    let synth = t("core.synth");
    v.insert("core.synth.calls", synth.calls as f64);
    v.insert("core.synth.busy_ms", synth.busy_ms);
    v.insert("core.synth.passes", counts.passes as f64);
    v.insert("core.synth.errors", counts.synth_errors as f64);
    v.insert(
        "core.synth.cpu_per_wall",
        if synth.busy_ms > 0.0 {
            counts.synth_cpu_ms / synth.busy_ms
        } else {
            0.0
        },
    );
    v.insert("core.heuristic.solves", t("core.heuristic").calls as f64);
    v.insert("core.heuristic.busy_ms", t("core.heuristic").busy_ms);
    v.insert("core.heuristic.ops", counts.heuristic_ops as f64);
    v.insert("core.sdc.solves", t("core.sdc").calls as f64);
    v.insert("core.sdc.busy_ms", t("core.sdc").busy_ms);
    v.insert("core.ilp.solves", t("core.ilp").calls as f64);
    v.insert("core.ilp.busy_ms", t("core.ilp").busy_ms);
    v.insert("ilp.lp_pivots", s.pivots as f64);
    v.insert("ilp.nodes", s.nodes as f64);
    v.insert("ilp.optimal_share", share(s.proven_optimal, s.ilp_solves));
    v.insert("ilp.warm_start_rate", s.warm_start_rate());
    v.insert("core.portfolio.races", s.portfolio_races as f64);
    v.insert("core.portfolio.wins_heuristic", s.wins_heuristic as f64);
    v.insert("core.portfolio.wins_sdc", s.wins_sdc as f64);
    v.insert("core.portfolio.wins_ilp", s.wins_ilp as f64);
    v.insert("core.transport.calls", t("core.transport").calls as f64);
    v.insert("core.transport.busy_ms", t("core.transport").busy_ms);
    v.insert("core.validate.calls", t("core.validate").calls as f64);
    v.insert("core.validate.busy_ms", t("core.validate").busy_ms);
    v.insert("core.cache.key_busy_ms", t("core.cache.key").busy_ms);
    v.insert("core.cache.exact_hits", counts.exact_hits as f64);
    v.insert("core.cache.canonical_hits", counts.canonical_hits as f64);
    v.insert("core.cache.misses", counts.misses as f64);
    let hits = counts.exact_hits + counts.canonical_hits;
    v.insert("core.cache.hit_share", share(hits, hits + counts.misses));
    v.insert("core.delta.shape_busy_ms", t("core.delta.shape").busy_ms);
    v.insert("core.delta.lookup_busy_ms", t("core.delta.lookup").busy_ms);
    v.insert("core.delta.hits", counts.delta_hits as f64);
    v.insert(
        "core.delta.hit_share",
        share(counts.delta_hits, counts.delta_lookups),
    );
    v.insert("svc.api.respond.busy_ms", t("svc.api.respond").busy_ms);
    v.insert("svc.api.respond.bytes", counts.respond_bytes as f64);
    v
}

/// The traced per-layer table: every span name with its calls, busy and
/// self time, and busy time as a share of the summed request time.
pub fn table(totals: &BTreeMap<&'static str, SpanTotals>) -> String {
    let request_ms = totals.get("request").map_or(0.0, |t| t.busy_ms);
    let mut out = format!(
        "{:<22} {:>8} {:>12} {:>12} {:>9}\n",
        "span", "calls", "busy_ms", "self_ms", "of_req"
    );
    for (name, t) in totals {
        out.push_str(&format!(
            "{name:<22} {:>8} {:>12.3} {:>12.3} {:>8.1}%\n",
            t.calls,
            t.busy_ms,
            t.self_ms,
            if request_ms > 0.0 {
                100.0 * t.busy_ms / request_ms
            } else {
                0.0
            }
        ));
    }
    out
}
