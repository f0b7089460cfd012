//! The output checker behind `failed` and `failed_share`.
//!
//! Expected typed rejections are correct outcomes, not failures:
//! malformed lines, oversized assays, and `DeviceBudgetExhausted` on
//! assays of the resource-starved profile, the one profile on which
//! `gen::check` accepts it.

use crate::inputs::{Expect, ServeLine, SynthRequest};
use mfhls_core::validate::validate_schedule;
use mfhls_core::{CoreError, SynthConfig, SynthesisResult, Synthesizer};
use mfhls_svc::api::{response_error, response_ok, Artifacts, ErrorKind};
use mfhls_svc::Json;

/// Checks one synthesis outcome: the schedule passes `validate_schedule`,
/// a Table 2 case reproduces its pinned execution time, and an error is
/// only accepted where it is the expected typed rejection.
pub fn check_synth(
    req: &SynthRequest,
    outcome: &Result<SynthesisResult, CoreError>,
) -> Result<(), String> {
    match outcome {
        Ok(result) => {
            validate_schedule(&req.assay, &result.schedule)
                .map_err(|e| format!("{}: invalid schedule: {e}", req.label))?;
            if let Some(pinned) = req.pinned_exec {
                let exec = result.schedule.exec_time(&req.assay).to_string();
                if exec != pinned {
                    return Err(format!(
                        "{}: exec time {exec}, Table 2 pins {pinned}",
                        req.label
                    ));
                }
            }
            Ok(())
        }
        Err(CoreError::DeviceBudgetExhausted { .. }) if req.may_exhaust_budget => Ok(()),
        Err(e) => Err(format!("{}: synthesis failed: {e}", req.label)),
    }
}

/// Whether two outcomes of the same request agree (same schedule, or the
/// same error).
pub fn same_outcome(
    a: &Result<SynthesisResult, CoreError>,
    b: &Result<SynthesisResult, CoreError>,
) -> bool {
    match (a, b) {
        (Ok(x), Ok(y)) => x.schedule == y.schedule,
        (Err(x), Err(y)) => x == y,
        _ => false,
    }
}

/// The artifacts every generated serve request asks for.
const SERVE_ARTIFACTS: Artifacts = Artifacts {
    stats: true,
    schedule: true,
    gantt: false,
    trace: false,
    diagnostics: false,
};

/// A cache-off `Synthesizer::run` of `assay` under the service's default
/// configuration: the reference an `ok` response must reproduce.
pub fn reference_run(assay: &mfhls_core::Assay) -> Result<SynthesisResult, CoreError> {
    let config = SynthConfig::builder()
        .layer_cache(false)
        .build()
        .expect("the default configuration is valid");
    Synthesizer::new(config).run(assay)
}

/// The exact response line for `id` given the reference outcome: an `ok`
/// response whose `schedule` member is `api::schedule_json` of the
/// reference run, or the `synthesis_error` the service reports.
pub fn expected_line(
    id: &str,
    assay: &mfhls_core::Assay,
    reference: &Result<SynthesisResult, CoreError>,
) -> String {
    let mut out = String::new();
    match reference {
        Ok(result) => response_ok(
            id,
            assay,
            result,
            SERVE_ARTIFACTS,
            None,
            false,
            &SynthConfig::default().solver,
        ),
        Err(e) => response_error(Some(id), ErrorKind::SynthesisError, &e.to_string()),
    }
    .write(&mut out);
    out
}

/// The order a window's responses come back in: admission rejections
/// are answered at once, ahead of the window's solved batch.
pub fn response_order(window: &[ServeLine]) -> Vec<&ServeLine> {
    let (errors, oks): (Vec<&ServeLine>, Vec<&ServeLine>) = window
        .iter()
        .partition(|l| matches!(l.expect, Expect::Error(_)));
    errors.into_iter().chain(oks).collect()
}

/// Checks one response line against its request: the id is echoed, the
/// class is the one the request should get, and, when `expected` is
/// given (a synthesis request with a reference run), the bytes equal the
/// reference response. A synthesis request must get `ok`, or the typed
/// budget-exhaustion error where its [`Expect::Synth`] allows it.
pub fn check_serve_line(
    line: &ServeLine,
    response: &str,
    expected: Option<&str>,
) -> Result<(), String> {
    let label = line.id.as_deref().unwrap_or("<no id>");
    let v = Json::parse(response).map_err(|e| format!("{label}: response is not JSON: {e}"))?;
    let id = v.get("id").and_then(Json::as_str);
    if id != line.id.as_deref() {
        return Err(format!("{label}: response carries id {id:?}"));
    }
    let status = v.get("status").and_then(Json::as_str).unwrap_or("");
    match line.expect {
        Expect::Error(kind) => {
            let got = v
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str)
                .unwrap_or("");
            if status != "error" || got != kind {
                return Err(format!("{label}: wanted error {kind}, got {status} {got}"));
            }
            if kind == "parse_error" {
                let message = v
                    .get("error")
                    .and_then(|e| e.get("message"))
                    .and_then(Json::as_str)
                    .unwrap_or("");
                if !message.contains("exceeding the limit") {
                    return Err(format!("{label}: not rejected as oversized: {message}"));
                }
            }
            Ok(())
        }
        Expect::Synth {
            may_exhaust_budget, ..
        } => {
            if expected.is_some_and(|want| want != response) {
                return Err(format!(
                    "{label}: response differs from the cache-off reference run"
                ));
            }
            let budget = v
                .get("error")
                .and_then(|e| e.get("message"))
                .and_then(Json::as_str)
                .is_some_and(|m| m.contains("cannot be bound within the budget"));
            if status == "ok" || (budget && may_exhaust_budget) {
                Ok(())
            } else {
                Err(format!("{label}: wanted ok, got {response}"))
            }
        }
    }
}

/// Table 2 quality of one response: fixed execution time (minutes),
/// devices and paths, read from its `stats` member.
pub fn response_quality(response: &str) -> Option<(u64, u64, u64)> {
    let v = Json::parse(response).ok()?;
    let stats = v.get("stats")?;
    Some((
        stats.get("exec_time")?.get("fixed")?.as_u64()?,
        stats.get("devices")?.as_u64()?,
        stats.get("paths")?.as_u64()?,
    ))
}
