//! The mfhls benchmark: four workloads from one-shot synthesis to cold
//! serving, each run in its own process.
//!
//! ```text
//! cargo run --release --offline --manifest-path mfbench/Cargo.toml -- \
//!     --workload synth-oneshot --seed 1 --seconds 20 --trace 0
//! ```
//!
//! An untraced run (`--trace 0`) measures the end-to-end metrics; a
//! traced run (`--trace 1`) gives the per-layer metrics from spans the
//! benchmark records around its calls into the layers' public functions.
//! Both check every output they measure; the last line of standard
//! output is the result object. See `README.md` next to this crate.

pub mod check;
pub mod inputs;
pub mod layers;
pub mod metrics;
pub mod procstat;
pub mod serve;
pub mod stats;
pub mod synth;
pub mod trace;

use inputs::Workload;

/// Set-up repetitions before the timed phase.
pub const SETUP_BEFORE: usize = 3;
/// Set-up repetitions after the timed phase. The speed of a shared
/// machine drifts over seconds; repetitions on both sides of the timed
/// phase let `setup_s` see the same spell of machine time the other
/// figures see, rather than the one second before it.
pub const SETUP_AFTER: usize = 4;

/// The timed set-up repetitions of one run; `setup_s` is their median.
#[derive(Debug, Clone)]
pub struct SetupTimes {
    times: Vec<f64>,
    fingerprint: Option<Vec<u8>>,
    identical: bool,
}

impl Default for SetupTimes {
    fn default() -> Self {
        SetupTimes {
            times: Vec::new(),
            fingerprint: None,
            identical: true,
        }
    }
}

impl SetupTimes {
    /// Runs `setup` `n` times (at least once), timing each repetition,
    /// and returns the last repetition's result. `fingerprint` is taken
    /// outside the timing and must be the same on every repetition.
    pub fn repeat<T>(
        &mut self,
        n: usize,
        mut setup: impl FnMut() -> T,
        fingerprint: impl Fn(&T) -> Vec<u8>,
    ) -> T {
        let mut last = None;
        for _ in 0..n.max(1) {
            let t0 = std::time::Instant::now();
            let value = setup();
            self.times.push(t0.elapsed().as_secs_f64());
            let fp = fingerprint(&value);
            self.identical &= self.fingerprint.get_or_insert_with(|| fp.clone()) == &fp;
            last = Some(value);
        }
        last.expect("at least one repetition ran")
    }

    /// Median repetition time, seconds.
    pub fn median(&self) -> f64 {
        stats::median(&self.times)
    }

    /// Whether every repetition produced the same fingerprint.
    pub fn identical(&self) -> bool {
        self.identical
    }
}

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase of an untraced run, seconds.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

/// Parses `--workload NAME --seed N --seconds N --trace 0|1`.
///
/// # Errors
///
/// A message naming the unknown flag, missing value or bad value.
pub fn parse_args(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 20;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag '{flag}' wants a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("flag '{flag}' wants a whole number, got '{value}'"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload '{value}' ({})", names.join("|"))
                })?);
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("flag '--trace' wants 0 or 1, got '{value}'")),
                }
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("missing --workload")?,
        seed,
        seconds,
        trace,
    })
}
