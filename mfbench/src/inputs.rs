//! Seeded input generation for the four workloads.
//!
//! Every generator is a pure function of the workload seed: no clocks, no
//! global RNG, and the same seed gives the same bytes
//! ([`SynthInputs::fingerprint`], [`ServeInputs::fingerprint`]). The
//! program under test only ever sees the generated assays and request
//! lines.
//!
//! Each workload draws a *fixed composition* (so many assays per profile
//! and size band, so many requests per class) and lets the seed pick the
//! instances. Runs on different seeds then stress the same layers in the
//! same proportions, which is what keeps the figures of two seeds
//! comparable.

use mfhls_bench::gen::{self, Profile};
use mfhls_core::{export, layer_assay, Assay, OpId, SynthConfig};
use mfhls_graph::rng::SplitMix64;
use mfhls_svc::Json;

/// Requests per admission window on the serve workloads.
pub const WINDOW: usize = 16;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One fresh heuristic `Synthesizer::run` per request.
    SynthOneshot,
    /// The same path under the `portfolio:heuristic+sdc+ilp` solver.
    SynthExact,
    /// An NDJSON stream of duplicates and near-duplicates of a small pool.
    ServeReuse,
    /// An NDJSON stream of distinct assays, far larger than the caches.
    ServeCold,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::SynthOneshot,
        Workload::SynthExact,
        Workload::ServeReuse,
        Workload::ServeCold,
    ];

    /// The `--workload` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SynthOneshot => "synth-oneshot",
            Workload::SynthExact => "synth-exact",
            Workload::ServeReuse => "serve-reuse",
            Workload::ServeCold => "serve-cold",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// The solver spec of `synth-exact`.
pub const EXACT_SOLVER: &str = "portfolio:heuristic+sdc+ilp";

/// One synthesis request of a synth workload.
#[derive(Debug, Clone)]
pub struct SynthRequest {
    /// Stable label (`gen-<profile>-<seed>`, or `case<N>`).
    pub label: String,
    /// The assay handed to `Synthesizer::run`.
    pub assay: Assay,
    /// The configuration of the run.
    pub config: SynthConfig,
    /// The execution time the paper's Table 2 pins for this assay under
    /// the default heuristic (`110m`, `118m+I1`, `274m+I1+I2`).
    pub pinned_exec: Option<&'static str>,
    /// Whether a typed `DeviceBudgetExhausted` is a correct outcome: true
    /// only for assays of the resource-starved profile, whose 4-device
    /// budget is tight by design, as `gen::check` accepts it.
    pub may_exhaust_budget: bool,
}

/// The distinct requests of a synth workload and the seeded order one
/// cycle sends them in.
#[derive(Debug, Clone)]
pub struct SynthInputs {
    /// Distinct requests.
    pub requests: Vec<SynthRequest>,
    /// One cycle: every request index exactly once, seeded order.
    pub order: Vec<usize>,
}

impl SynthInputs {
    /// Bytes that identify the inputs: every assay's netlist export, its
    /// configuration and the cycle order.
    pub fn fingerprint(&self) -> Vec<u8> {
        let mut out = String::new();
        for r in &self.requests {
            out.push_str(&r.label);
            out.push_str(&export::netlist_json(&r.assay));
            out.push_str(&format!("{:?}\n", r.config));
        }
        out.push_str(&format!("{:?}", self.order));
        out.into_bytes()
    }
}

/// Op-count range of each generation profile (as documented on
/// [`Profile`]); the size bands below split it evenly.
fn op_range(profile: Profile) -> Option<(usize, usize)> {
    match profile {
        Profile::Tiny => Some((0, 4)),
        Profile::Small => Some((5, 12)),
        Profile::Medium => Some((13, 40)),
        Profile::Large => Some((41, 120)),
        Profile::DeepChain | Profile::WideFanout => Some((10, 60)),
        Profile::IndeterminateHeavy => Some((6, 30)),
        Profile::ResourceStarved => Some((6, 24)),
        Profile::Adversarial => Some((3, 16)),
        Profile::Mixed => None,
    }
}

/// Generated structures the panels pass over: assays the repository's
/// own `gen::check` oracle rejects at the commit the benchmark was
/// defined on, so that every request of a workload is one the program
/// should get right. Each is a program defect, reproduced by
/// `mfhls gen --profile <P> --seed <S> --check`; taking one off this list
/// once it is fixed changes the panel, and with it the benchmark.
///
/// * `gen-large-0x831981e8091f2716`: the default heuristic exhausts the
///   default 25-device budget, in the generator's op order and in 25 of
///   40 seeded presentations.
pub const SKIPPED: &[&str] = &["gen-large-0x831981e8091f2716"];

/// Draws `count` assays of `profile`, one per size band: band `j` of
/// `count` covers the `j`-th slice of the profile's op-count range, and
/// generator seeds are drawn from `rng` until an assay falls inside it
/// and is not [`SKIPPED`]. Stratifying by size spreads a panel evenly
/// over the profile's range.
fn stratified_draw(profile: Profile, count: usize, rng: &mut SplitMix64) -> Vec<Assay> {
    (0..count)
        .map(|j| {
            let Some((lo, hi)) = op_range(profile) else {
                return gen::generate(profile, rng.next_u64());
            };
            let span = hi - lo + 1;
            let band_lo = lo + span * j / count;
            let band_hi = (lo + span * (j + 1) / count).saturating_sub(1).max(band_lo);
            let mut assay = gen::generate(profile, rng.next_u64());
            for _ in 0..512 {
                if (band_lo..=band_hi).contains(&assay.len()) && !SKIPPED.contains(&assay.name()) {
                    break;
                }
                assay = gen::generate(profile, rng.next_u64());
            }
            assay
        })
        .collect()
}

fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_index(0, i + 1);
        items.swap(i, j);
    }
}

fn seeded_order(n: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    shuffle(&mut order, rng);
    order
}

/// Table 2 execution times of the three cases under the default
/// heuristic, as `tests/golden.rs` pins them.
pub const TABLE2_EXEC: [(usize, &str); 3] = [(1, "110m"), (2, "118m+I1"), (3, "274m+I1+I2")];

/// The Table 2 cases among `cases`; `pinned` attaches the pinned
/// execution times (true under the default heuristic).
fn table2_requests(config: &SynthConfig, cases: &[usize], pinned: bool) -> Vec<SynthRequest> {
    mfhls_assays::benchmarks()
        .into_iter()
        .filter(|(case, _, _)| cases.contains(case))
        .map(|(case, _, assay)| SynthRequest {
            label: format!("case{case}"),
            assay,
            config: config.clone(),
            pinned_exec: TABLE2_EXEC
                .iter()
                .find(|(c, _)| pinned && *c == case)
                .map(|(_, exec)| *exec),
            may_exhaust_budget: false,
        })
        .collect()
}

/// Assays per profile and size band in `synth-oneshot`.
pub const ONESHOT_PER_PROFILE: usize = 10;

/// Seed of the fixed `synth-oneshot` panel.
const ONESHOT_PANEL_SEED: u64 = 0x0_5E07;

/// A seeded presentation of `base`: its ops under a seeded ID
/// permutation (`gen::permute`), and on every other draw renamed
/// (`gen::rename`). The structure is unchanged; the op order the solver
/// sees, and with it the heuristic's tie-breaks, is the seed's.
fn present(base: &Assay, rng: &mut SplitMix64) -> Assay {
    let (permuted, _) = gen::permute(base, rng.next_u64());
    if rng.gen_bool(0.5) {
        gen::rename(&permuted)
    } else {
        permuted
    }
}

/// `synth-oneshot`: the paper's use case, one fresh synthesis per request.
///
/// Composition: a fixed panel of ten generated assays from every
/// profile, one per size band, each under the configuration `gen::check`
/// uses for its profile (the resource-starved profile runs under a
/// 4-device budget, so typed budget exhaustion is exercised as a correct
/// outcome), in seeded presentations ([`present`]), plus the three
/// Table 2 cases verbatim under the default configuration. Every profile
/// is in the panel because the heuristic, the re-synthesis loop and
/// speculation behave differently on deep, wide, indeterminate-heavy and
/// large assays; the Table 2 cases pin the paper's numbers.
///
/// The panel is fixed rather than drawn per seed: heuristic cost varies
/// by an order of magnitude between assays of one profile and size band,
/// and per-seed draws of this size moved throughput by 21% and the
/// median latency by 37% (quartile spread over five seeds) — far more
/// than any change the benchmark should detect.
pub fn synth_oneshot(seed: u64) -> SynthInputs {
    let mut panel = SplitMix64::seed_from_u64(ONESHOT_PANEL_SEED);
    let mut rng = SplitMix64::seed_from_u64(seed).split(0x0_5E07);
    let mut requests = Vec::new();
    for profile in Profile::ALL {
        let config = gen::check_config(profile);
        for base in stratified_draw(profile, ONESHOT_PER_PROFILE, &mut panel) {
            requests.push(SynthRequest {
                label: format!("{}-p", base.name()),
                assay: present(&base, &mut rng),
                config: config.clone(),
                pinned_exec: None,
                may_exhaust_budget: profile == Profile::ResourceStarved,
            });
        }
    }
    requests.extend(table2_requests(&SynthConfig::default(), &[1, 2, 3], true));
    let order = seeded_order(requests.len(), &mut rng);
    SynthInputs { requests, order }
}

/// The fixed panel of `synth-exact`: `(profile, generator seed)` pairs.
///
/// The exact portfolio costs 10 ms to 6 s per generated assay, so a
/// seeded draw of a few dozen assays would swing a run's figures by tens
/// of percent from seed to seed. The panel instead fixes the structures:
/// small-to-medium assays (tiny through medium, adversarial,
/// indeterminate-heavy, resource-starved) whose portfolio run takes
/// 5 ms–0.8 s on a 2-core x86-64 machine, together about 7 s. The seed
/// draws each structure's op names (`gen::rename` on every other draw)
/// and the cycle order, but keeps the op IDs: the exact legs' work swings
/// up to 2.4× with the op order on some panel assays (medium seed 2:
/// 704–2835 simplex pivots over six permutations), which would swamp any
/// change the benchmark should detect.
pub const EXACT_PANEL: &[(Profile, u64)] = &[
    (Profile::Tiny, 2),
    (Profile::Tiny, 6),
    (Profile::Small, 0),
    (Profile::Small, 1),
    (Profile::Small, 2),
    (Profile::Small, 5),
    (Profile::Small, 7),
    (Profile::Medium, 0),
    (Profile::Medium, 2),
    (Profile::Medium, 6),
    (Profile::Medium, 7),
    (Profile::Adversarial, 0),
    (Profile::Adversarial, 1),
    (Profile::Adversarial, 2),
    (Profile::Adversarial, 3),
    (Profile::Adversarial, 4),
    (Profile::IndeterminateHeavy, 3),
    (Profile::IndeterminateHeavy, 4),
    (Profile::IndeterminateHeavy, 5),
    (Profile::IndeterminateHeavy, 7),
    (Profile::ResourceStarved, 0),
    (Profile::ResourceStarved, 5),
    (Profile::ResourceStarved, 9),
];

/// The `synth-exact` configuration: the default one with the portfolio
/// solver, or the profile's tight budget for resource-starved assays.
pub fn exact_config(profile: Option<Profile>) -> SynthConfig {
    let mut config = match profile {
        Some(p) => gen::check_config(p),
        None => SynthConfig::default(),
    };
    config.solver = mfhls_svc::parse_spec(EXACT_SOLVER).expect("the exact solver spec parses");
    config
}

/// `synth-exact`: the same one-shot path under
/// `portfolio:heuristic+sdc+ilp`, the only workload where `mfhls-ilp`
/// (simplex, branch and bound), the SDC leg and portfolio racing do most
/// of the work. Composition: the [`EXACT_PANEL`] under seeded op names
/// and order, plus Table 2 case 1 (16 ops, the ILP's memory peak).
pub fn synth_exact(seed: u64) -> SynthInputs {
    let mut rng = SplitMix64::seed_from_u64(seed).split(0xE_7AC7);
    let mut requests = Vec::new();
    for &(profile, gen_seed) in EXACT_PANEL {
        let base = gen::generate(profile, gen_seed);
        requests.push(SynthRequest {
            label: base.name().to_owned(),
            assay: if rng.gen_bool(0.5) {
                gen::rename(&base)
            } else {
                base
            },
            config: exact_config(Some(profile)),
            pinned_exec: None,
            may_exhaust_budget: profile == Profile::ResourceStarved,
        });
    }
    requests.extend(table2_requests(&exact_config(None), &[1], false));
    let order = seeded_order(requests.len(), &mut rng);
    SynthInputs { requests, order }
}

/// What a serve request line must get back.
#[derive(Debug, Clone)]
pub enum Expect {
    /// The response a cache-off `Synthesizer::run` of `assay` under the
    /// default configuration gives: `ok`, or, where `may_exhaust_budget`
    /// allows it, the typed `DeviceBudgetExhausted` synthesis error.
    Synth {
        /// Index into [`ServeInputs::assays`].
        assay: usize,
        /// Whether the assay is of the resource-starved profile, the one
        /// profile on which `gen::check` accepts budget exhaustion.
        may_exhaust_budget: bool,
    },
    /// An error response of this `error.kind`.
    Error(&'static str),
}

/// One request line of a serve stream.
#[derive(Debug, Clone)]
pub struct ServeLine {
    /// The request id (`None` for lines too broken to carry one).
    pub id: Option<String>,
    /// The NDJSON line, without its newline.
    pub line: String,
    /// The class of response the line must draw.
    pub expect: Expect,
}

/// A serve workload's inputs.
#[derive(Debug, Clone)]
pub struct ServeInputs {
    /// The distinct assays `ok` requests carry (references for the
    /// checker).
    pub assays: Vec<Assay>,
    /// Windows served before timing starts (cache fill).
    pub warmup: Vec<Vec<ServeLine>>,
    /// One cycle of the timed stream.
    pub windows: Vec<Vec<ServeLine>>,
}

impl ServeInputs {
    /// The NDJSON bytes of a window: its lines plus the closing blank line.
    pub fn window_bytes(window: &[ServeLine]) -> Vec<u8> {
        let mut out = Vec::new();
        for l in window {
            out.extend_from_slice(l.line.as_bytes());
            out.push(b'\n');
        }
        out.push(b'\n');
        out
    }

    /// Every byte the stream sends: warm-up windows then one cycle.
    pub fn fingerprint(&self) -> Vec<u8> {
        self.warmup
            .iter()
            .chain(&self.windows)
            .flat_map(|w| ServeInputs::window_bytes(w))
            .collect()
    }

    /// Requests per cycle of the timed stream.
    pub fn cycle_len(&self) -> usize {
        self.windows.iter().map(Vec::len).sum()
    }
}

/// A `synthesize` line carrying `assay` as an inline `mfhls-netlist/v1`
/// object, asking for the stats and the schedule (so the checker can
/// compare the schedule).
fn netlist_request(id: &str, assay: &Assay) -> String {
    let netlist = Json::parse(&export::netlist_json(assay)).expect("netlist exports are JSON");
    let v = Json::Object(vec![
        (
            "version".to_owned(),
            Json::Str(mfhls_svc::VERSION.to_owned()),
        ),
        ("type".to_owned(), Json::Str("synthesize".to_owned())),
        ("id".to_owned(), Json::Str(id.to_owned())),
        (
            "assay".to_owned(),
            Json::Object(vec![("netlist".to_owned(), netlist)]),
        ),
        (
            "artifacts".to_owned(),
            Json::Array(vec![
                Json::Str("stats".to_owned()),
                Json::Str("schedule".to_owned()),
            ]),
        ),
    ]);
    let mut out = String::new();
    v.write(&mut out);
    out
}

/// A malformed line: broken JSON, a truncated envelope, or an
/// unsupported version.
fn malformed_line(k: usize, rng: &mut SplitMix64) -> ServeLine {
    match rng.gen_index(0, 3) {
        0 => ServeLine {
            id: None,
            line: format!("not json at all ({k})"),
            expect: Expect::Error("malformed_request"),
        },
        1 => ServeLine {
            id: None,
            line: format!(r#"{{"version":"mfhls-api/v1","type":"synthesize","id":"x{k}""#),
            expect: Expect::Error("malformed_request"),
        },
        _ => ServeLine {
            id: Some(format!("old{k}")),
            line: format!(r#"{{"version":"mfhls-api/v0","type":"synthesize","id":"old{k}"}}"#),
            expect: Expect::Error("unsupported_version"),
        },
    }
}

/// A named-benchmark request past the admission `max_ops` bound: the
/// service builds the assay, then rejects it as oversized.
fn oversized_line(k: usize) -> ServeLine {
    let id = format!("big{k}");
    ServeLine {
        line: format!(
            r#"{{"version":"mfhls-api/v1","type":"synthesize","id":"{id}","assay":{{"benchmark":"rtqpcr","scale":200}}}}"#
        ),
        id: Some(id),
        expect: Expect::Error("parse_error"),
    }
}

fn ok_line(id: String, assays: &[Assay], assay: usize, may_exhaust_budget: bool) -> ServeLine {
    ServeLine {
        line: netlist_request(&id, &assays[assay]),
        id: Some(id),
        expect: Expect::Synth {
            assay,
            may_exhaust_budget,
        },
    }
}

fn into_windows(lines: Vec<ServeLine>) -> Vec<Vec<ServeLine>> {
    let mut windows = Vec::new();
    let mut it = lines.into_iter().peekable();
    while it.peek().is_some() {
        windows.push(it.by_ref().take(WINDOW).collect());
    }
    windows
}

/// A seeded riffle of `layers` (each layer's op indices in ascending
/// order): an op order that interleaves the layers at random but keeps
/// every layer's own order. New position `j` holds old op `sigma[j]`.
fn riffle(layers: &[Vec<usize>], rng: &mut SplitMix64) -> Vec<usize> {
    let mut next = vec![0; layers.len()];
    let mut left: usize = layers.iter().map(Vec::len).sum();
    let mut sigma = Vec::with_capacity(left);
    while left > 0 {
        // Each op still to place is equally likely to come next.
        let mut r = rng.gen_index(0, left);
        let l = (0..layers.len())
            .find(|&l| {
                let remaining = layers[l].len() - next[l];
                r < remaining || {
                    r -= remaining;
                    false
                }
            })
            .expect("r is below the ops left");
        sigma.push(layers[l][next[l]]);
        next[l] += 1;
        left -= 1;
    }
    sigma
}

/// `assay` with its ops renumbered: new position `j` holds old op
/// `sigma[j]` (the renumbering `gen::permute` applies for its own
/// seeded `sigma`).
fn renumber(assay: &Assay, sigma: &[usize]) -> Assay {
    let mut new_pos = vec![0usize; sigma.len()];
    for (j, &old) in sigma.iter().enumerate() {
        new_pos[old] = j;
    }
    let mut out = Assay::new(&format!("{}-riffled", assay.name()));
    for &old in sigma {
        out.add_op(assay.op(OpId(old)).clone());
    }
    for (p, c) in assay.dependencies() {
        out.add_dependency(OpId(new_pos[p.index()]), OpId(new_pos[c.index()]))
            .expect("a renumbered DAG stays acyclic");
    }
    out
}

/// Pool assays per profile in `serve-reuse`.
pub const REUSE_POOL_PER_PROFILE: usize = 4;
/// Seed of the fixed `serve-reuse` pool panel.
const REUSE_PANEL_SEED: u64 = 0x2E_05E;
/// Requests per cycle of the `serve-reuse` stream.
pub const REUSE_CYCLE: usize = 2048;
/// Permuted near-duplicates per cycle of the `serve-reuse` stream, each
/// a distinct layer-preserving op renumbering of a pool assay (16%).
pub const REUSE_PERMUTED: usize = 328;

/// Request classes of a stream cycle, as exact counts so every seed sends
/// the same mix (the seed only shuffles and fills it).
#[derive(Debug, Clone, Copy)]
enum Class {
    Dup,
    Relabel,
    Renamed,
    Permuted,
    Malformed,
    Oversized,
    Fresh,
}

/// Lays out one cycle of `windows` windows: each `sparse` class's lines
/// are spread evenly over the windows (one per window while the count
/// does not exceed the windows) at seeded positions, so no window piles
/// up slow rejections; the `bulk` classes fill the other slots in seeded
/// order. Counts are exact, so every seed sends the same mix.
fn class_sequence(
    windows: usize,
    sparse: &[(Class, usize)],
    bulk: &[(Class, usize)],
    rng: &mut SplitMix64,
) -> Vec<Class> {
    let mut slots: Vec<Option<Class>> = vec![None; windows * WINDOW];
    for &(class, count) in sparse {
        let offset = rng.gen_index(0, windows);
        for i in 0..count {
            let w = (i * windows / count + offset) % windows;
            let free: Vec<usize> = (w * WINDOW..(w + 1) * WINDOW)
                .filter(|&k| slots[k].is_none())
                .collect();
            let k = free[rng.gen_index(0, free.len())];
            slots[k] = Some(class);
        }
    }
    let mut fill: Vec<Class> = bulk
        .iter()
        .flat_map(|&(c, n)| std::iter::repeat_n(c, n))
        .collect();
    shuffle(&mut fill, rng);
    let mut fill = fill.into_iter();
    slots
        .into_iter()
        .map(|s| {
            s.or_else(|| fill.next())
                .expect("the counts fill the cycle")
        })
        .collect()
}

/// `serve-reuse`: the service's reuse stack under traffic that repeats.
///
/// Composition: a pool of 16 generated assays (small, medium,
/// indeterminate-heavy and adversarial, one per size band; a fixed panel
/// in seeded presentations, as in `synth-oneshot`, because the pool's
/// sizes set the parse and response cost of every request), sent as
/// inline netlists. Warm-up serves the pool once, so the solver sees
/// every pool assay's first sighting before timing starts. Each
/// 2048-request cycle is then 50% exact duplicates of pool lines, 16%
/// re-labelled pool assays (new id), 15% op-renamed twins (`gen::rename`:
/// same positional shape), 16% permuted near-duplicates and 3% malformed
/// lines. The first three classes are whole-request `DeltaCache` replays.
/// The permuted ones are 328 distinct [`riffle`]s of the pool assays of
/// more than one layer, none served in warm-up: each is a new positional
/// shape, so it misses the delta cache and runs the synthesizer, whose
/// layers the canonical index of the `SharedLayerCache` recognises and
/// translates. (A `gen::permute` permutation would reorder the ops inside
/// a layer, which the index's positional gate rightly refuses, and so
/// measure the solver instead.)
/// They are the cycle's only delta-cache insertions; 328 of them exceed
/// the default 256 entries (FIFO), so each is evicted before the next
/// cycle sends it again, and every cycle measures the canonical path. The
/// 16 pool shapes, evicted by them about once a cycle, are re-inserted by
/// their next duplicate. Oversized requests are left out so their ~60 ms
/// rejections do not hide the reuse path; `serve-cold` carries them.
pub fn serve_reuse(seed: u64) -> ServeInputs {
    let mut panel = SplitMix64::seed_from_u64(REUSE_PANEL_SEED);
    let mut rng = SplitMix64::seed_from_u64(seed).split(0x2E_05E);
    let mut pool = Vec::new();
    for profile in [
        Profile::Small,
        Profile::Medium,
        Profile::IndeterminateHeavy,
        Profile::Adversarial,
    ] {
        for base in stratified_draw(profile, REUSE_POOL_PER_PROFILE, &mut panel) {
            pool.push(present(&base, &mut rng));
        }
    }
    let n = pool.len();
    // assays[0..n] = pool, [n..2n] = renamed twins, then the riffles of
    // the pool assays of more than one layer.
    let mut assays = pool.clone();
    assays.extend(pool.iter().map(gen::rename));
    let layered: Vec<(usize, Vec<Vec<usize>>)> = pool
        .iter()
        .map(|a| {
            let threshold = SynthConfig::default().indeterminate_threshold;
            let layering = layer_assay(a, threshold).expect("generated assays are acyclic");
            layering
                .layers()
                .iter()
                .map(|l| l.iter().map(|o| o.index()).collect())
                .collect::<Vec<Vec<usize>>>()
        })
        .enumerate()
        .filter(|(_, layers)| layers.len() > 1)
        .collect();
    // Distinct riffles, none the identity, taking the pool assays in
    // turn; an assay with few riffles left gives its turn to the next.
    let mut seen = std::collections::HashSet::new();
    let mut turn = 0;
    while assays.len() < 2 * n + REUSE_PERMUTED {
        let (i, layers) = &layered[turn % layered.len()];
        turn += 1;
        assert!(turn < 64 * REUSE_PERMUTED, "the pool has too few riffles");
        let fresh = (0..64).map(|_| riffle(layers, &mut rng)).find(|sigma| {
            sigma.windows(2).any(|w| w[0] > w[1]) && seen.insert((*i, sigma.clone()))
        });
        if let Some(sigma) = fresh {
            assays.push(renumber(&pool[*i], &sigma));
        }
    }
    let pool_lines: Vec<ServeLine> = (0..n)
        .map(|i| ok_line(format!("p{i}"), &assays, i, false))
        .collect();
    let warmup = pool_lines.clone();
    let malformed = REUSE_CYCLE * 3 / 100;
    let bulk = [
        (Class::Dup, REUSE_CYCLE / 2),
        (Class::Relabel, 328),
        (
            Class::Renamed,
            REUSE_CYCLE - REUSE_CYCLE / 2 - 328 - REUSE_PERMUTED - malformed,
        ),
    ];
    // The riffles are the cycle's slow requests: spread evenly, two or
    // three a window, so no window piles them up.
    let sparse = [
        (Class::Permuted, REUSE_PERMUTED),
        (Class::Malformed, malformed),
    ];
    let mut permuted = seeded_order(REUSE_PERMUTED, &mut rng).into_iter();
    let lines = class_sequence(REUSE_CYCLE / WINDOW, &sparse, &bulk, &mut rng)
        .into_iter()
        .enumerate()
        .map(|(k, class)| {
            let i = rng.gen_index(0, n);
            match class {
                Class::Dup => pool_lines[i].clone(),
                Class::Relabel => ok_line(format!("r{k}"), &assays, i, false),
                Class::Renamed => ok_line(format!("n{k}"), &assays, n + i, false),
                Class::Permuted => {
                    let p = permuted.next().expect("one line per permutation");
                    ok_line(format!("m{k}"), &assays, 2 * n + p, false)
                }
                _ => malformed_line(k, &mut rng),
            }
        })
        .collect();
    ServeInputs {
        assays,
        warmup: into_windows(warmup),
        windows: into_windows(lines),
    }
}

/// Profiles the `serve-cold` stream cycles through. Tiny is left out:
/// its 0–4-op assays repeat structurally, and a repeat would hit the
/// delta cache. Large and wide-fanout are left out, and with them Mixed,
/// which delegates to any profile: about 1% of their structures exhaust
/// the default 25-device budget under the heuristic (the defect behind
/// [`SKIPPED`]; 7 of 20 seeds drew one when Mixed was in the list), and a
/// fresh draw per seed cannot pass over them by name.
pub const COLD_PROFILES: [Profile; 6] = [
    Profile::Small,
    Profile::Medium,
    Profile::DeepChain,
    Profile::IndeterminateHeavy,
    Profile::ResourceStarved,
    Profile::Adversarial,
];
/// Requests per cycle of the `serve-cold` stream.
pub const COLD_CYCLE: usize = 2400;
/// Oversized requests per cycle (2%).
pub const COLD_OVERSIZED: usize = 48;
/// Malformed lines per cycle (3%).
pub const COLD_MALFORMED: usize = 72;

/// `serve-cold`: the serve path when nothing repeats.
///
/// Composition: every 2400-request cycle is 95% distinct generated
/// assays sent as inline netlists (the profiles of [`COLD_PROFILES`] in
/// equal shares; with 2280 of them a seed's total work is close to
/// another's without a size stratification), 2% `rtqpcr` scale-200 benchmark
/// requests that admission must reject as oversized, and 3% malformed
/// lines. 2280 distinct assays are far more than the default 256-entry
/// caches hold (FIFO eviction), so nearly every lookup misses even when
/// a fast run wraps around to the start of the cycle. The work is
/// admission (netlist import, assay build, oversized rejection), the
/// solver under cross-request parallelism, and the pipeline; the reuse
/// stack is pure overhead here.
pub fn serve_cold(seed: u64) -> ServeInputs {
    let mut rng = SplitMix64::seed_from_u64(seed).split(0xC_01D);
    let fresh = COLD_CYCLE - COLD_OVERSIZED - COLD_MALFORMED;
    // One extra window of assays warms the service up without touching
    // the cycle's own assays.
    let mut drawn: Vec<(Profile, Assay)> = (0..fresh + WINDOW)
        .map(|i| {
            let profile = COLD_PROFILES[i % COLD_PROFILES.len()];
            (profile, gen::generate(profile, rng.next_u64()))
        })
        .collect();
    // Spread the profiles over the stream rather than in long runs.
    shuffle(&mut drawn, &mut rng);
    let starved: Vec<bool> = drawn
        .iter()
        .map(|(p, _)| *p == Profile::ResourceStarved)
        .collect();
    let assays: Vec<Assay> = drawn.into_iter().map(|(_, a)| a).collect();
    let warmup = (fresh..fresh + WINDOW)
        .map(|i| ok_line(format!("w{i}"), &assays, i, starved[i]))
        .collect();
    let sparse = [
        (Class::Oversized, COLD_OVERSIZED),
        (Class::Malformed, COLD_MALFORMED),
    ];
    let mut next = 0;
    let lines = class_sequence(
        COLD_CYCLE / WINDOW,
        &sparse,
        &[(Class::Fresh, fresh)],
        &mut rng,
    )
    .into_iter()
    .enumerate()
    .map(|(k, class)| match class {
        Class::Fresh => {
            next += 1;
            ok_line(format!("c{k}"), &assays, next - 1, starved[next - 1])
        }
        Class::Oversized => oversized_line(k),
        _ => malformed_line(k, &mut rng),
    })
    .collect();
    ServeInputs {
        assays,
        warmup: vec![warmup],
        windows: into_windows(lines),
    }
}
