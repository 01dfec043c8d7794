//! What the benchmark measures: the four workloads, the load model they
//! share, and the metric names with their units, directions and
//! regression bounds. `BENCHMARK.json` at the repository root is
//! rendered from this file ([`manifest_json`]) and a test keeps the two
//! equal, so a name cannot be reported that the manifest does not list.

use seesaw_core::protocol::MethodSpec;
use seesaw_vecstore::{IvfConfig, RowPrecision, StoreConfig};

/// How long one driver run measures (`run_seconds` in the manifest and
/// the default of `--seconds`).
pub const RUN_SECONDS: u64 = 15;

/// Seed of `--seed` when none is given.
pub const DEFAULT_SEED: u64 = 7;

/// The corpus is a fixed part of each workload; `--seed` draws the
/// sessions that run against it.
pub const DATASET_SEED: u64 = 7;

/// Closed-loop clients, one thread and one TCP connection each. The
/// reference box has two cores; never more threads than that.
pub const CLIENTS: usize = 2;

/// How many times a run sets up from scratch at least; `setup_s` is
/// the median. A corpus that sets up in a fraction of a second does so
/// again, up to [`SETUP_REPS_MAX`] times, until [`SETUP_BUDGET_S`] have
/// been spent on set-ups.
pub const SETUP_REPS: usize = 3;
pub const SETUP_REPS_MAX: usize = 7;
pub const SETUP_BUDGET_S: f64 = 1.5;

/// A steady workload measures `--seconds` in this many equal windows,
/// each against a fresh server child over fresh connections, and
/// reports the median window. (`restart` has its own, shorter cycles.)
pub const CYCLES: usize = 10;

/// Share of a window each client spends on unrecorded warm-up
/// sessions before the measured window opens.
pub const WARMUP_SHARE: f64 = 0.1;

/// The server child's fixed shape (`serve` arguments).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeShape {
    pub workers: usize,
    pub event_loops: usize,
    pub queue_depth: usize,
    pub max_connections: usize,
}

impl ServeShape {
    /// What every workload runs against.
    pub const REFERENCE: Self = Self {
        workers: 2,
        event_loops: 1,
        queue_depth: 256,
        max_connections: 256,
    };
}

/// The vector store a workload's index is built with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreKind {
    /// Exhaustive scan over f32 rows.
    ExactF32,
    /// IVF lists over `pq16x8` codes: ADC scan, then an exact re-rank
    /// against the (mmap-backed, once loaded) f32 rows.
    IvfPq16x8,
}

impl StoreKind {
    pub fn config(self) -> StoreConfig {
        match self {
            Self::ExactF32 => StoreConfig::exact(),
            Self::IvfPq16x8 => StoreConfig::ivf(IvfConfig::default())
                .with_precision(RowPrecision::Pq { m: 16, nbits: 8 }),
        }
    }

    /// Bytes the scan reads for one query over `rows` rows of `dim`
    /// elements: computed from the layout, not measured. IVF probes
    /// `n_probe` of `n_lists` lists, so that share of the 16-byte codes.
    pub fn scan_bytes_per_query(self, rows: usize, dim: usize) -> f64 {
        match self {
            Self::ExactF32 => (rows * dim * 4) as f64,
            Self::IvfPq16x8 => {
                let ivf = IvfConfig::default();
                let share = ivf.n_probe.min(ivf.n_lists) as f64 / ivf.n_lists as f64;
                rows as f64 * 16.0 * share
            }
        }
    }
}

/// One workload: a corpus, a method and a session shape.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line for the manifest: which layers it stresses, which it
    /// bypasses.
    pub why: &'static str,
    /// `DatasetSpec::coco_like(scale)` at dim 128.
    pub scale: f64,
    pub store: StoreKind,
    pub method: MethodSpec,
    /// Images per batch (`b`).
    pub batch: u32,
    /// Batches per session: the first is timed with `create` as the
    /// first batch, each later one ends a round.
    pub batches: u32,
    /// Send each round (its feedback lines and the `next_batch`) as one
    /// pipelined write instead of one request per round trip.
    pub pipelined: bool,
    /// `Some(n)`: measure in cycles of a fresh server child that loads
    /// the index, `n` measured sessions per client per cycle.
    pub restart: Option<usize>,
    /// Sessions per client whose AP makes `mean_ap`; a client runs at
    /// least this many, however slow the box.
    pub ap_sessions: usize,
    /// Sessions opened and left idle after the measured phase of the
    /// traced run, to read the per-session memory cost.
    pub idle_sessions: usize,
}

impl Workload {
    /// Images a full session shows.
    pub fn images_per_session(&self) -> usize {
        (self.batch * self.batches) as usize
    }

    /// The same workload at a size the test suite can afford.
    pub fn tiny(mut self) -> Self {
        self.scale = 0.001;
        self.ap_sessions = 2;
        self.idle_sessions = 16;
        if self.batches > 12 {
            self.batches = 12;
        }
        self
    }
}

/// The four workloads, in manifest order.
pub fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "scan_heavy",
            why: "156k f32 patch vectors, seesaw, b=1, 60-image sessions: the exact store scan is most of a round, so a store, kernel or dedupe change shows and a solve change should not",
            scale: 0.1,
            store: StoreKind::ExactF32,
            method: MethodSpec::SeeSaw,
            batch: 1,
            batches: 60,
            pipelined: false,
            restart: None,
            ap_sessions: 32,
            idle_sessions: 200,
        },
        Workload {
            name: "solve_heavy",
            why: "3k vectors, seesaw, b=10: ten cold alignment solves per round against a tiny scan, so aligner, optim and core.session own the round and the store does almost nothing",
            scale: 0.002,
            store: StoreKind::ExactF32,
            method: MethodSpec::SeeSaw,
            batch: 10,
            batches: 6,
            pipelined: false,
            restart: None,
            ap_sessions: 64,
            idle_sessions: 200,
        },
        Workload {
            name: "wire_churn",
            why: "3k vectors, zero_shot, b=3, short sessions with each round one pipelined write: no solve and no real scan, so server, core.protocol and the core.service registry dominate",
            scale: 0.002,
            store: StoreKind::ExactF32,
            method: MethodSpec::ZeroShot,
            batch: 3,
            batches: 6,
            pipelined: true,
            restart: None,
            ap_sessions: 512,
            idle_sessions: 2000,
        },
        Workload {
            name: "restart",
            why: "31k vectors in an ivf pq16x8 store, a fresh server child per cycle loads the saved index: the only workload on the PQ scan, the mmap re-rank and the persist write and read paths",
            scale: 0.02,
            store: StoreKind::IvfPq16x8,
            method: MethodSpec::SeeSaw,
            batch: 1,
            batches: 60,
            pipelined: false,
            restart: Some(6),
            ap_sessions: 48,
            idle_sessions: 200,
        },
    ]
}

/// Look a workload up by its manifest name.
pub fn workload(name: &str) -> Option<Workload> {
    workloads().into_iter().find(|w| w.name == name)
}

/// Which way a metric gets better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Lower => "lower",
            Self::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// An end-to-end metric: reported by every workload with `--trace 0`.
/// `bound` is the share of the parent's median by which it may worsen.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// The nine end-to-end metrics. The timing bounds are what a shared
/// two-core sandbox can resolve: quiet, ten seeds spread by 3–8 % of
/// their median, and a bound has to be three times the spread.
pub const END_TO_END: &[EndToEnd] = &[
    gated("setup_s", "s", Lower, 0.25),
    gated("round_p50_ms", "ms", Lower, 0.25),
    gated("round_p90_ms", "ms", Lower, 0.25),
    gated("rounds_per_s", "1/s", Higher, 0.25),
    gated("first_batch_p50_ms", "ms", Lower, 0.25),
    gated("cold_start_p50_ms", "ms", Lower, 0.25),
    gated("rss_mib", "MiB", Lower, 0.05),
    gated("index_file_mib", "MiB", Lower, 0.01),
    gated("mean_ap", "ap", Higher, 0.08),
];

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// A per-layer metric: reported by every workload with `--trace 1`.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The per-layer metrics, grouped by the module they belong to. Which
/// end-to-end metric each should move, on which workload, is the table
/// in `README.md`.
pub const PER_LAYER: &[PerLayer] = &[
    layer("client.request_p99_ms", "ms", Lower),
    layer("client.round_p99_ms", "ms", Lower),
    layer("client.round_max_ms", "ms", Lower),
    layer("client.requests", "count", Higher),
    layer("server.wire_self_us", "us", Lower),
    layer("server.requests_served", "count", Higher),
    layer("server.requests_shed", "count", Lower),
    layer("server.connections_accepted", "count", Lower),
    layer("core.protocol.decode_us", "us", Lower),
    layer("core.protocol.encode_us", "us", Lower),
    layer("core.protocol.bytes_per_round", "bytes", Lower),
    layer("core.service.handle_line_us.create", "us", Lower),
    layer("core.service.handle_line_us.next_batch", "us", Lower),
    layer("core.service.handle_line_us.feedback", "us", Lower),
    layer("core.service.handle_line_us.stats", "us", Lower),
    layer("core.service.handle_line_us.close", "us", Lower),
    layer("core.service.self_us", "us", Lower),
    layer("core.service.bytes_per_idle_session", "bytes", Lower),
    layer("core.session.start_us", "us", Lower),
    layer("embed.text_us", "us", Lower),
    layer("core.session.next_batch_us", "us", Lower),
    layer("core.session.next_batch_self_us", "us", Lower),
    layer("core.session.feedback_us", "us", Lower),
    layer("core.session.feedback_self_us", "us", Lower),
    layer("aligner.align_us", "us", Lower),
    layer("aligner.lbfgs_iters", "count", Lower),
    layer("aligner.examples_per_solve", "count", Lower),
    layer("aligner.converged_share", "share", Higher),
    layer("aligner.query_updates_per_round", "count", Lower),
    layer("vecstore.top_k_us", "us", Lower),
    layer("vecstore.top_k_p90_us", "us", Lower),
    layer("vecstore.rows_per_s", "rows/s", Higher),
    layer("vecstore.scan_bytes_per_query", "bytes", Lower),
    layer("vecstore.k_requested", "count", Lower),
    layer("vecstore.recall_at_10", "share", Higher),
    layer("vecstore.build_s", "s", Lower),
    layer("core.persist.save_s", "s", Lower),
    layer("core.persist.load_ms", "ms", Lower),
    layer("vecstore.diskindex.load_store_ms", "ms", Lower),
    layer("core.persist.file_bytes_per_row_byte", "ratio", Lower),
    layer("core.preprocess.build_s", "s", Lower),
    layer("dataset.generate_s", "s", Lower),
    layer("trace.unattributed_share", "share", Lower),
    layer("trace.overhead_share", "share", Lower),
];

/// The program and arguments the driver runs from the repository root.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// Render `BENCHMARK.json`.
pub fn manifest_json() -> String {
    fn quoted(items: &[&str]) -> String {
        let cells: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
        cells.join(", ")
    }
    let workloads: Vec<String> = workloads()
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted(COMMAND),
        RUN_SECONDS,
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}
