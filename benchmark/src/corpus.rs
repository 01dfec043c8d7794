//! Set-up: generate a workload's dataset, build its index and save it
//! where a server child can load it. Each step is timed on its own —
//! together with the child's start they make `setup_s`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use seesaw_core::{save_index, DatasetIndex, PreprocessConfig, Preprocessor};
use seesaw_dataset::{DatasetSpec, SyntheticDataset};
use seesaw_vecstore::StoreConfig;

use crate::spec::{Workload, DATASET_SEED};
use crate::Error;

/// `benchmark/out/`: traces, result files and scratch index files.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The dataset every process of a workload generates for itself: the
/// generator is deterministic and cheap, so the server child gets the
/// scale and not the data.
pub fn generate_dataset(scale: f64) -> SyntheticDataset {
    DatasetSpec::coco_like(scale)
        .with_dim(128)
        .with_max_queries(80)
        .generate(DATASET_SEED)
}

/// Preprocessing as the benchmark fixes it.
pub fn preprocess_config(store: StoreConfig) -> PreprocessConfig {
    let mut config = PreprocessConfig::fast().with_store(store);
    config.build_propagation = false;
    config.build_coarse_graph = false;
    config.db_matrix_sample = Some(20_000);
    config
}

/// The configuration `load_index` rebuilds the graph artifacts with. A
/// loaded index carries its own store, so the store named here is
/// never built.
pub fn load_config() -> PreprocessConfig {
    preprocess_config(StoreConfig::exact())
}

/// A private directory under `benchmark/out/`, removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn create() -> Result<Self, Error> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = out_dir().join(format!(
            "tmp-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A workload's dataset, its built index, and the saved index file.
pub struct Corpus {
    pub dataset: Arc<SyntheticDataset>,
    /// The index as built in this process; the server child and the
    /// traced stacks serve the one loaded back from `index_path`.
    pub built: Arc<DatasetIndex>,
    pub index_path: PathBuf,
    pub file_bytes: u64,
    pub generate_s: f64,
    pub build_s: f64,
    pub save_s: f64,
    scratch: ScratchDir,
}

impl Corpus {
    /// Generate, build and save, timing each step.
    pub fn build(workload: &Workload) -> Result<Self, Error> {
        let scratch = ScratchDir::create()?;
        let t = Instant::now();
        let dataset = Arc::new(generate_dataset(workload.scale));
        let generate_s = t.elapsed().as_secs_f64();
        if dataset.queries().is_empty() {
            return Err(Error::Setup(format!(
                "scale {} yields no benchmark queries",
                workload.scale
            )));
        }

        let t = Instant::now();
        let built = Preprocessor::new(preprocess_config(workload.store.config())).build(&dataset);
        let build_s = t.elapsed().as_secs_f64();

        let index_path = scratch.path().join("index.ssawidx");
        let t = Instant::now();
        save_index(&built, &index_path).map_err(|e| Error::Setup(format!("save_index: {e}")))?;
        let save_s = t.elapsed().as_secs_f64();
        let file_bytes = std::fs::metadata(&index_path)?.len();

        Ok(Self {
            dataset,
            built,
            index_path,
            file_bytes,
            generate_s,
            build_s,
            save_s,
            scratch,
        })
    }

    pub fn scratch_path(&self, name: &str) -> PathBuf {
        self.scratch.path().join(name)
    }
}
