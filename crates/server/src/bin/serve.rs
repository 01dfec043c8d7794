//! Stand-alone demo server: generate a synthetic dataset, preprocess
//! it (or cold-start from a saved index file), and serve the line
//! protocol on a fixed port until killed.
//!
//! ```sh
//! cargo run --release --bin serve            # 127.0.0.1:7878
//! SEESAW_ADDR=0.0.0.0:9000 cargo run --release --bin serve
//!
//! # First run preprocesses and saves the index; every later run
//! # mmaps it back in milliseconds instead of rebuilding:
//! cargo run --release --bin serve -- --index /tmp/seesaw.ssawidx
//!
//! # Pick the store backend / row precision for the first build
//! # (loaded index files carry their own store; e.g. a PQ tier):
//! SEESAW_STORE=exact SEESAW_PRECISION=pq16x8 \
//!     cargo run --release --bin serve -- --index /tmp/seesaw-pq.ssawidx
//! ```
//!
//! Then speak one JSON line per request, e.g. with netcat:
//!
//! ```text
//! $ nc 127.0.0.1 7878
//! {"type":"create","concept":0,"method":"seesaw"}
//! {"type":"created","session":0}
//! {"type":"next_batch","session":0,"n":2}
//! {"type":"batch","images":[5,12]}
//! ```

use seesaw_core::{load_index, save_index, PreprocessConfig, Preprocessor, SearchService};
use seesaw_dataset::DatasetSpec;
use seesaw_server::{Server, ServerConfig};
use seesaw_vecstore::RowPrecision;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let addr = std::env::var("SEESAW_ADDR").unwrap_or_else(|_| "127.0.0.1:7878".to_string());
    let args: Vec<String> = std::env::args().collect();
    let index_path: Option<PathBuf> = args
        .windows(2)
        .find(|w| w[0] == "--index")
        .map(|w| PathBuf::from(&w[1]))
        .or_else(|| std::env::var("SEESAW_INDEX").ok().map(PathBuf::from));

    // The synthetic dataset itself (image metadata, concept vocabulary)
    // is cheap to regenerate and deterministic; the expensive part —
    // tiling, embedding, store construction — is what the index file
    // caches.
    eprintln!("[serve] generating synthetic dataset…");
    let dataset = Arc::new(
        DatasetSpec::coco_like(0.002)
            .with_max_queries(16)
            .generate(7),
    );
    // `SEESAW_STORE` / `SEESAW_PRECISION` select the store for a fresh
    // build (a loaded index file carries its own store, so they are
    // irrelevant on the cold-start path). `pq<m>x<nbits>` precisions
    // give the served index the byte-per-element ADC scan tier.
    let mut cfg = PreprocessConfig::fast();
    if let Ok(name) = std::env::var("SEESAW_STORE") {
        cfg.store = PreprocessConfig::store_for_backend(&name)
            .unwrap_or_else(|| panic!("SEESAW_STORE={name:?}: expected forest, exact, or ivf"));
    }
    if let Ok(name) = std::env::var("SEESAW_PRECISION") {
        let p = RowPrecision::parse(&name).unwrap_or_else(|| {
            panic!("SEESAW_PRECISION={name:?}: expected f32, f16, sq8, or pq<m>x<nbits>")
        });
        cfg.store = cfg.store.with_precision(p);
        eprintln!(
            "[serve] store: {} / {}",
            cfg.store.backend_name(),
            p.label()
        );
    }

    let index = match &index_path {
        Some(path) if path.exists() => {
            let t0 = Instant::now();
            let index = load_index(path, &cfg)
                .unwrap_or_else(|e| panic!("loading index {}: {e}", path.display()));
            eprintln!(
                "[serve] cold-started from {} in {:.1} ms (rows mmapped zero-copy)",
                path.display(),
                t0.elapsed().as_secs_f64() * 1e3
            );
            index
        }
        _ => {
            let t0 = Instant::now();
            let index = Preprocessor::new(cfg.clone()).build(&dataset);
            eprintln!(
                "[serve] preprocessed in {:.1} ms",
                t0.elapsed().as_secs_f64() * 1e3
            );
            if let Some(path) = &index_path {
                save_index(&index, path)
                    .unwrap_or_else(|e| panic!("saving index {}: {e}", path.display()));
                eprintln!("[serve] saved index to {}", path.display());
            }
            index
        }
    };

    let service = Arc::new(SearchService::new(index, Arc::clone(&dataset)));
    eprintln!(
        "[serve] {} images, {} patch vectors, concepts 0..{}",
        service.index().n_images(),
        service.index().n_patches(),
        dataset.model.n_concepts()
    );

    let config = ServerConfig::default();
    eprintln!(
        "[serve] {} event loops, {} workers, queue depth {}",
        config.event_loops, config.workers, config.queue_depth
    );
    let server = Server::bind(service, addr.as_str(), config)
        .unwrap_or_else(|e| panic!("binding {addr}: {e}"));
    eprintln!(
        "[serve] listening on {} — one JSON line per request (try `nc`), ctrl-c to stop",
        server.local_addr()
    );
    // Serve until killed; the Server's own threads do all the work.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(60));
        let s = server.stats();
        eprintln!(
            "[serve] served {} requests over {} connections ({} open)",
            s.requests_served,
            s.connections_accepted,
            server.open_connections()
        );
    }
}
