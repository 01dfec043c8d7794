//! Method sweeps over benchmark queries.

use seesaw_core::{run_benchmark_query, DatasetIndex, MethodConfig};
use seesaw_dataset::SyntheticDataset;
use seesaw_metrics::BenchmarkProtocol;
use std::sync::Arc;

/// A factory producing a fresh `MethodConfig` per query (methods hold
/// per-query state, so they cannot be shared across queries).
pub type MethodFactory<'a> = &'a dyn Fn(&DatasetIndex, &SyntheticDataset, u32) -> MethodConfig;

/// Run `method` on every benchmark query of the dataset; returns the
/// per-query AP values in query order.
pub fn ap_per_query(
    index: &Arc<DatasetIndex>,
    dataset: &SyntheticDataset,
    method: MethodFactory,
    protocol: &BenchmarkProtocol,
) -> Vec<f64> {
    dataset
        .queries()
        .iter()
        .map(|q| {
            let cfg = method(index, dataset, q.concept);
            run_benchmark_query(index, dataset, q.concept, cfg, protocol).ap
        })
        .collect()
}
