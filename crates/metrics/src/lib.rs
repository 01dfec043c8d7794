//! Evaluation metrics for the SeeSaw benchmark (paper §5.1).
//!
//! The benchmark task: "finding 10 examples of the category … We stop at
//! 60 images if 10 examples have not been found by then." Result quality
//! is Average Precision over that truncated trace:
//! `AP = (Σᵢ Pᵢ)/R` where `Pᵢ` is the precision at the i-th relevant
//! result, `R = min(10, total relevant)`, and unfound results contribute
//! zero precision.
//!
//! The crate also provides ΔAP summaries (Fig. 5), empirical CDFs
//! (Fig. 1), the hard-query subset (zero-shot AP < .5; Fig. 1, Table 2),
//! quantiles, and bootstrap confidence intervals (Fig. 6).

pub mod ap;
#[cfg(test)]
mod proptests;
pub mod retrieval;
pub mod stats;
pub mod table;

pub use ap::{average_precision, ranking_average_precision, BenchmarkProtocol, SearchTrace};
pub use retrieval::DeltaSummary;
pub use stats::{
    bootstrap_mean_ci, cdf_points, fraction_below, hard_subset, mean, median, quantile, select_hard,
};
pub use table::TableBuilder;
