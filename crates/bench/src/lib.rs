//! Measurement harness regenerating every table and figure of the paper's
//! evaluation (§5).  The criterion benches and the `bin/` table printers
//! both call into this module, so the numbers in EXPERIMENTS.md and the
//! statistically-validated benchmarks come from the same code paths.

pub mod affinity;
pub mod chaos;
pub mod crit;
pub mod evacuation;
pub mod harness;
pub mod latency;
pub mod legacy;
pub mod negotiate;
pub mod recovery;
pub mod report;
pub mod scale;
pub mod throughput;

pub use affinity::*;
pub use chaos::*;
pub use evacuation::*;
pub use harness::*;
pub use latency::*;
pub use negotiate::*;
pub use recovery::*;
pub use report::*;
pub use scale::*;
pub use throughput::*;
