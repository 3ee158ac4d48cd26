//! The four workloads.  Each module documents why it exists, generates
//! its inputs from the seed alone (`inputs`), and runs one cycle —
//! launch, populate, warm up, timed window, checks, shutdown — on demand.

pub mod alloc_drift;
pub mod evacuate_heap;
pub mod migrate_null;
pub mod rpc_fanin;
