//! The experiment implementations, one per paper table/figure, plus the
//! replication bench (the one service measurement `benchmark/` has no
//! workload for).

mod ablation;
mod buffer_sweep;
mod figure10;
mod figure8;
mod figure9;
mod index_comparison;
mod repl;
mod table2;

pub use ablation::{ablation, AblationConfig};
pub use buffer_sweep::{buffer_sweep, BufferSweepConfig};
pub use figure10::{figure10, Figure10Config};
pub use figure8::figure8;
pub use figure9::{figure9, Figure9Config};
pub use index_comparison::{index_comparison, IndexComparisonConfig};
pub use repl::{
    repl_bench, CatchUpPhase, FailoverPhase, LagPhase, ReplBenchConfig, ReplReport,
    MAX_FAILOVER_MS, MAX_LAG_P99_MS,
};
pub use table2::{table2, Table2Config};
