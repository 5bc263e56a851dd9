//! Experiment harness: regenerates every table and figure of the
//! paper's evaluation (§5–§7).
//!
//! The evaluation is data: [`paper::EXPERIMENTS`] holds one row per
//! table or figure (the paper's workload, the schemes under test, the
//! axis the figure varies and the columns it prints), and
//! `protean-cli reproduce` runs the rows. The shared pieces live here:
//!
//! * [`scenario`] — the scenario DSL, and [`scenario::paper`], the
//!   paper's experimental setup as one spec that every row, golden run
//!   and CLI run sets keys of: the 8-worker cluster and the Wiki trace
//!   at ~5000 rps mean for vision (128 rps for language), the 50/50
//!   strict/BE mix with the BE model rotating through the opposite
//!   interference class every ~20 s. [`scenario::ScenarioSpec::compile`]
//!   lowers a spec onto engine types and
//!   [`scenario::CompiledScenario::simulate`] runs it. [`setup`] holds
//!   the two rates.
//! * [`runner`] — [`runner::run_cell`] runs one scheme on one spec and
//!   condenses the result into a [`runner::SchemeRow`].
//! * [`harness`] — fans a grid of independent `(spec, scheme)` cells out over a
//!   `std::thread::scope` worker pool ([`harness::run_grid`]) with
//!   bit-identical results to a sequential run; thread count comes
//!   from `--threads` / `PROTEAN_THREADS` / available parallelism.
//! * [`report`] and [`chart`] — fixed-width tables, CSV series and
//!   terminal charts, written to any [`std::io::Write`], so every
//!   row's output is regular enough to diff across runs.
//!
//! Run e.g.:
//!
//! ```text
//! protean-cli reproduce --only fig05_slo_vision
//! protean-cli reproduce --duration 20 --seed 7 --out results
//! ```

pub mod chart;
pub mod golden;
pub mod harness;
pub mod paper;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod schemes;
pub mod setup;

pub use harness::{run_grid, run_parallel, thread_count, thread_count_or};
pub use runner::{run_cell, SchemeRow};
pub use setup::PaperSetup;
