//! Simulated NVIDIA A100 GPU with MIG partitioning and MPS spatial
//! sharing.
//!
//! The paper evaluates PROTEAN on real 8×A100 hardware. This crate is the
//! synthetic substitute: a discrete-event model of one A100 that exposes
//! exactly the knobs the paper's policies manipulate —
//!
//! * **MIG**: the GPU can be partitioned into *slices* according to a
//!   [`Geometry`] built from the Table 2 [`SliceProfile`]s (`1g.5gb` …
//!   `7g.40gb`). Reconfiguring requires all slices to be idle and takes
//!   ~2 s (the paper's reported reconfiguration latency).
//! * **MPS**: jobs placed on the same slice space-share it. Their
//!   execution time follows the paper's interference model (Eq. 1):
//!   `T_k = Solo_k × max(Σ_j FBR_j, 1)` where the sum ranges over all
//!   co-located jobs and FBRs are expressed relative to the *slice's*
//!   memory bandwidth.
//! * **Time sharing**: a slice can instead run jobs one-at-a-time FIFO
//!   (how `Molecule (beta)` and `MIG Only` serve batches).
//!
//! Execution is modelled as processor sharing with a dynamically changing
//! rate: whenever slice membership changes, every resident job's progress
//! is advanced at the old slowdown factor and the slice hands back its
//! *earliest* re-projected completion ([`Slice::next_completion`]) — the
//! caller arms a single completion event per slice and replaces it on
//! the next membership change. Events carry a generation counter so
//! stale completions can be discarded.
//!
//! # Example
//!
//! ```
//! use protean_gpu::{Geometry, SliceProfile, Slice, SharingMode, JobSpec, JobId};
//! use protean_sim::{SimTime, SimDuration};
//!
//! let geom = Geometry::new(vec![SliceProfile::G4, SliceProfile::G3])?;
//! assert_eq!(geom.total_compute_sevenths(), 7);
//!
//! let mut slice = Slice::new(SliceProfile::G4, SharingMode::Mps, SimTime::ZERO);
//! let job = JobSpec {
//!     id: JobId(1),
//!     solo: SimDuration::from_millis(100.0),
//!     fbr: 0.3,
//!     mem_gb: 6.0,
//! };
//! let next = slice.admit(SimTime::ZERO, job).unwrap();
//! // Alone on the slice: finishes after its solo time.
//! assert_eq!(next.job, JobId(1));
//! assert_eq!(next.at, SimTime::ZERO + SimDuration::from_millis(100.0));
//! # Ok::<(), protean_gpu::GeometryError>(())
//! ```

pub mod device;
pub mod interference;
pub mod placement;
pub mod profile;
pub mod slice;

pub use device::{Gpu, GpuId, GpuState, ReconfigError};
pub use interference::{execution_time, slowdown_factor, slowdown_factor_iter};
pub use placement::{find_placement, is_placeable, MEMORY_SLICES};
pub use profile::{Geometry, GeometryError, SliceProfile};
pub use slice::{AdmitError, Completion, JobId, JobSpec, SharingMode, Slice};
