//! Extending the framework: implement a custom scheduling [`Scheme`]
//! against the public API and race it against PROTEAN.
//!
//! The custom policy here is "biggest-slice-first": every batch goes to
//! the largest slice with room, ignoring strictness and interference —
//! a plausible first attempt that the η-based PROTEAN policy should
//! beat on tail latency.
//!
//! ```text
//! cargo run --release -p protean-experiments --example custom_scheme
//! ```

use protean::ProteanBuilder;
use protean_cluster::{BatchView, Placement, PlacementCtx, Scheme, SchemeBuilder};
use protean_experiments::report::{banner, scheme_table};
use protean_experiments::{run_cell, scenario};
use protean_gpu::{Geometry, SharingMode};

/// Always place on the largest slice with free memory.
struct BiggestSliceFirst;

impl Scheme for BiggestSliceFirst {
    fn name(&self) -> &'static str {
        "biggest-slice-first"
    }

    fn initial_geometry(&self) -> Geometry {
        Geometry::g4_g3()
    }

    fn sharing_mode(&self) -> SharingMode {
        SharingMode::Mps
    }

    fn place(&mut self, ctx: &PlacementCtx<'_>, batch: &BatchView) -> Option<Placement> {
        // A model's profiled quantities (memory, solo time, FBR, RDF)
        // are static: read them from the batch's model.
        let mem = batch.model.profile().mem_gb;
        // Slices are ordered largest-first; take the first with room.
        ctx.gpu
            .slices()
            .iter()
            .position(|s| s.mem_available_gb() + 1e-9 >= mem)
            .map(Placement::on_slice)
    }
}

struct BiggestSliceFirstBuilder;

impl SchemeBuilder for BiggestSliceFirstBuilder {
    fn build(&self, _worker: usize) -> Box<dyn Scheme> {
        Box::new(BiggestSliceFirst)
    }
    fn name(&self) -> &'static str {
        "biggest-slice-first"
    }
}

fn main() -> std::io::Result<()> {
    let out = &mut std::io::stdout();
    let keys = [("trace.duration_secs", "60"), ("fleet.seed", "3")];
    let spec = scenario::paper().with(&keys);
    banner(
        out,
        "custom scheme",
        "biggest-slice-first vs PROTEAN (ResNet 50)",
    )?;
    let schemes: [&dyn SchemeBuilder; 2] = [&BiggestSliceFirstBuilder, &ProteanBuilder::paper()];
    let rows = schemes
        .map(|scheme| run_cell(&spec, scheme))
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .map_err(std::io::Error::other)?;
    scheme_table(out, &rows)
}
