//! The comparison schemes PROTEAN is evaluated against.
//!
//! Each baseline reproduces the *request-serving policy* of a published
//! system, as characterised in the paper (§5 "Evaluated schemes" and the
//! §2.2 motivational study):
//!
//! | Scheme | GPU setup | Sharing | Placement |
//! |---|---|---|---|
//! | `Molecule (beta)` / `No MPS or MIG` | whole GPU (`7g`) | time sharing | FIFO |
//! | `INFless/Llama` / `MPS Only` | whole GPU (`7g`) | MPS | consolidate everything |
//! | `MIG Only` | static `(4g, 3g)` | time sharing | any idle slice |
//! | `MPS+MIG` | static `(4g, 3g)` | MPS | even round-robin |
//! | `'Smart' MPS+MIG` | static `(4g, 3g)` | MPS | strict→4g, BE→3g |
//! | `Naïve Slicing` | static `(4g, 2g, 1g)` | MPS | balance by slice memory |
//! | `GPUlet` | whole GPU (`7g`) | MPS + SM caps | strict ≤62.5% SMs, BE the rest |
//!
//! The `Spot Only` scheme of Fig. 9 is PROTEAN under a different
//! procurement policy, so it lives in the cluster configuration rather
//! than here; the `Oracle` of Fig. 17 is in the `protean` crate.
//!
//! # Example
//!
//! ```
//! use protean_baselines::Baseline;
//! use protean_cluster::SchemeBuilder;
//!
//! let b = Baseline::InflessLlama;
//! assert_eq!(SchemeBuilder::name(&b), "INFless/Llama");
//! let mut scheme = b.build(0);
//! assert_eq!(scheme.initial_geometry().to_string(), "(7g)");
//! ```

use protean_cluster::{BatchView, DispatchPolicy, Placement, PlacementCtx, Scheme, SchemeBuilder};
use protean_gpu::{Geometry, SharingMode, Slice};

/// The comparison schemes (see the crate docs for the mapping to the
/// paper's systems).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Baseline {
    /// *Molecule*'s GPU support: whole GPU, time sharing, no MPS.
    MoleculeBeta,
    /// *INFless* / *Llama*: whole GPU, MPS, everything consolidated.
    InflessLlama,
    /// Static MIG slices + MPS, requests balanced by slice memory.
    NaiveSlicing,
    /// Static `(4g, 3g)` slices, time-shared (§2.2 motivational).
    MigOnly,
    /// Static `(4g, 3g)` slices, MPS, even split (§2.2 motivational).
    MpsMigEven,
    /// The §2.2 straw man: strict on the 4g, best-effort on the 3g.
    SmartMpsMig,
    /// *GPUlet*: MPS with carefully allocated SM partitions — strict
    /// capped at ~62.5% of SMs, best-effort at the remaining 37.5%
    /// (§6.2 "strategic MPS-only usage").
    Gpulet,
}

impl Baseline {
    /// All baselines, in the order the figures list them.
    pub const ALL: [Baseline; 7] = [
        Baseline::MoleculeBeta,
        Baseline::InflessLlama,
        Baseline::NaiveSlicing,
        Baseline::MigOnly,
        Baseline::MpsMigEven,
        Baseline::SmartMpsMig,
        Baseline::Gpulet,
    ];

    /// The three comparison schemes of the primary evaluation (Figs.
    /// 5–15): Molecule (beta), INFless/Llama and Naïve Slicing.
    pub const PRIMARY: [Baseline; 3] = [
        Baseline::MoleculeBeta,
        Baseline::InflessLlama,
        Baseline::NaiveSlicing,
    ];

    /// The scheme's figure label.
    pub fn label(self) -> &'static str {
        match self {
            Baseline::MoleculeBeta => "Molecule (beta)",
            Baseline::InflessLlama => "INFless/Llama",
            Baseline::NaiveSlicing => "Naive Slicing",
            Baseline::MigOnly => "MIG Only",
            Baseline::MpsMigEven => "MPS+MIG",
            Baseline::SmartMpsMig => "'Smart' MPS+MIG",
            Baseline::Gpulet => "GPUlet",
        }
    }
}

/// GPUlet's SM cap for strict requests (paper: "~60-65% upper bound").
const GPULET_STRICT_SM_CAP: f64 = 0.625;

/// Per-worker instance of a baseline scheme.
#[derive(Debug, Clone)]
pub struct BaselineScheme {
    kind: Baseline,
    /// Round-robin cursor for the even-split schemes.
    rr: usize,
}

fn fits(slice: &Slice, mem_gb: f64) -> bool {
    slice.mem_available_gb() + 1e-9 >= mem_gb
}

impl Scheme for BaselineScheme {
    fn name(&self) -> &'static str {
        self.kind.label()
    }

    fn initial_geometry(&self) -> Geometry {
        match self.kind {
            Baseline::MoleculeBeta | Baseline::InflessLlama | Baseline::Gpulet => Geometry::full(),
            Baseline::MigOnly | Baseline::MpsMigEven | Baseline::SmartMpsMig => Geometry::g4_g3(),
            Baseline::NaiveSlicing => Geometry::g4_g2_g1(),
        }
    }

    fn sharing_mode(&self) -> SharingMode {
        match self.kind {
            Baseline::MoleculeBeta | Baseline::MigOnly => SharingMode::TimeShared,
            _ => SharingMode::Mps,
        }
    }

    fn reorders(&self) -> bool {
        // GPUlet explicitly prioritises SLO-bearing requests; the §2.2
        // straw man isolates strict requests by construction. The other
        // baselines serve FIFO, as characterised in §5.
        matches!(self.kind, Baseline::Gpulet | Baseline::SmartMpsMig)
    }

    fn place(&mut self, ctx: &PlacementCtx<'_>, batch: &BatchView) -> Option<Placement> {
        let slices = ctx.gpu.slices();
        let mem = batch.model.profile().mem_gb;
        match self.kind {
            Baseline::MoleculeBeta => {
                // One batch at a time on the whole GPU.
                (slices[0].is_idle() && fits(&slices[0], mem)).then(|| Placement::on_slice(0))
            }
            Baseline::InflessLlama => {
                // Consolidate everything on the full GPU under MPS.
                fits(&slices[0], mem).then(|| Placement::on_slice(0))
            }
            Baseline::MigOnly => {
                // Time-shared slices: any idle slice with room, spread
                // round-robin.
                let n = slices.len();
                for k in 0..n {
                    let i = (self.rr + k) % n;
                    if slices[i].is_idle() && fits(&slices[i], mem) {
                        self.rr = (i + 1) % n;
                        return Some(Placement::on_slice(i));
                    }
                }
                None
            }
            Baseline::MpsMigEven => {
                // Even split across slices via round-robin.
                let n = slices.len();
                for k in 0..n {
                    let i = (self.rr + k) % n;
                    if fits(&slices[i], mem) {
                        self.rr = (i + 1) % n;
                        return Some(Placement::on_slice(i));
                    }
                }
                None
            }
            Baseline::SmartMpsMig => {
                // Strict on the largest slice, best-effort on the other;
                // fall back to any slice with room rather than stall.
                let preferred = if batch.strict { 0 } else { slices.len() - 1 };
                if fits(&slices[preferred], mem) {
                    return Some(Placement::on_slice(preferred));
                }
                (0..slices.len())
                    .find(|&i| fits(&slices[i], mem))
                    .map(Placement::on_slice)
            }
            Baseline::NaiveSlicing => {
                // Load-balance by slice memory: the fitting slice with
                // the lowest occupancy ratio.
                let mut best: Option<(f64, usize)> = None;
                for (i, s) in slices.iter().enumerate() {
                    if !fits(s, mem) {
                        continue;
                    }
                    let ratio = s.mem_used_gb() / s.profile().mem_gb();
                    if best.is_none_or(|(r, _)| ratio < r) {
                        best = Some((ratio, i));
                    }
                }
                best.map(|(_, i)| Placement::on_slice(i))
            }
            Baseline::Gpulet => {
                // MPS with SM caps: the cap slows the job's compute
                // (Amdahl on the capped SM fraction) but does NOT
                // partition cache or memory bandwidth (§6.2) — the job
                // still moves the same bytes, just over a longer run,
                // so its bandwidth *rate* only drops by the stretch.
                if !fits(&slices[0], mem) {
                    return None;
                }
                let cap = if batch.strict {
                    GPULET_STRICT_SM_CAP
                } else {
                    1.0 - GPULET_STRICT_SM_CAP
                };
                let beta = batch.model.profile().deficiency_beta;
                let solo_scale = 1.0 / (1.0 - beta * (1.0 - cap));
                Some(Placement {
                    slice: 0,
                    fbr_scale: 1.0 / solo_scale,
                    solo_scale,
                })
            }
        }
    }
}

impl SchemeBuilder for Baseline {
    fn build(&self, _worker: usize) -> Box<dyn Scheme> {
        Box::new(BaselineScheme { kind: *self, rr: 0 })
    }

    fn name(&self) -> &'static str {
        self.label()
    }

    fn dispatch_policy(&self) -> DispatchPolicy {
        match self {
            // INFless/Llama maximise utilization by packing batches onto
            // as few GPUs as possible (§1: "consolidate excessive
            // workload batches on individual GPUs") with deep backlogs.
            Baseline::InflessLlama => DispatchPolicy::Consolidate { cap_batches: 10 },
            // GPUlet also packs (its gpu-let abstraction minimises the
            // GPUs used) but sizes allocations from profiled latency,
            // so it stops packing much earlier.
            Baseline::Gpulet => DispatchPolicy::Consolidate { cap_batches: 3 },
            _ => DispatchPolicy::LoadBalance,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protean_gpu::{Gpu, GpuId, JobId, JobSpec};
    use protean_models::ModelId;
    use protean_sim::{SimDuration, SimTime};

    fn ctx_for(gpu: &Gpu) -> PlacementCtx<'_> {
        PlacementCtx {
            now: SimTime::ZERO,
            gpu,
            queued_be_mem_gb: 0.0,
        }
    }

    fn view(model: ModelId, strict: bool) -> BatchView {
        BatchView {
            model,
            strict,
            size: 128,
        }
    }

    fn gpu_for(b: Baseline) -> Gpu {
        let s = b.build(0);
        Gpu::new(
            GpuId(0),
            s.initial_geometry(),
            s.sharing_mode(),
            SimTime::ZERO,
        )
    }

    fn occupy(gpu: &mut Gpu, slice: usize, id: u64, mem: f64) {
        gpu.slice_mut(slice)
            .admit(
                SimTime::ZERO,
                JobSpec {
                    id: JobId(id),
                    solo: SimDuration::from_millis(100.0),
                    fbr: 0.2,
                    mem_gb: mem,
                },
            )
            .unwrap();
    }

    #[test]
    fn molecule_runs_one_batch_at_a_time() {
        let mut gpu = gpu_for(Baseline::MoleculeBeta);
        let mut s = Baseline::MoleculeBeta.build(0);
        let ctx = ctx_for(&gpu);
        assert_eq!(
            s.place(&ctx, &view(ModelId::ResNet50, true))
                .map(|p| p.slice),
            Some(0)
        );
        occupy(&mut gpu, 0, 1, 6.0);
        let ctx = ctx_for(&gpu);
        assert!(s.place(&ctx, &view(ModelId::ResNet50, true)).is_none());
    }

    #[test]
    fn infless_consolidates_until_memory_runs_out() {
        let mut gpu = gpu_for(Baseline::InflessLlama);
        let mut s = Baseline::InflessLlama.build(0);
        // 6 ResNet batches (6 GB each) fit in 40 GB; the 7th does not.
        for i in 0..6 {
            let ctx = ctx_for(&gpu);
            assert!(s
                .place(&ctx, &view(ModelId::ResNet50, i % 2 == 0))
                .is_some());
            occupy(&mut gpu, 0, i, 6.0);
        }
        let ctx = ctx_for(&gpu);
        assert!(s.place(&ctx, &view(ModelId::ResNet50, true)).is_none());
    }

    #[test]
    fn mig_only_requires_idle_slice() {
        let mut gpu = gpu_for(Baseline::MigOnly);
        let mut s = Baseline::MigOnly.build(0);
        let first = s
            .place(&ctx_for(&gpu), &view(ModelId::MobileNet, true))
            .unwrap()
            .slice;
        occupy(&mut gpu, first, 1, 2.0);
        let second = s
            .place(&ctx_for(&gpu), &view(ModelId::MobileNet, true))
            .unwrap()
            .slice;
        assert_ne!(first, second, "round-robin should move to the idle slice");
        occupy(&mut gpu, second, 2, 2.0);
        assert!(s
            .place(&ctx_for(&gpu), &view(ModelId::MobileNet, true))
            .is_none());
    }

    #[test]
    fn mps_mig_even_round_robins() {
        let gpu = gpu_for(Baseline::MpsMigEven);
        let mut s = Baseline::MpsMigEven.build(0);
        let a = s
            .place(&ctx_for(&gpu), &view(ModelId::MobileNet, true))
            .unwrap()
            .slice;
        let b = s
            .place(&ctx_for(&gpu), &view(ModelId::MobileNet, false))
            .unwrap()
            .slice;
        assert_ne!(a, b);
    }

    #[test]
    fn smart_straw_man_isolates_classes() {
        let gpu = gpu_for(Baseline::SmartMpsMig);
        let mut s = Baseline::SmartMpsMig.build(0);
        let strict = s
            .place(&ctx_for(&gpu), &view(ModelId::ResNet50, true))
            .unwrap()
            .slice;
        let be = s
            .place(&ctx_for(&gpu), &view(ModelId::MobileNet, false))
            .unwrap()
            .slice;
        assert_eq!(strict, 0, "strict takes the 4g");
        assert_eq!(be, 1, "BE takes the 3g");
    }

    #[test]
    fn naive_slicing_balances_by_memory_ratio() {
        let mut gpu = gpu_for(Baseline::NaiveSlicing);
        let mut s = Baseline::NaiveSlicing.build(0);
        // Occupy the 4g to 50%: next ShuffleNet (2.5 GB) should go to an
        // emptier slice.
        occupy(&mut gpu, 0, 1, 10.0);
        let p = s
            .place(&ctx_for(&gpu), &view(ModelId::ShuffleNetV2, true))
            .unwrap()
            .slice;
        assert_ne!(p, 0);
        // DPN 92 (13.7 GB) no longer fits anywhere: 4g has 10 GB free.
        assert!(s
            .place(&ctx_for(&gpu), &view(ModelId::Dpn92, true))
            .is_none());
    }

    #[test]
    fn gpulet_caps_scale_fbr_and_solo() {
        let gpu = gpu_for(Baseline::Gpulet);
        let mut s = Baseline::Gpulet.build(0);
        let strict = s
            .place(&ctx_for(&gpu), &view(ModelId::ResNet50, true))
            .unwrap();
        assert!(strict.solo_scale > 1.0, "capped SMs must slow the job");
        // Bandwidth rate drops only by the compute stretch (bandwidth
        // itself is not partitioned by SM caps).
        assert!((strict.fbr_scale - 1.0 / strict.solo_scale).abs() < 1e-12);
        let be = s
            .place(&ctx_for(&gpu), &view(ModelId::MobileNet, false))
            .unwrap();
        // The BE cap (37.5% of SMs) stretches BE jobs more than the
        // strict cap stretches strict jobs of the same sensitivity.
        assert!(be.solo_scale > 1.0);
    }

    #[test]
    fn labels_match_figures() {
        assert_eq!(Baseline::MoleculeBeta.label(), "Molecule (beta)");
        assert_eq!(Baseline::InflessLlama.label(), "INFless/Llama");
        assert_eq!(Baseline::SmartMpsMig.label(), "'Smart' MPS+MIG");
        assert_eq!(Baseline::ALL.len(), 7);
        assert_eq!(Baseline::PRIMARY.len(), 3);
    }

    #[test]
    fn sharing_modes_match_characterisation() {
        use protean_gpu::SharingMode::*;
        let mode = |b: Baseline| b.build(0).sharing_mode();
        assert_eq!(mode(Baseline::MoleculeBeta), TimeShared);
        assert_eq!(mode(Baseline::MigOnly), TimeShared);
        assert_eq!(mode(Baseline::InflessLlama), Mps);
        assert_eq!(mode(Baseline::Gpulet), Mps);
    }
}
