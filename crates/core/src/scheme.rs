//! PROTEAN as a pluggable [`Scheme`] for the cluster substrate.

use std::sync::Arc;

use protean_cluster::engine::MONITOR_INTERVAL;
use protean_cluster::{BatchView, Placement, PlacementCtx, ReconfigCtx, Scheme, SchemeBuilder};
use protean_gpu::{Geometry, SharingMode};
use protean_models::ModelId;

use crate::distribution::{choose_best_effort_slice, choose_strict_slice, tag_slices};
use crate::reconfigurator::{Reconfigurator, ReconfiguratorConfig};

/// Configuration of the PROTEAN scheme, including the switches the
/// `ablations` row of `protean_experiments::paper` flips. Every
/// instance starts on the paper's `(4g, 2g, 1g)` geometry (Fig. 7).
#[derive(Debug, Clone, PartialEq)]
pub struct ProteanConfig {
    /// Display name ("PROTEAN", "Oracle", ablation labels).
    pub name: &'static str,
    /// Algorithm 2 tunables.
    pub reconfigurator: ReconfiguratorConfig,
    /// Serve strict batches before best-effort ones (§4.1). Ablation:
    /// set `false` for FIFO.
    pub reorder: bool,
    /// Run Algorithm 2 at all. Ablation: set `false` to pin the initial
    /// geometry.
    pub dynamic_reconfig: bool,
    /// Use the Eq. 2 η to pick strict slices. Ablation: set `false` to
    /// always take the largest slice with room.
    pub eta_placement: bool,
    /// §6.2 future-work extension: when the workload is (almost)
    /// entirely best-effort, stop packing BE batches onto the smallest
    /// slices (whose point is to protect strict requests that are not
    /// there) and place them by minimum η instead, trading a little
    /// median latency for a much better tail. Off by default — the
    /// paper's PROTEAN always packs.
    pub be_tail_aware: bool,
}

impl ProteanConfig {
    /// The paper's PROTEAN configuration.
    pub fn paper() -> Self {
        ProteanConfig {
            name: "PROTEAN",
            reconfigurator: ReconfiguratorConfig::default(),
            reorder: true,
            dynamic_reconfig: true,
            eta_placement: true,
            be_tail_aware: false,
        }
    }

    /// The `Oracle` comparison scheme (§6.2, Fig. 17): PROTEAN with
    /// perfect short-horizon prediction (`α = 1`) and no reconfiguration
    /// hesitation (`wait_limit = 0`). The Fig. 17 experiment pairs this
    /// with a zero reconfiguration delay in the cluster config.
    pub fn oracle() -> Self {
        ProteanConfig {
            name: "Oracle",
            reconfigurator: ReconfiguratorConfig {
                ewma_alpha: 1.0,
                wait_limit: 0,
            },
            ..ProteanConfig::paper()
        }
    }
}

/// One worker's PROTEAN scheduler instance.
///
/// Every instance a [`ProteanBuilder`] makes shares one configuration;
/// an instance holds only its own state.
#[derive(Debug, Clone)]
pub struct Protean {
    config: Arc<ProteanConfig>,
    reconfigurator: Reconfigurator,
    /// FBR of the most recent best-effort model, used to cost
    /// tagged-but-unplaced BE load in η.
    be_fbr_hint: f64,
    /// Strict share of the last monitor window's arrivals (drives the
    /// `be_tail_aware` extension).
    window_strict_share: f64,
}

impl Protean {
    /// Creates an instance from `config`.
    pub fn new(config: ProteanConfig) -> Self {
        Protean::sharing(Arc::new(config))
    }

    fn sharing(config: Arc<ProteanConfig>) -> Self {
        Protean {
            reconfigurator: Reconfigurator::new(&config.reconfigurator),
            config,
            be_fbr_hint: 0.0,
            // Assume a strict-bearing mix until told otherwise.
            window_strict_share: 1.0,
        }
    }
}

impl Scheme for Protean {
    fn name(&self) -> &'static str {
        self.config.name
    }

    fn initial_geometry(&self) -> Geometry {
        Geometry::g4_g2_g1()
    }

    fn sharing_mode(&self) -> SharingMode {
        SharingMode::Mps
    }

    fn reorders(&self) -> bool {
        self.config.reorder
    }

    fn place(&mut self, ctx: &PlacementCtx<'_>, batch: &BatchView) -> Option<Placement> {
        let slices = ctx.gpu.slices();
        let profile = batch.model.profile();
        if batch.strict {
            let tags = tag_slices(slices, ctx.queued_be_mem_gb);
            let tags = &tags[..slices.len()];
            let slice = if self.config.eta_placement {
                choose_strict_slice(slices, tags, profile, self.be_fbr_hint)?
            } else {
                // Ablation: largest slice with room, ignoring η.
                slices
                    .iter()
                    .position(|s| s.mem_available_gb() + 1e-9 >= profile.mem_gb)?
            };
            Some(Placement::on_slice(slice))
        } else if self.config.be_tail_aware && self.window_strict_share < 0.05 {
            // Future-work mode: no strict traffic to protect, so place
            // BE by minimum η instead of packing it into a corner.
            let untagged = [0.0; Geometry::MAX_SLICES];
            choose_strict_slice(slices, &untagged[..slices.len()], profile, 0.0)
                .or_else(|| choose_best_effort_slice(slices, profile))
                .map(Placement::on_slice)
        } else {
            choose_best_effort_slice(slices, profile).map(Placement::on_slice)
        }
    }

    fn reconfigure(&mut self, ctx: &ReconfigCtx<'_>) -> Option<Geometry> {
        let be_profile = ctx.be_model.map(ModelId::profile);
        if let Some(p) = be_profile {
            self.be_fbr_hint = p.fbr;
        }
        let total = ctx.window_strict_requests + ctx.window_be_requests;
        if total > 0 {
            self.window_strict_share = ctx.window_strict_requests as f64 / total as f64;
        }
        if !self.config.dynamic_reconfig {
            return None;
        }
        // The engine calls this once per monitor interval, which turns
        // the window's request count into a rate.
        self.reconfigurator.step(
            &self.config.reconfigurator,
            ctx.gpu.geometry(),
            ctx.window_be_requests,
            MONITOR_INTERVAL.as_secs_f64(),
            be_profile,
        )
    }
}

/// Builds one [`Protean`] per worker, all sharing one configuration.
#[derive(Debug, Clone)]
pub struct ProteanBuilder {
    config: Arc<ProteanConfig>,
}

impl ProteanBuilder {
    /// The paper configuration.
    pub fn paper() -> Self {
        ProteanBuilder::with_config(ProteanConfig::paper())
    }

    /// The Oracle comparison configuration.
    pub fn oracle() -> Self {
        ProteanBuilder::with_config(ProteanConfig::oracle())
    }

    /// PROTEAN plus the §6.2 future-work extension (tail-aware
    /// best-effort placement when no strict traffic is present).
    pub fn tail_aware() -> Self {
        let mut config = ProteanConfig::paper();
        config.name = "PROTEAN+BE-tail";
        config.be_tail_aware = true;
        ProteanBuilder::with_config(config)
    }

    /// A builder from a custom configuration.
    pub fn with_config(config: ProteanConfig) -> Self {
        ProteanBuilder {
            config: Arc::new(config),
        }
    }
}

impl SchemeBuilder for ProteanBuilder {
    fn build(&self, _worker: usize) -> Box<dyn Scheme> {
        Box::new(Protean::sharing(Arc::clone(&self.config)))
    }

    fn name(&self) -> &'static str {
        self.config.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protean_cluster::{simulate, Arrivals, ClusterConfig, Observe};
    use protean_metrics::record::Class;
    use protean_models::ModelId;
    use protean_sim::SimDuration;
    use protean_trace::{TraceConfig, TraceShape};

    fn trace(rps: f64, secs: f64) -> TraceConfig {
        TraceConfig {
            shape: TraceShape::constant(rps),
            duration: SimDuration::from_secs(secs),
            strict_model: ModelId::ResNet50,
            strict_fraction: 0.5,
            be_pool: vec![ModelId::MobileNet, ModelId::ShuffleNetV2],
            be_rotation_period: SimDuration::from_secs(20.0),
            batch_arrivals: false,
        }
    }

    #[test]
    fn protean_serves_mixed_load_compliantly() {
        let config = ClusterConfig::small_test();
        let result = simulate(
            &config,
            &ProteanBuilder::paper(),
            Arrivals::Generate(&trace(600.0, 45.0)),
            None,
            Observe::default(),
        );
        let slo = |m: ModelId| m.profile().slo();
        let compliance = result.metrics.slo_compliance(&slo);
        assert!(compliance > 0.95, "compliance {compliance}");
        assert_eq!(result.scheme, "PROTEAN");
        assert!(result.metrics.count(Class::BestEffort) > 0);
    }

    #[test]
    fn strict_batches_avoid_the_smallest_slice_under_be_load() {
        // Direct unit check on place(): with BE memory queued, a strict
        // ResNet 50 batch must not land on the 1g (it does not even fit),
        // and with the 4g free it should pick the 4g.
        use protean_gpu::{Gpu, GpuId, SharingMode};
        use protean_sim::SimTime;
        let gpu = Gpu::new(
            GpuId(0),
            Geometry::g4_g2_g1(),
            SharingMode::Mps,
            SimTime::ZERO,
        );
        let mut scheme = Protean::new(ProteanConfig::paper());
        let ctx = PlacementCtx {
            now: SimTime::ZERO,
            gpu: &gpu,
            queued_be_mem_gb: 4.0,
        };
        let placement = scheme
            .place(
                &ctx,
                &BatchView {
                    model: ModelId::ResNet50,
                    strict: true,
                    size: 128,
                },
            )
            .unwrap();
        assert_eq!(placement.slice, 0, "strict should take the 4g");
        // A BE MobileNet batch packs onto the smallest slice.
        let be = scheme
            .place(
                &ctx,
                &BatchView {
                    model: ModelId::MobileNet,
                    strict: false,
                    size: 128,
                },
            )
            .unwrap();
        assert_eq!(be.slice, 2, "BE should pack onto the 1g");
    }

    #[test]
    fn dynamic_reconfiguration_happens_under_shifting_be_load() {
        let mut config = ClusterConfig::small_test();
        config.seed = 7;
        // DPN 92 as BE (13.7 GB) forces (4g, 3g); MobileNet allows
        // (4g, 2g, 1g). Rotating between them triggers Algorithm 2.
        let t = TraceConfig {
            shape: TraceShape::constant(800.0),
            duration: SimDuration::from_secs(60.0),
            strict_model: ModelId::ShuffleNetV2,
            strict_fraction: 0.5,
            be_pool: vec![ModelId::Dpn92, ModelId::MobileNet],
            be_rotation_period: SimDuration::from_secs(10.0),
            batch_arrivals: true,
        };
        let result = simulate(
            &config,
            &ProteanBuilder::paper(),
            Arrivals::Generate(&t),
            None,
            Observe::default(),
        );
        assert!(
            result.reconfigs > 0,
            "expected at least one reconfiguration"
        );
        assert!(!result.geometry_timeline.is_empty());
    }

    #[test]
    fn oracle_config_fires_immediately() {
        let c = ProteanConfig::oracle();
        assert_eq!(c.reconfigurator.wait_limit, 0);
        assert_eq!(c.reconfigurator.ewma_alpha, 1.0);
        assert_eq!(c.name, "Oracle");
    }
}
