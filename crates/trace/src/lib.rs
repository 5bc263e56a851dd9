//! Request-trace generation matching the paper's workload setup (§5).
//!
//! The paper drives its cluster with two real traces, scaled:
//!
//! * the **Wikipedia** trace — diurnal and very flat (peak:mean ≈
//!   316:303 ≈ 1.04) — scaled so the *mean* rate is ~5000 rps for the
//!   vision models (128 rps for language models);
//! * the **Twitter** trace — erratic, with a large peak-to-mean ratio
//!   (4561:2969 ≈ 1.54) — scaled so the *peak* is ~5000 rps.
//!
//! Neither archived dataset is available here, so this crate generates
//! synthetic traces with the same published statistics: a smooth
//! sinusoidal "diurnal" profile for Wiki, and a bursty piecewise profile
//! for Twitter, both realised as non-homogeneous Poisson arrivals.
//! Requests are annotated strict/best-effort at a configurable ratio
//! (default 50/50); strict requests target a fixed model while the BE
//! model is re-rolled from a pool every ~20 s (§5).
//!
//! # Example
//!
//! ```
//! use protean_trace::{TraceConfig, TraceShape};
//! use protean_models::ModelId;
//! use protean_sim::{RngFactory, SimDuration};
//!
//! let cfg = TraceConfig {
//!     shape: TraceShape::constant(100.0),
//!     duration: SimDuration::from_secs(10.0),
//!     strict_model: ModelId::ResNet50,
//!     strict_fraction: 0.5,
//!     be_pool: vec![ModelId::MobileNet],
//!     be_rotation_period: SimDuration::from_secs(20.0),
//!     batch_arrivals: false,
//! };
//! let trace = cfg.generate(&RngFactory::new(1));
//! assert!(!trace.requests().is_empty());
//! let stats = trace.stats();
//! assert!((stats.mean_rps - 100.0).abs() < 15.0);
//! ```

pub mod io;

use protean_models::{catalog, ModelId};
use protean_sim::{RngFactory, SimDuration, SimRng, SimTime};

/// Identifier of a single user request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

/// One user request as it arrives at the gateway.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Unique id, increasing with arrival order.
    pub id: RequestId,
    /// Arrival instant at the gateway.
    pub arrival: SimTime,
    /// The inference model this request invokes.
    pub model: ModelId,
    /// `true` for strict-SLO requests; `false` for best-effort (§5:
    /// strictness is user-annotated).
    pub strict: bool,
}

/// The arrival-rate profile of a trace.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceShape {
    /// Constant rate (used in the §2.2 motivational experiment).
    Constant {
        /// Requests per second.
        rps: f64,
    },
    /// Wiki-like diurnal profile: a gentle sinusoid around the mean.
    WikiDiurnal {
        /// Mean requests per second (the paper scales this to ~5000).
        mean_rps: f64,
        /// Peak-to-mean ratio (paper: 316/303 ≈ 1.043).
        peak_to_mean: f64,
        /// Length of one "day" in simulated time. Compressed so a short
        /// simulation sees the diurnal swing.
        period: SimDuration,
    },
    /// Twitter-like erratic profile: piecewise-constant random bursts.
    TwitterBursty {
        /// Peak requests per second (the paper scales this to ~5000).
        peak_rps: f64,
        /// Peak-to-mean ratio (paper: 4561/2969 ≈ 1.536).
        peak_to_mean: f64,
        /// Duration of each burst segment.
        segment: SimDuration,
    },
    /// Square-wave pulse: `high_rps` for the ON fraction of each
    /// period, `low_rps` for the rest. An ON level above fleet capacity
    /// builds a backlog whose OFF-phase drain is pure event processing
    /// with no interleaved arrivals — the admission-control stress
    /// regime, where drain-side work dominates.
    Pulse {
        /// Requests per second during the ON fraction.
        high_rps: f64,
        /// Requests per second during the OFF fraction (may be 0).
        low_rps: f64,
        /// Length of one ON+OFF cycle.
        period: SimDuration,
        /// ON fraction of each period, in `(0, 1]`.
        duty: f64,
    },
    /// A base profile with flash-crowd bursts superimposed: λ(t) is the
    /// base shape's rate plus the sum of every burst window covering
    /// `t`. This is the diurnal-plus-flash-crowd composition the
    /// adversarial scenario catalog drives (wiki base, pulse-like burst
    /// windows), realised as one non-homogeneous Poisson process so the
    /// burst arrivals interleave with — rather than replace — the base
    /// traffic.
    Overlay {
        /// The underlying profile the bursts ride on.
        base: Box<TraceShape>,
        /// Burst windows, additive and allowed to overlap.
        bursts: Vec<BurstWindow>,
    },
}

/// One additive flash-crowd burst window of [`TraceShape::Overlay`].
#[derive(Debug, Clone, PartialEq)]
pub struct BurstWindow {
    /// Burst onset.
    pub start: SimTime,
    /// Burst length.
    pub duration: SimDuration,
    /// Extra arrival rate, added to the base profile while the window
    /// is active (requests per second, must be positive).
    pub add_rps: f64,
}

impl TraceShape {
    /// A constant-rate profile.
    pub fn constant(rps: f64) -> Self {
        TraceShape::Constant { rps }
    }

    /// The Wiki profile at the paper's published peak-to-mean ratio,
    /// with a 300 s compressed "day".
    pub fn wiki(mean_rps: f64) -> Self {
        TraceShape::WikiDiurnal {
            mean_rps,
            peak_to_mean: 316.0 / 303.0,
            period: SimDuration::from_secs(300.0),
        }
    }

    /// The Twitter profile at the paper's published peak-to-mean ratio,
    /// with 5 s burst segments.
    pub fn twitter(peak_rps: f64) -> Self {
        TraceShape::TwitterBursty {
            peak_rps,
            peak_to_mean: 4561.0 / 2969.0,
            segment: SimDuration::from_secs(5.0),
        }
    }

    /// A half-duty square wave: `high_rps` for the first half of each
    /// `period`, silent for the second half.
    pub fn pulse(high_rps: f64, period: SimDuration) -> Self {
        TraceShape::Pulse {
            high_rps,
            low_rps: 0.0,
            period,
            duty: 0.5,
        }
    }

    /// `base` with `bursts` superimposed (see [`TraceShape::Overlay`]).
    pub fn overlay(base: TraceShape, bursts: Vec<BurstWindow>) -> Self {
        TraceShape::Overlay {
            base: Box::new(base),
            bursts,
        }
    }
}

/// Full description of a trace to generate.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// The arrival-rate profile (in requests per second).
    pub shape: TraceShape,
    /// Trace length.
    pub duration: SimDuration,
    /// The model strict requests invoke.
    pub strict_model: ModelId,
    /// Fraction of requests that are strict (paper default 0.5; the
    /// sensitivity study uses 0.75, 0.25, 1.0 and 0.0).
    pub strict_fraction: f64,
    /// Models the BE requests rotate through (ignored when
    /// `strict_fraction == 1.0`). May be empty only in that case.
    pub be_pool: Vec<ModelId>,
    /// How often the BE model is re-rolled (§5: every ~20 s).
    pub be_rotation_period: SimDuration,
    /// When `true` (the paper's setup), requests arrive as pre-formed
    /// workload *batches*: the arrival process runs at
    /// `rate / batch_size` and each arrival carries a full batch of
    /// same-class, same-model requests. The paper's rates and batch
    /// sizes (e.g. 500 rps at batch 128) only admit its SLOs under this
    /// reading — assembling 128 singles online would exceed the SLO
    /// before execution even starts.
    pub batch_arrivals: bool,
}

impl TraceConfig {
    /// Generates the trace deterministically from `factory`.
    ///
    /// # Panics
    ///
    /// Panics if `strict_fraction` is outside `[0, 1]`, or if the BE pool
    /// is empty while BE requests can occur.
    pub fn generate(&self, factory: &RngFactory) -> Trace {
        assert!(
            (0.0..=1.0).contains(&self.strict_fraction),
            "strict fraction {} out of range",
            self.strict_fraction
        );
        assert!(
            self.strict_fraction >= 1.0 || !self.be_pool.is_empty(),
            "BE pool may not be empty when BE requests can occur"
        );
        let mut arrivals_rng = factory.stream("trace.arrivals");
        let mut class_rng = factory.stream("trace.class");
        let mut rotation_rng = factory.stream("trace.rotation");
        let mut shape_rng = factory.stream("trace.shape");

        let batch_size = if self.batch_arrivals {
            catalog().profile(self.strict_model).batch_size.max(1)
        } else {
            1
        };
        let rate = RateProfile::new(&self.shape, self.duration, &mut shape_rng);
        let arrival_times = poisson_arrivals(
            &rate,
            self.duration,
            f64::from(batch_size),
            &mut arrivals_rng,
        );

        // Pre-roll the BE model schedule so it is independent of the
        // arrival count.
        let rotation_period = self.be_rotation_period;
        let rotations = (self.duration.as_micros() / rotation_period.as_micros().max(1)) + 1;
        let be_schedule: Vec<ModelId> = (0..rotations)
            .map(|_| {
                if self.be_pool.is_empty() {
                    self.strict_model
                } else {
                    *rotation_rng.choose(&self.be_pool)
                }
            })
            .collect();

        let mut requests = Vec::with_capacity(arrival_times.len() * batch_size as usize);
        let mut next_id = 0u64;
        for arrival in arrival_times {
            let strict = class_rng.chance(self.strict_fraction);
            let model = if strict {
                self.strict_model
            } else {
                let slot = (arrival.as_micros() / rotation_period.as_micros().max(1)) as usize;
                be_schedule[slot.min(be_schedule.len() - 1)]
            };
            for _ in 0..batch_size {
                requests.push(Request {
                    id: RequestId(next_id),
                    arrival,
                    model,
                    strict,
                });
                next_id += 1;
            }
        }
        Trace {
            requests,
            duration: self.duration,
        }
    }

    /// A lazily-generated view of the same trace: [`TraceStream`]
    /// yields exactly the `Request` sequence [`TraceConfig::generate`]
    /// materializes — bit-identical ids, arrivals, models and classes —
    /// while holding O(duration / rotation_period) state instead of
    /// O(requests). See the [`TraceStream`] docs for why the sequences
    /// cannot drift.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`TraceConfig::generate`].
    pub fn stream(&self, factory: &RngFactory) -> TraceStream {
        assert!(
            (0.0..=1.0).contains(&self.strict_fraction),
            "strict fraction {} out of range",
            self.strict_fraction
        );
        assert!(
            self.strict_fraction >= 1.0 || !self.be_pool.is_empty(),
            "BE pool may not be empty when BE requests can occur"
        );
        let arrivals_rng = factory.stream("trace.arrivals");
        let class_rng = factory.stream("trace.class");
        let mut rotation_rng = factory.stream("trace.rotation");
        let mut shape_rng = factory.stream("trace.shape");

        let batch_size = if self.batch_arrivals {
            catalog().profile(self.strict_model).batch_size.max(1)
        } else {
            1
        };
        let rate = RateProfile::new(&self.shape, self.duration, &mut shape_rng);
        let rotation_period_us = self.be_rotation_period.as_micros().max(1);
        let rotations = (self.duration.as_micros() / rotation_period_us) + 1;
        let be_schedule: Vec<ModelId> = (0..rotations)
            .map(|_| {
                if self.be_pool.is_empty() {
                    self.strict_model
                } else {
                    *rotation_rng.choose(&self.be_pool)
                }
            })
            .collect();
        let per_arrival = f64::from(batch_size);
        let lambda_max = rate.max_rate / per_arrival;
        TraceStream {
            arrivals_rng,
            class_rng,
            rate,
            be_schedule,
            strict_model: self.strict_model,
            strict_fraction: self.strict_fraction,
            rotation_period_us,
            batch_size,
            per_arrival,
            lambda_max,
            horizon_secs: self.duration.as_secs_f64(),
            duration: self.duration,
            t: 0.0,
            next_id: 0,
            pending: None,
            emitted_in_batch: 0,
        }
    }
}

/// A generator-backed request stream: the streaming twin of
/// [`TraceConfig::generate`].
///
/// The equivalence argument rests on the RNG architecture: generation
/// draws from four *independent* labeled streams ("trace.arrivals",
/// "trace.class", "trace.rotation", "trace.shape"), so interleaving
/// class draws between arrival draws — which the lazy path does and
/// the materialized path does not — cannot change any stream's
/// per-draw sequence. The shape profile and the BE rotation schedule
/// are still built eagerly (they are O(duration / segment) and
/// O(duration / rotation_period), independent of the request count);
/// only the Poisson thinning loop, which dominates memory at fleet
/// scale, runs lazily. The `trace_stream_*` proptests pin
/// element-for-element equality with `generate`, and the engine-level
/// golden tests pin digest equality of full simulations.
#[derive(Debug, Clone)]
pub struct TraceStream {
    arrivals_rng: SimRng,
    class_rng: SimRng,
    rate: RateProfile,
    be_schedule: Vec<ModelId>,
    strict_model: ModelId,
    strict_fraction: f64,
    rotation_period_us: u64,
    batch_size: u32,
    per_arrival: f64,
    lambda_max: f64,
    horizon_secs: f64,
    duration: SimDuration,
    /// Thinning-loop clock, in seconds.
    t: f64,
    next_id: u64,
    /// The accepted arrival currently being expanded into a batch.
    pending: Option<(SimTime, ModelId, bool)>,
    emitted_in_batch: u32,
}

impl TraceStream {
    /// The configured trace length.
    pub fn duration(&self) -> SimDuration {
        self.duration
    }

    /// Every model that can appear in this stream: the strict model
    /// (when strict requests can occur) plus every model the BE
    /// rotation schedule actually rolled (when BE requests can occur),
    /// deduplicated. Lets callers that need the distinct-model set —
    /// e.g. the engine's prewarm pass — bound their scan without
    /// walking the whole stream.
    pub fn model_universe(&self) -> Vec<ModelId> {
        let mut out = Vec::new();
        if self.strict_fraction > 0.0 {
            out.push(self.strict_model);
        }
        if self.strict_fraction < 1.0 {
            for &m in &self.be_schedule {
                if !out.contains(&m) {
                    out.push(m);
                }
            }
        }
        out
    }
}

impl Iterator for TraceStream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        loop {
            // Drain the batch the last accepted arrival carries.
            if let Some((arrival, model, strict)) = self.pending {
                if self.emitted_in_batch < self.batch_size {
                    self.emitted_in_batch += 1;
                    let id = RequestId(self.next_id);
                    self.next_id += 1;
                    return Some(Request {
                        id,
                        arrival,
                        model,
                        strict,
                    });
                }
                self.pending = None;
            }
            // Thin the homogeneous λ_max process down to λ(t) — the
            // identical draw sequence `poisson_arrivals` consumes.
            loop {
                self.t += self.arrivals_rng.exponential(self.lambda_max);
                if self.t >= self.horizon_secs {
                    return None;
                }
                if self.arrivals_rng.uniform() * self.lambda_max
                    < self.rate.rate_at(self.t) / self.per_arrival
                {
                    break;
                }
            }
            let arrival = SimTime::from_secs(self.t);
            let strict = self.class_rng.chance(self.strict_fraction);
            let model = if strict {
                self.strict_model
            } else {
                let slot = (arrival.as_micros() / self.rotation_period_us) as usize;
                self.be_schedule[slot.min(self.be_schedule.len() - 1)]
            };
            self.pending = Some((arrival, model, strict));
            self.emitted_in_batch = 0;
        }
    }
}

/// One-request lookahead over an arrival source, materialised or
/// streamed.
///
/// The cluster engine's event loop must see the next arrival instant
/// to order it against the queued events — without materialising a streamed
/// trace (a [`TraceStream`] generates arrivals lazily precisely so
/// fleet-scale runs never hold the request vector). `Lookahead` buffers
/// exactly one pending request: `peek_arrival` advances the underlying
/// source at most one element ahead of `next`, so iteration order, RNG
/// consumption and memory footprint are identical to driving the source
/// directly.
#[derive(Debug)]
pub struct Lookahead<I: Iterator<Item = Request>> {
    inner: I,
    buffered: Option<Request>,
}

impl<I: Iterator<Item = Request>> Lookahead<I> {
    /// Wraps an arrival source.
    pub fn new(inner: I) -> Self {
        Lookahead {
            inner,
            buffered: None,
        }
    }

    /// The next request without consuming it.
    pub fn peek(&mut self) -> Option<&Request> {
        if self.buffered.is_none() {
            self.buffered = self.inner.next();
        }
        self.buffered.as_ref()
    }

    /// The next request's arrival instant without consuming it.
    pub fn peek_arrival(&mut self) -> Option<SimTime> {
        self.peek().map(|r| r.arrival)
    }
}

impl<I: Iterator<Item = Request>> Iterator for Lookahead<I> {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        self.buffered.take().or_else(|| self.inner.next())
    }
}

/// A generated trace: requests sorted by arrival time.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    requests: Vec<Request>,
    duration: SimDuration,
}

impl Trace {
    /// Builds a trace directly from parts (used by replay/import paths;
    /// requests must be sorted by arrival).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the requests are not sorted.
    pub fn from_parts(requests: Vec<Request>, duration: SimDuration) -> Trace {
        debug_assert!(
            requests.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "requests must be sorted by arrival"
        );
        Trace { requests, duration }
    }

    /// The requests in arrival order.
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// Consumes the trace, returning the request vector.
    pub fn into_requests(self) -> Vec<Request> {
        self.requests
    }

    /// The configured trace length.
    pub fn duration(&self) -> SimDuration {
        self.duration
    }

    /// Arrival-rate statistics over 1 s buckets.
    pub fn stats(&self) -> TraceStats {
        let secs = self.duration.as_secs_f64().ceil().max(1.0) as usize;
        let mut buckets = vec![0u64; secs];
        for r in &self.requests {
            let idx = (r.arrival.as_secs_f64().floor() as usize).min(secs - 1);
            buckets[idx] += 1;
        }
        let total = self.requests.len() as u64;
        let mean_rps = total as f64 / self.duration.as_secs_f64().max(1e-9);
        let peak_rps = buckets.iter().copied().max().unwrap_or(0) as f64;
        let strict = self.requests.iter().filter(|r| r.strict).count() as u64;
        TraceStats {
            total,
            strict,
            mean_rps,
            peak_rps,
        }
    }
}

/// Summary statistics of a generated trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceStats {
    /// Total requests.
    pub total: u64,
    /// Strict requests.
    pub strict: u64,
    /// Mean arrival rate over the trace.
    pub mean_rps: f64,
    /// Maximum 1 s-bucket arrival rate.
    pub peak_rps: f64,
}

impl TraceStats {
    /// Peak-to-mean ratio of the realised trace.
    pub fn peak_to_mean(&self) -> f64 {
        if self.mean_rps <= 0.0 {
            0.0
        } else {
            self.peak_rps / self.mean_rps
        }
    }
}

/// A piecewise view of λ(t) with a global maximum, suitable for Poisson
/// thinning.
#[derive(Debug, Clone)]
struct RateProfile {
    kind: RateKind,
    max_rate: f64,
}

#[derive(Debug, Clone)]
enum RateKind {
    Constant(f64),
    Sinusoid {
        mean: f64,
        amplitude: f64,
        period_secs: f64,
    },
    Segments {
        rates: Vec<f64>,
        segment_secs: f64,
    },
    Pulse {
        high: f64,
        low: f64,
        period_secs: f64,
        on_secs: f64,
    },
    Overlay {
        base: Box<RateProfile>,
        /// `(start_secs, end_secs, add_rps)` per burst window.
        bursts: Vec<(f64, f64, f64)>,
    },
}

impl RateProfile {
    fn new(shape: &TraceShape, duration: SimDuration, rng: &mut SimRng) -> Self {
        match shape {
            TraceShape::Constant { rps } => {
                assert!(*rps > 0.0, "rate must be positive");
                RateProfile {
                    kind: RateKind::Constant(*rps),
                    max_rate: *rps,
                }
            }
            TraceShape::WikiDiurnal {
                mean_rps,
                peak_to_mean,
                period,
            } => {
                assert!(*mean_rps > 0.0 && *peak_to_mean >= 1.0);
                let amplitude = peak_to_mean - 1.0;
                RateProfile {
                    kind: RateKind::Sinusoid {
                        mean: *mean_rps,
                        amplitude,
                        period_secs: period.as_secs_f64(),
                    },
                    max_rate: mean_rps * peak_to_mean,
                }
            }
            TraceShape::TwitterBursty {
                peak_rps,
                peak_to_mean,
                segment,
            } => {
                assert!(*peak_rps > 0.0 && *peak_to_mean >= 1.0);
                let n = (duration.as_secs_f64() / segment.as_secs_f64())
                    .ceil()
                    .max(1.0) as usize;
                // Draw raw burst multipliers, then normalise so the
                // realised max/mean matches the published ratio and the
                // max equals `peak_rps`.
                let raw: Vec<f64> = (0..n)
                    .map(|_| {
                        // Heavy-ish tail: occasional spikes over a calm base.
                        let base = rng.uniform_range(0.55, 0.95);
                        if rng.chance(0.12) {
                            base + rng.uniform_range(0.5, 1.2)
                        } else {
                            base
                        }
                    })
                    .collect();
                let raw_mean = raw.iter().sum::<f64>() / n as f64;
                let raw_max = raw.iter().cloned().fold(f64::MIN, f64::max);
                // Affine-map multipliers so max/mean == peak_to_mean.
                let target_ratio = *peak_to_mean;
                let ratio = raw_max / raw_mean;
                let rates: Vec<f64> = if n == 1 || ratio <= 1.0 {
                    vec![*peak_rps; n]
                } else {
                    // Solve (raw + c) scaled: (max+c)/(mean+c) = target.
                    let c = (raw_max - target_ratio * raw_mean) / (target_ratio - 1.0);
                    let shifted_max = raw_max + c;
                    raw.iter()
                        .map(|&x| ((x + c) / shifted_max * peak_rps).max(0.0))
                        .collect()
                };
                let max_rate = rates.iter().cloned().fold(0.0, f64::max);
                RateProfile {
                    kind: RateKind::Segments {
                        rates,
                        segment_secs: segment.as_secs_f64(),
                    },
                    max_rate,
                }
            }
            TraceShape::Pulse {
                high_rps,
                low_rps,
                period,
                duty,
            } => {
                assert!(*high_rps > 0.0, "pulse high rate must be positive");
                assert!(*low_rps >= 0.0, "pulse low rate may not be negative");
                assert!(
                    *duty > 0.0 && *duty <= 1.0,
                    "pulse duty {duty} outside (0, 1]"
                );
                let period_secs = period.as_secs_f64();
                assert!(period_secs > 0.0, "pulse period must be positive");
                RateProfile {
                    kind: RateKind::Pulse {
                        high: *high_rps,
                        low: *low_rps,
                        period_secs,
                        on_secs: period_secs * duty,
                    },
                    max_rate: high_rps.max(*low_rps),
                }
            }
            TraceShape::Overlay { base, bursts } => {
                let base = RateProfile::new(base, duration, rng);
                let windows: Vec<(f64, f64, f64)> = bursts
                    .iter()
                    .map(|b| {
                        assert!(b.add_rps > 0.0, "burst add_rps must be positive");
                        let start = b.start.as_secs_f64();
                        let len = b.duration.as_secs_f64();
                        assert!(len > 0.0, "burst duration must be positive");
                        (start, start + len, b.add_rps)
                    })
                    .collect();
                // λ_max = base max + the largest sum of simultaneously
                // active bursts (boundary sweep over window edges; the
                // thinning bound must dominate λ(t) everywhere).
                let mut edges: Vec<(f64, f64)> = Vec::with_capacity(windows.len() * 2);
                for &(s, e, add) in &windows {
                    edges.push((s, add));
                    edges.push((e, -add));
                }
                edges.sort_by(|a, b| a.partial_cmp(b).expect("finite burst edges"));
                let (mut active, mut peak_extra) = (0.0f64, 0.0f64);
                for (_, delta) in edges {
                    active += delta;
                    peak_extra = peak_extra.max(active);
                }
                let max_rate = base.max_rate + peak_extra;
                RateProfile {
                    kind: RateKind::Overlay {
                        base: Box::new(base),
                        bursts: windows,
                    },
                    max_rate,
                }
            }
        }
    }

    fn rate_at(&self, t_secs: f64) -> f64 {
        match &self.kind {
            RateKind::Constant(r) => *r,
            RateKind::Sinusoid {
                mean,
                amplitude,
                period_secs,
            } => {
                mean * (1.0 + amplitude * (2.0 * std::f64::consts::PI * t_secs / period_secs).sin())
            }
            RateKind::Segments {
                rates,
                segment_secs,
            } => {
                let idx = ((t_secs / segment_secs) as usize).min(rates.len() - 1);
                rates[idx]
            }
            RateKind::Pulse {
                high,
                low,
                period_secs,
                on_secs,
            } => {
                if t_secs.rem_euclid(*period_secs) < *on_secs {
                    *high
                } else {
                    *low
                }
            }
            RateKind::Overlay { base, bursts } => {
                let extra: f64 = bursts
                    .iter()
                    .filter(|(s, e, _)| (*s..*e).contains(&t_secs))
                    .map(|(_, _, add)| add)
                    .sum();
                base.rate_at(t_secs) + extra
            }
        }
    }
}

/// Non-homogeneous Poisson arrivals over `[0, duration)` by thinning.
/// `per_arrival` scales the rate down (batch arrivals carry
/// `batch_size` requests each).
fn poisson_arrivals(
    rate: &RateProfile,
    duration: SimDuration,
    per_arrival: f64,
    rng: &mut SimRng,
) -> Vec<SimTime> {
    let mut out = Vec::new();
    let horizon = duration.as_secs_f64();
    let lambda_max = rate.max_rate / per_arrival;
    let mut t = 0.0f64;
    loop {
        t += rng.exponential(lambda_max);
        if t >= horizon {
            break;
        }
        if rng.uniform() * lambda_max < rate.rate_at(t) / per_arrival {
            out.push(SimTime::from_secs(t));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn base_config(shape: TraceShape, secs: f64) -> TraceConfig {
        TraceConfig {
            shape,
            duration: SimDuration::from_secs(secs),
            strict_model: ModelId::ResNet50,
            strict_fraction: 0.5,
            be_pool: vec![ModelId::MobileNet, ModelId::ShuffleNetV2],
            be_rotation_period: SimDuration::from_secs(20.0),
            batch_arrivals: false,
        }
    }

    #[test]
    fn constant_trace_hits_target_rate() {
        let trace = base_config(TraceShape::constant(500.0), 60.0).generate(&RngFactory::new(7));
        let stats = trace.stats();
        assert!(
            (stats.mean_rps - 500.0).abs() < 25.0,
            "mean {}",
            stats.mean_rps
        );
    }

    #[test]
    fn arrivals_sorted_and_in_horizon() {
        let trace = base_config(TraceShape::constant(200.0), 30.0).generate(&RngFactory::new(3));
        let mut last = SimTime::ZERO;
        for r in trace.requests() {
            assert!(r.arrival >= last);
            assert!(r.arrival < SimTime::from_secs(30.0));
            last = r.arrival;
        }
    }

    #[test]
    fn lookahead_peek_is_transparent_over_a_stream() {
        let cfg = base_config(TraceShape::wiki(300.0), 10.0);
        let materialised = cfg.generate(&RngFactory::new(9)).into_requests();
        let mut ahead = Lookahead::new(cfg.stream(&RngFactory::new(9)));
        let mut seen = Vec::new();
        // Interleave peeks with consumption: peeking must never skip,
        // duplicate or reorder an element.
        while let Some(ta) = ahead.peek_arrival() {
            let r = ahead.next().expect("peeked");
            assert_eq!(r.arrival, ta);
            assert_eq!(ahead.peek().copied(), ahead.peek().copied());
            seen.push(r);
        }
        assert!(ahead.next().is_none());
        assert_eq!(seen, materialised);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = base_config(TraceShape::wiki(1000.0), 20.0);
        let a = cfg.generate(&RngFactory::new(11));
        let b = cfg.generate(&RngFactory::new(11));
        assert_eq!(a, b);
        let c = cfg.generate(&RngFactory::new(12));
        assert_ne!(a, c);
    }

    #[test]
    fn wiki_is_flat() {
        let trace = base_config(TraceShape::wiki(2000.0), 120.0).generate(&RngFactory::new(5));
        let stats = trace.stats();
        assert!(
            (stats.mean_rps - 2000.0).abs() < 100.0,
            "mean {}",
            stats.mean_rps
        );
        // Published ratio 1.043 plus Poisson noise.
        assert!(
            stats.peak_to_mean() < 1.15,
            "ratio {}",
            stats.peak_to_mean()
        );
    }

    #[test]
    fn twitter_is_bursty_with_published_ratio() {
        let trace = base_config(TraceShape::twitter(5000.0), 120.0).generate(&RngFactory::new(5));
        let stats = trace.stats();
        let ratio = stats.peak_to_mean();
        assert!(
            (1.3..=1.8).contains(&ratio),
            "peak-to-mean {ratio} outside Twitter band"
        );
        // Peak should be near the 5000 rps target.
        assert!(
            (stats.peak_rps - 5000.0).abs() < 800.0,
            "peak {}",
            stats.peak_rps
        );
        // Resulting mean ≈ 3000 rps (§6.2).
        assert!(
            (stats.mean_rps - 3250.0).abs() < 600.0,
            "mean {}",
            stats.mean_rps
        );
    }

    #[test]
    fn pulse_alternates_between_levels() {
        let trace = base_config(
            TraceShape::pulse(1000.0, SimDuration::from_secs(10.0)),
            60.0,
        )
        .generate(&RngFactory::new(13));
        let stats = trace.stats();
        // Half duty: mean ≈ high / 2, peak ≈ high.
        assert!(
            (stats.mean_rps - 500.0).abs() < 50.0,
            "mean {}",
            stats.mean_rps
        );
        assert!(
            (stats.peak_rps - 1000.0).abs() < 150.0,
            "peak {}",
            stats.peak_rps
        );
        // The OFF half of each period is silent.
        for r in trace.requests() {
            assert!(
                r.arrival.as_secs_f64().rem_euclid(10.0) < 5.0,
                "arrival {} fell in an OFF window",
                r.arrival.as_secs_f64()
            );
        }
    }

    #[test]
    fn overlay_bursts_raise_the_rate_only_inside_their_windows() {
        // Flat 200 rps base with a 1000 rps burst over [20, 40): the
        // burst window must run ~6x hotter than the rest of the trace.
        let shape = TraceShape::overlay(
            TraceShape::constant(200.0),
            vec![BurstWindow {
                start: SimTime::from_secs(20.0),
                duration: SimDuration::from_secs(20.0),
                add_rps: 1000.0,
            }],
        );
        let trace = base_config(shape, 60.0).generate(&RngFactory::new(17));
        let in_burst = |r: &Request| (20.0..40.0).contains(&r.arrival.as_secs_f64());
        let burst = trace.requests().iter().filter(|r| in_burst(r)).count() as f64;
        let outside = trace.requests().iter().filter(|r| !in_burst(r)).count() as f64;
        let burst_rps = burst / 20.0;
        let outside_rps = outside / 40.0;
        assert!(
            (burst_rps - 1200.0).abs() < 120.0,
            "burst window rate {burst_rps}"
        );
        assert!(
            (outside_rps - 200.0).abs() < 40.0,
            "outside-window rate {outside_rps}"
        );
    }

    #[test]
    fn overlapping_bursts_stack_additively() {
        // Two 300 rps bursts overlapping on [10, 15): the overlap runs
        // at base + 600.
        let shape = TraceShape::overlay(
            TraceShape::constant(100.0),
            vec![
                BurstWindow {
                    start: SimTime::from_secs(5.0),
                    duration: SimDuration::from_secs(10.0),
                    add_rps: 300.0,
                },
                BurstWindow {
                    start: SimTime::from_secs(10.0),
                    duration: SimDuration::from_secs(10.0),
                    add_rps: 300.0,
                },
            ],
        );
        let trace = base_config(shape, 30.0).generate(&RngFactory::new(23));
        let overlap = trace
            .requests()
            .iter()
            .filter(|r| (10.0..15.0).contains(&r.arrival.as_secs_f64()))
            .count() as f64
            / 5.0;
        assert!((overlap - 700.0).abs() < 120.0, "overlap rate {overlap}");
    }

    #[test]
    #[should_panic]
    fn overlay_rejects_non_positive_burst_rate() {
        let shape = TraceShape::overlay(
            TraceShape::constant(100.0),
            vec![BurstWindow {
                start: SimTime::ZERO,
                duration: SimDuration::from_secs(1.0),
                add_rps: 0.0,
            }],
        );
        let _ = base_config(shape, 10.0).generate(&RngFactory::new(1));
    }

    #[test]
    fn strict_fraction_respected() {
        let mut cfg = base_config(TraceShape::constant(1000.0), 30.0);
        cfg.strict_fraction = 0.75;
        let trace = cfg.generate(&RngFactory::new(9));
        let stats = trace.stats();
        let frac = stats.strict as f64 / stats.total as f64;
        assert!((frac - 0.75).abs() < 0.02, "strict fraction {frac}");
        for r in trace.requests() {
            if r.strict {
                assert_eq!(r.model, ModelId::ResNet50);
            } else {
                assert_ne!(r.model, ModelId::ResNet50);
            }
        }
    }

    #[test]
    fn all_strict_needs_no_pool() {
        let mut cfg = base_config(TraceShape::constant(100.0), 10.0);
        cfg.strict_fraction = 1.0;
        cfg.be_pool.clear();
        let trace = cfg.generate(&RngFactory::new(2));
        assert!(trace.requests().iter().all(|r| r.strict));
    }

    #[test]
    #[should_panic]
    fn be_without_pool_panics() {
        let mut cfg = base_config(TraceShape::constant(100.0), 10.0);
        cfg.be_pool.clear();
        let _ = cfg.generate(&RngFactory::new(2));
    }

    #[test]
    fn be_model_rotates_over_time() {
        let mut cfg = base_config(TraceShape::constant(500.0), 120.0);
        cfg.strict_fraction = 0.0;
        cfg.be_pool = vec![
            ModelId::MobileNet,
            ModelId::ShuffleNetV2,
            ModelId::ResNet18,
            ModelId::SeNet18,
        ];
        let trace = cfg.generate(&RngFactory::new(21));
        let models: std::collections::HashSet<ModelId> =
            trace.requests().iter().map(|r| r.model).collect();
        assert!(models.len() > 1, "BE model never rotated");
        // Within one rotation slot the BE model is constant; checking
        // the first slot is sufficient and cheap.
        if let Some(r) = trace.requests().first() {
            let slot = r.arrival.as_secs_f64() as u64 / 20;
            let slot_models: std::collections::HashSet<ModelId> = trace
                .requests()
                .iter()
                .filter(|q| q.arrival.as_secs_f64() as u64 / 20 == slot)
                .map(|q| q.model)
                .collect();
            assert_eq!(slot_models.len(), 1);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// Request ids are dense and arrival-ordered for any shape/seed.
        #[test]
        fn prop_ids_dense_and_ordered(seed in 0u64..500, rps in 50.0f64..400.0) {
            let trace = base_config(TraceShape::constant(rps), 5.0)
                .generate(&RngFactory::new(seed));
            for (i, r) in trace.requests().iter().enumerate() {
                prop_assert_eq!(r.id, RequestId(i as u64));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// The streamed request sequence equals `generate`'s output
        /// element for element — every id, arrival, model and class —
        /// across shapes, seeds, class mixes and both arrival modes.
        #[test]
        fn prop_trace_stream_matches_generate_element_for_element(
            seed in 0u64..1000,
            shape_kind in 0usize..5,
            strict_pct in 0usize..5,
            batch_arrivals in proptest::bool::ANY,
        ) {
            let shape = match shape_kind {
                0 => TraceShape::constant(300.0),
                1 => TraceShape::wiki(400.0),
                2 => TraceShape::twitter(600.0),
                3 => TraceShape::pulse(800.0, SimDuration::from_secs(4.0)),
                _ => TraceShape::overlay(
                    TraceShape::wiki(300.0),
                    vec![
                        BurstWindow {
                            start: SimTime::from_secs(3.0),
                            duration: SimDuration::from_secs(4.0),
                            add_rps: 700.0,
                        },
                        BurstWindow {
                            start: SimTime::from_secs(5.0),
                            duration: SimDuration::from_secs(6.0),
                            add_rps: 400.0,
                        },
                    ],
                ),
            };
            let mut cfg = base_config(shape, 15.0);
            cfg.strict_fraction = [0.0, 0.25, 0.5, 0.75, 1.0][strict_pct];
            cfg.batch_arrivals = batch_arrivals;
            let factory = RngFactory::new(seed);
            let materialized = cfg.generate(&factory).into_requests();
            let streamed: Vec<Request> = cfg.stream(&factory).collect();
            prop_assert_eq!(streamed.len(), materialized.len());
            for (i, (s, m)) in streamed.iter().zip(&materialized).enumerate() {
                prop_assert_eq!(s, m, "request {} diverged", i);
            }
        }
    }

    #[test]
    fn stream_model_universe_covers_every_generated_model() {
        let mut cfg = base_config(TraceShape::wiki(800.0), 60.0);
        cfg.be_pool = vec![
            ModelId::MobileNet,
            ModelId::ShuffleNetV2,
            ModelId::ResNet18,
            ModelId::SeNet18,
        ];
        for seed in [1, 5, 21] {
            let factory = RngFactory::new(seed);
            let universe = cfg.stream(&factory).model_universe();
            for r in cfg.generate(&factory).requests() {
                assert!(
                    universe.contains(&r.model),
                    "model {:?} not in universe {universe:?}",
                    r.model
                );
            }
        }
    }

    #[test]
    fn stream_is_restartable_from_a_fresh_handle() {
        // Two streams from the same factory are independent generators
        // over the identical sequence — the engine relies on this for
        // its prewarm pre-pass.
        let cfg = base_config(TraceShape::twitter(500.0), 20.0);
        let factory = RngFactory::new(77);
        let a: Vec<Request> = cfg.stream(&factory).collect();
        let b: Vec<Request> = cfg.stream(&factory).collect();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }
}
