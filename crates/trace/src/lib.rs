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
//! A trace comes in two forms over one arrival generator:
//! [`TraceConfig::generate`] materialises it (the paper-scale figures),
//! and [`TraceConfig::stream`] yields the same requests lazily (the
//! fleet-scale runs). Both draw every arrival instant, class and model
//! from the same code, so they cannot drift.
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
//! assert!(!trace.is_empty());
//! let stats = trace.stats();
//! assert!((stats.mean_rps - 100.0).abs() < 15.0);
//! ```

pub mod io;

use protean_models::{catalog, ModelId};
use protean_sim::{RngFactory, SimDuration, SimRng, SimTime};

/// One user request as it arrives at the gateway.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Arrival instant at the gateway.
    pub arrival: SimTime,
    /// The inference model this request invokes.
    pub model: ModelId,
    /// `true` for strict-SLO requests; `false` for best-effort (§5:
    /// strictness is user-annotated).
    pub strict: bool,
}

/// `len` adjacent requests of a [`Trace`] that share an arrival
/// instant, a model and a class, stored once. A pre-formed batch
/// arrival (`TraceConfig::batch_arrivals`) is one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Run {
    /// Arrival instant of every request in the run.
    pub arrival: SimTime,
    /// The model every request in the run invokes.
    pub model: ModelId,
    /// The class of every request in the run.
    pub strict: bool,
    /// Requests in the run, at least 1.
    pub len: u32,
}

impl Run {
    /// The request the run repeats.
    #[inline]
    pub fn request(&self) -> Request {
        Request {
            arrival: self.arrival,
            model: self.model,
            strict: self.strict,
        }
    }

    /// The run's requests, in order.
    fn requests(&self) -> std::iter::RepeatN<Request> {
        std::iter::repeat_n(self.request(), self.len as usize)
    }
}

/// Appends `n` requests like `r` to `runs`, extending the last run when
/// it holds the same request and has room.
fn push_requests(runs: &mut Vec<Run>, r: Request, n: u32) {
    match runs.last_mut() {
        Some(last) if last.request() == r && last.len <= u32::MAX - n => last.len += n,
        _ => runs.push(Run {
            arrival: r.arrival,
            model: r.model,
            strict: r.strict,
            len: n,
        }),
    }
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

/// The longest span a generated trace may cover, in seconds (about
/// 3.2 years). State sized per time slot stays small up to it at the
/// paper's 20 s BE rotation: 5 million schedule entries.
pub const MAX_DURATION_SECS: f64 = 1e8;

/// The most entries a trace's BE rotation schedule may hold: one per
/// rotation period over the span, plus one. The generator builds the
/// whole schedule up front, on the streamed path too, so a rotation
/// period far below `span / 1e7` would size it past what memory holds.
/// The paper's 20 s rotation stays under the cap for every span up to
/// [`MAX_DURATION_SECS`].
pub const MAX_BE_ROTATIONS: f64 = 1e7;

/// The most requests a materialised trace may hold, counted as the
/// shape's nominal rate times the span. [`TraceConfig::generate`] keeps
/// every arrival instant and a 16-byte [`Run`] per arrival, so this
/// bounds the trace itself at a few GB.
pub const MAX_MATERIALISED_REQUESTS: f64 = 1e8;

/// Why [`check_trace_size`] rejected a trace length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceSizeError {
    /// The span exceeds [`MAX_DURATION_SECS`].
    TooLong {
        /// The span, seconds.
        secs: f64,
    },
    /// `rps × secs` exceeds [`MAX_MATERIALISED_REQUESTS`].
    TooManyRequests {
        /// The span, seconds.
        secs: f64,
        /// The nominal rate, requests per second.
        rps: f64,
    },
    /// `secs / rotation_secs` exceeds [`MAX_BE_ROTATIONS`].
    TooManyRotations {
        /// The span, seconds.
        secs: f64,
        /// The BE rotation period, seconds.
        rotation_secs: f64,
    },
}

impl std::fmt::Display for TraceSizeError {
    /// Reads after the flag or key it describes, e.g. "--duration is …".
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            TraceSizeError::TooLong { secs } => write!(
                f,
                "is {secs:e} s, over the cap of {MAX_DURATION_SECS:e} s on a trace's span"
            ),
            TraceSizeError::TooManyRequests { secs, rps } => write!(
                f,
                "is {secs:e} s, which at {rps} rps is about {:e} requests, over the cap of \
                 {MAX_MATERIALISED_REQUESTS:e} a materialised trace holds \
                 (at {rps} rps, at most {:e} s)",
                (rps * secs).round(),
                (MAX_MATERIALISED_REQUESTS / rps).floor(),
            ),
            TraceSizeError::TooManyRotations {
                secs,
                rotation_secs,
            } => write!(
                f,
                "is {rotation_secs:e} s, which over {secs:e} s is about {:e} BE rotations, \
                 over the cap of {MAX_BE_ROTATIONS:e} a rotation schedule holds \
                 (over {secs:e} s, more than {:e} s)",
                (secs / rotation_secs).round(),
                secs / MAX_BE_ROTATIONS,
            ),
        }
    }
}

impl std::error::Error for TraceSizeError {}

/// Checks a materialised trace of `secs` at a nominal `rps` against
/// [`MAX_DURATION_SECS`] and [`MAX_MATERIALISED_REQUESTS`], before
/// anything is sized from it: past either cap, building the trace can
/// exhaust memory and abort the process instead of failing.
///
/// # Errors
///
/// Returns the first cap the trace exceeds.
///
/// # Example
///
/// ```
/// use protean_trace::{check_trace_size, TraceSizeError};
/// assert!(check_trace_size(3600.0, 5000.0).is_ok());
/// assert_eq!(
///     check_trace_size(1e12, 1.0),
///     Err(TraceSizeError::TooLong { secs: 1e12 })
/// );
/// ```
pub fn check_trace_size(secs: f64, rps: f64) -> Result<(), TraceSizeError> {
    if secs > MAX_DURATION_SECS {
        Err(TraceSizeError::TooLong { secs })
    } else if rps * secs > MAX_MATERIALISED_REQUESTS {
        Err(TraceSizeError::TooManyRequests { secs, rps })
    } else {
        Ok(())
    }
}

/// Checks a trace's BE rotation schedule, one entry per `rotation_secs`
/// over `secs`, against [`MAX_BE_ROTATIONS`] before the generator sizes
/// it.
///
/// # Errors
///
/// [`TraceSizeError::TooManyRotations`] past the cap.
///
/// # Example
///
/// ```
/// use protean_trace::{check_rotation_schedule, TraceSizeError};
/// assert!(check_rotation_schedule(1e8, 20.0).is_ok());
/// assert_eq!(
///     check_rotation_schedule(1e5, 1e-6),
///     Err(TraceSizeError::TooManyRotations { secs: 1e5, rotation_secs: 1e-6 })
/// );
/// ```
pub fn check_rotation_schedule(secs: f64, rotation_secs: f64) -> Result<(), TraceSizeError> {
    if secs / rotation_secs >= MAX_BE_ROTATIONS {
        Err(TraceSizeError::TooManyRotations {
            secs,
            rotation_secs,
        })
    } else {
        Ok(())
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
        let mut arrivals = Arrivals::new(self, factory);
        // Timestamps first, so the request vector is sized exactly once.
        let mut times = Vec::new();
        while let Some(at) = arrivals.next_time() {
            times.push(at);
        }
        let batch_size = arrivals.batch_size;
        let mut runs = Vec::with_capacity(times.len());
        for arrival in times {
            let (model, strict) = arrivals.classify(arrival);
            let r = Request {
                arrival,
                model,
                strict,
            };
            push_requests(&mut runs, r, batch_size);
        }
        // Arrivals that fold into their predecessor leave slack.
        runs.shrink_to_fit();
        Trace {
            runs,
            duration: self.duration,
        }
    }

    /// A lazily-generated view of the same trace: [`TraceStream`]
    /// yields exactly the `Request` sequence [`TraceConfig::generate`]
    /// materializes — bit-identical arrivals, models and classes —
    /// while holding O(duration / rotation_period) state instead of
    /// O(requests).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`TraceConfig::generate`].
    pub fn stream(&self, factory: &RngFactory) -> TraceStream {
        TraceStream {
            arrivals: Arrivals::new(self, factory),
            duration: self.duration,
            batch: None,
            left_in_batch: 0,
        }
    }
}

/// The one arrival generator behind both [`TraceConfig::generate`] and
/// [`TraceStream`]: non-homogeneous Poisson arrival instants by
/// thinning, and the class/model draw for each.
///
/// It draws from four independent labelled streams ("trace.arrivals",
/// "trace.class", "trace.rotation", "trace.shape"), so a caller may
/// interleave `next_time` and `classify` in any order — `generate`
/// draws every instant first, the stream alternates — without changing
/// any stream's per-draw sequence.
#[derive(Debug, Clone)]
struct Arrivals {
    arrivals_rng: SimRng,
    class_rng: SimRng,
    rate: RateProfile,
    /// The BE model per rotation slot, rolled up front so it is
    /// independent of the arrival count.
    be_schedule: Vec<ModelId>,
    strict_model: ModelId,
    strict_fraction: f64,
    rotation_period_us: u64,
    /// Requests each arrival carries (1 unless `batch_arrivals`).
    batch_size: u32,
    /// `rate.max_rate / batch_size`: the homogeneous process thinned.
    lambda_max: f64,
    horizon_secs: f64,
    /// Thinning-loop clock, in seconds.
    t: f64,
}

impl Arrivals {
    fn new(cfg: &TraceConfig, factory: &RngFactory) -> Self {
        assert!(
            (0.0..=1.0).contains(&cfg.strict_fraction),
            "strict fraction {} out of range",
            cfg.strict_fraction
        );
        assert!(
            cfg.strict_fraction >= 1.0 || !cfg.be_pool.is_empty(),
            "BE pool may not be empty when BE requests can occur"
        );
        let arrivals_rng = factory.stream("trace.arrivals");
        let class_rng = factory.stream("trace.class");
        let mut rotation_rng = factory.stream("trace.rotation");
        let mut shape_rng = factory.stream("trace.shape");

        let batch_size = if cfg.batch_arrivals {
            catalog().profile(cfg.strict_model).batch_size.max(1)
        } else {
            1
        };
        let rate = RateProfile::new(&cfg.shape, cfg.duration, &mut shape_rng);
        let rotation_period_us = cfg.be_rotation_period.as_micros().max(1);
        let rotations = (cfg.duration.as_micros() / rotation_period_us) + 1;
        let be_schedule: Vec<ModelId> = (0..rotations)
            .map(|_| {
                if cfg.be_pool.is_empty() {
                    cfg.strict_model
                } else {
                    *rotation_rng.choose(&cfg.be_pool)
                }
            })
            .collect();
        Arrivals {
            arrivals_rng,
            class_rng,
            lambda_max: rate.max_rate / f64::from(batch_size),
            rate,
            be_schedule,
            strict_model: cfg.strict_model,
            strict_fraction: cfg.strict_fraction,
            rotation_period_us,
            batch_size,
            horizon_secs: cfg.duration.as_secs_f64(),
            t: 0.0,
        }
    }

    /// The next arrival instant, or `None` past the horizon: thins the
    /// homogeneous λ_max process down to λ(t) / batch_size.
    #[inline]
    fn next_time(&mut self) -> Option<SimTime> {
        let per_arrival = f64::from(self.batch_size);
        loop {
            self.t += self.arrivals_rng.exponential(self.lambda_max);
            if self.t >= self.horizon_secs {
                return None;
            }
            if self.arrivals_rng.uniform() * self.lambda_max
                < self.rate.rate_at(self.t) / per_arrival
            {
                return Some(SimTime::from_secs(self.t));
            }
        }
    }

    /// The model and class (`true` = strict) of the arrival at `at`.
    #[inline]
    fn classify(&mut self, at: SimTime) -> (ModelId, bool) {
        let strict = self.class_rng.chance(self.strict_fraction);
        let model = if strict {
            self.strict_model
        } else {
            let slot = (at.as_micros() / self.rotation_period_us) as usize;
            self.be_schedule[slot.min(self.be_schedule.len() - 1)]
        };
        (model, strict)
    }
}

/// A generator-backed request stream: the lazy form of
/// [`TraceConfig::generate`].
///
/// Both drive the same private arrival generator, so they share the
/// thinning loop and the class/model draw by construction; they differ
/// only in how each arrival is expanded into its batch. The shape
/// profile and the BE rotation schedule are built eagerly (they are
/// O(duration / segment) and O(duration / rotation_period), independent
/// of the request count); only the arrivals, which dominate memory at
/// fleet scale, are drawn lazily. The `trace_stream_*` proptest checks
/// the two batch expansions against each other element for element,
/// and the engine-level golden tests pin digest equality of full
/// simulations.
#[derive(Debug, Clone)]
pub struct TraceStream {
    arrivals: Arrivals,
    duration: SimDuration,
    /// The accepted arrival currently being expanded into a batch.
    batch: Option<(SimTime, ModelId, bool)>,
    left_in_batch: u32,
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
        let a = &self.arrivals;
        let mut out = Vec::new();
        if a.strict_fraction > 0.0 {
            out.push(a.strict_model);
        }
        if a.strict_fraction < 1.0 {
            for &m in &a.be_schedule {
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
        if self.left_in_batch == 0 {
            let arrival = self.arrivals.next_time()?;
            let (model, strict) = self.arrivals.classify(arrival);
            self.batch = Some((arrival, model, strict));
            self.left_in_batch = self.arrivals.batch_size;
        }
        let (arrival, model, strict) = self.batch?;
        self.left_in_batch -= 1;
        Some(Request {
            arrival,
            model,
            strict,
        })
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

/// A generated trace: requests sorted by arrival time, stored as
/// [`Run`]s of adjacent requests that share an arrival, a model and a
/// class.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    runs: Vec<Run>,
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
        let mut runs = Vec::new();
        for r in requests {
            push_requests(&mut runs, r, 1);
        }
        Trace { runs, duration }
    }

    /// The requests in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = Request> + '_ {
        self.runs.iter().flat_map(Run::requests)
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.runs.iter().map(|r| r.len as usize).sum()
    }

    /// `true` if the trace holds no request.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Consumes the trace, returning its runs in arrival order.
    pub fn into_runs(self) -> Vec<Run> {
        self.runs
    }

    /// Bytes the trace holds on the heap: its run vector's capacity.
    pub fn heap_bytes(&self) -> usize {
        self.runs.capacity() * std::mem::size_of::<Run>()
    }

    /// The configured trace length.
    pub fn duration(&self) -> SimDuration {
        self.duration
    }

    /// Arrival-rate statistics over 1 s buckets.
    pub fn stats(&self) -> TraceStats {
        let secs = self.duration.as_secs_f64().ceil().max(1.0) as usize;
        let mut buckets = vec![0u64; secs];
        let (mut total, mut strict) = (0, 0);
        for r in &self.runs {
            let idx = (r.arrival.as_secs_f64().floor() as usize).min(secs - 1);
            buckets[idx] += u64::from(r.len);
            total += u64::from(r.len);
            if r.strict {
                strict += u64::from(r.len);
            }
        }
        let mean_rps = total as f64 / self.duration.as_secs_f64().max(1e-9);
        let peak_rps = buckets.iter().copied().max().unwrap_or(0) as f64;
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
        for r in trace.iter() {
            assert!(r.arrival >= last);
            assert!(r.arrival < SimTime::from_secs(30.0));
            last = r.arrival;
        }
    }

    #[test]
    fn lookahead_peek_is_transparent_over_a_stream() {
        let cfg = base_config(TraceShape::wiki(300.0), 10.0);
        let materialised: Vec<Request> = cfg.generate(&RngFactory::new(9)).iter().collect();
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
    fn generate_sizes_the_run_vector_exactly_once() {
        // A growing collect would over-allocate; `generate` counts the
        // arrivals first and allocates once.
        for batch_arrivals in [false, true] {
            let mut cfg = base_config(TraceShape::twitter(900.0), 12.0);
            cfg.batch_arrivals = batch_arrivals;
            let trace = cfg.generate(&RngFactory::new(4));
            assert!(!trace.is_empty());
            assert_eq!(trace.heap_bytes(), trace.runs.len() * 16);
        }
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
        for r in trace.iter() {
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
        let burst = trace.iter().filter(|r| in_burst(r)).count() as f64;
        let outside = trace.iter().filter(|r| !in_burst(r)).count() as f64;
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
        for r in trace.iter() {
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
        assert!(trace.iter().all(|r| r.strict));
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
        let models: std::collections::HashSet<ModelId> = trace.iter().map(|r| r.model).collect();
        assert!(models.len() > 1, "BE model never rotated");
        // Within one rotation slot the BE model is constant; checking
        // the first slot is sufficient and cheap.
        let first = trace.iter().next();
        if let Some(r) = first {
            let slot = r.arrival.as_secs_f64() as u64 / 20;
            let slot_models: std::collections::HashSet<ModelId> = trace
                .iter()
                .filter(|q| q.arrival.as_secs_f64() as u64 / 20 == slot)
                .map(|q| q.model)
                .collect();
            assert_eq!(slot_models.len(), 1);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// The streamed request sequence equals `generate`'s output
        /// element for element — every arrival, model and class —
        /// across shapes, seeds, class mixes and both arrival modes.
        /// Both share one arrival generator, so this checks the two
        /// batch expansions against each other.
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
            let materialized: Vec<Request> = cfg.generate(&factory).iter().collect();
            let streamed: Vec<Request> = cfg.stream(&factory).collect();
            prop_assert_eq!(streamed.len(), materialized.len());
            for (i, (s, m)) in streamed.iter().zip(&materialized).enumerate() {
                prop_assert_eq!(s, m, "request {} diverged", i);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Runs are only a storage form: `from_parts(v).iter()` yields
        /// `v` exactly, and so does a CSV round trip, across repeated
        /// instants and adjacent equal-arrival requests that differ in
        /// model or class (which must not fold).
        #[test]
        fn prop_runs_yield_the_requests_they_were_built_from(
            steps in proptest::collection::vec((0u64..3, 0usize..3, proptest::bool::ANY, 1usize..4), 0..120),
        ) {
            let models = [ModelId::ResNet50, ModelId::MobileNet, ModelId::Bert];
            let mut at = 0;
            let mut v = Vec::new();
            for (dt, m, strict, repeat) in steps {
                at += dt;
                let r = Request { arrival: SimTime::from_micros(at), model: models[m], strict };
                v.extend(std::iter::repeat_n(r, repeat));
            }
            let trace = Trace::from_parts(v.clone(), SimDuration::from_secs(1.0));
            prop_assert_eq!(trace.iter().collect::<Vec<_>>(), v.clone());
            prop_assert_eq!(trace.len(), v.len());
            prop_assert_eq!(trace.is_empty(), v.is_empty());
            // Runs are maximal: no two adjacent runs hold the same request.
            prop_assert!(trace.runs.windows(2).all(|w| w[0].request() != w[1].request()));
            let mut buf = Vec::new();
            trace.write_csv(&mut buf).unwrap();
            let back = Trace::read_csv(buf.as_slice()).unwrap();
            prop_assert_eq!(back.iter().collect::<Vec<_>>(), v);
            prop_assert_eq!(back.runs, trace.runs);
        }
    }

    #[test]
    fn a_batch_arrival_trace_holds_one_run_per_arrival() {
        // The paper's rates: 128 rps of language batches (4 per arrival),
        // 5000 rps of vision batches (128 per arrival).
        for (strict_model, rps) in [(ModelId::Bert, 128.0), (ModelId::ResNet50, 5000.0)] {
            let mut cfg = base_config(TraceShape::wiki(rps), 60.0);
            cfg.strict_model = strict_model;
            cfg.batch_arrivals = true;
            let trace = cfg.generate(&RngFactory::new(3));
            let batch = catalog().profile(strict_model).batch_size as usize;
            assert!(trace.len() > 1000 * batch);
            assert_eq!(trace.runs.len(), trace.len() / batch);
        }
        // Two arrivals at one instant of one model and class fold into a
        // run of two batches, so every run holds whole batches.
        let mut cfg = base_config(TraceShape::wiki(2000.0), 20.0);
        cfg.strict_model = ModelId::Bert;
        cfg.batch_arrivals = true;
        let trace = cfg.generate(&RngFactory::new(3));
        assert!(trace.runs.len() < trace.len() / 4);
        assert!(trace.runs.iter().all(|r| r.len % 4 == 0));
    }

    #[test]
    fn stored_sizes_are_pinned() {
        assert_eq!(std::mem::size_of::<Run>(), 16);
        assert_eq!(std::mem::size_of::<Request>(), 16);
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
            for r in cfg.generate(&factory).iter() {
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
