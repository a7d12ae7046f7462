//! Job execution: one function per [`Job`] kind, mirroring the CLI
//! sub-commands byte-for-byte; the degradation ladder [`recover_lanes`],
//! which estimates every Recover lane at any cohort width; and the
//! per-worker [`EngineCache`] that lets a micro-batch of Recover jobs reuse
//! one constructed method object instead of rebuilding state per image (the
//! CLI's one-shot behaviour).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dcdiff_baselines::{DcRecovery, Icip2022, SmartCom2019, Tip2006};
use dcdiff_core::{
    content_seed, refine_dc_offsets, BatchRecoverJob, CircuitBreaker, DcDiff, DcDiffConfig,
    EstimateError, RecoverOptions,
};
use dcdiff_image::{read_pgm, read_ppm, write_pgm, write_ppm, Image};
use dcdiff_jpeg::{
    encode_coefficients, encode_coefficients_optimized, encode_coefficients_with_restarts,
    CoeffImage, DcDropMode, JpegDecoder, JpegEncoder,
};
use dcdiff_metrics::{psnr, ssim};
use dcdiff_telemetry::names;
use dcdiff_telemetry::Telemetry;

use crate::job::{CodingOpts, Job, JobError, JobFailure, JobOutput, RecoverMethod};

/// Read a PPM or PGM image based on the file extension (CLI-compatible).
fn read_image(path: &str) -> Result<Image, JobError> {
    let loaded = if path.to_ascii_lowercase().ends_with(".pgm") {
        read_pgm(path)
    } else {
        read_ppm(path)
    };
    loaded.map_err(|e| classify_image_error(path, &e))
}

/// Write a PPM or PGM image based on the file extension (CLI-compatible).
fn write_image(path: &str, image: &Image) -> Result<(), JobError> {
    let written = if path.to_ascii_lowercase().ends_with(".pgm") {
        write_pgm(path, image)
    } else {
        write_ppm(path, image)
    };
    written.map_err(|e| classify_image_error(path, &e))
}

/// Image-crate errors render as strings; keep the path and treat them as
/// permanent unless the message clearly names a transient I/O condition.
fn classify_image_error(path: &str, err: &impl std::fmt::Display) -> JobError {
    JobError::permanent(format!("{path}: {err}"))
}

fn read_bytes(path: &str) -> Result<Vec<u8>, JobError> {
    std::fs::read(path).map_err(|e| {
        let mut err = JobError::from_io(&e);
        err.message = format!("{path}: {}", err.message);
        err
    })
}

fn write_bytes(path: &str, bytes: &[u8]) -> Result<(), JobError> {
    std::fs::write(path, bytes).map_err(|e| {
        let mut err = JobError::from_io(&e);
        err.message = format!("{path}: {}", err.message);
        err
    })
}

/// Entropy-code `coeffs` under the shared coding options.
fn code(coeffs: &CoeffImage, opts: &CodingOpts) -> Result<Vec<u8>, JobError> {
    let coded = if opts.optimize {
        encode_coefficients_optimized(coeffs)
    } else if opts.restart > 0 {
        encode_coefficients_with_restarts(coeffs, opts.restart)
    } else {
        encode_coefficients(coeffs)
    };
    coded.map_err(|e| JobError::permanent(e.to_string()))
}

/// How Recover jobs degrade when the selected method fails.
///
/// One policy is shared by every worker of a [`crate::Runtime`] (the
/// breaker is behind an `Arc`), so consecutive failures across workers
/// accumulate into one per-runtime trip decision. The default enables the
/// ladder of [`recover_lanes`] — a failing method falls back to the TIP-2006
/// baseline, and a panicking baseline falls back to flat DC. `dcdiff batch
/// --no-fallback` selects [`RecoveryPolicy::no_fallback`] instead,
/// surfacing the primary failure as a permanent [`JobError`].
#[derive(Debug, Clone)]
pub struct RecoveryPolicy {
    /// Whether failed recoveries degrade to lower tiers (default) or fail
    /// the job.
    pub fallback: bool,
    /// Per-runtime breaker in front of the primary method; after its
    /// threshold of consecutive failures, jobs skip straight to the
    /// baseline tier until the cooldown elapses.
    pub breaker: Arc<CircuitBreaker>,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            fallback: true,
            breaker: Arc::new(CircuitBreaker::new(3, Duration::from_secs(30))),
        }
    }
}

impl RecoveryPolicy {
    /// The `--no-fallback` escape hatch: primary failures fail the job.
    pub fn no_fallback() -> Self {
        RecoveryPolicy { fallback: false, ..RecoveryPolicy::default() }
    }
}

/// A constructed recovery method, cached per worker by [`EngineCache`].
enum Engine {
    /// A method without a batched estimate — the statistical baselines and
    /// MLD — run lane by lane.
    PerLane(Box<dyn DcRecovery>),
    /// The paper's estimator behind [`RecoverMethod::Diffusion`]: latent
    /// DDIM sampling conditioned on FMPP features, DC projection and
    /// masked-Laplacian refinement. Weights come from a fixed construction
    /// seed and each lane samples under a seed derived from the stream's own
    /// content ([`content_seed`]), so results are reproducible run to run
    /// *and* bit-identical at any cohort width.
    Diffusion { model: Box<DcDiff>, options: RecoverOptions },
}

impl Engine {
    fn build(method: &RecoverMethod) -> Self {
        match *method {
            RecoverMethod::Tip2006 => Engine::PerLane(Box::new(Tip2006::new())),
            RecoverMethod::SmartCom => Engine::PerLane(Box::new(SmartCom2019::new())),
            RecoverMethod::Icip => Engine::PerLane(Box::new(Icip2022::new())),
            RecoverMethod::Mld { threshold, sweeps } => {
                Engine::PerLane(Box::new(Mld { threshold, sweeps }))
            }
            RecoverMethod::Diffusion { ddim_steps } => {
                let config = DcDiffConfig::default();
                let mut options = RecoverOptions::from_config(&config);
                // The sampler rejects step counts outside 1..=diffusion_steps;
                // clamp so a misconfigured job runs at a legal step count
                // instead of failing into the fallback ladder.
                options.ddim_steps = ddim_steps.clamp(1, config.diffusion_steps);
                Engine::Diffusion { model: Box::new(DcDiff::new(config, 0xdcd1ff)), options }
            }
        }
    }

    /// Recover every lane, one result per lane in lane order. Diffusion
    /// lanes share one batched estimate; the other methods resolve lanes one
    /// by one under each lane's trace. Either way each lane's deadline is
    /// checked cooperatively and a panic becomes [`EstimateError::Panicked`]
    /// (per lane, or per cohort for diffusion).
    fn estimate(&self, lanes: &[CohortLane<'_>]) -> Vec<Result<Image, EstimateError>> {
        match self {
            Engine::Diffusion { model, options } => {
                let jobs: Vec<BatchRecoverJob<'_>> = lanes
                    .iter()
                    .map(|lane| BatchRecoverJob {
                        dropped: lane.dropped,
                        seed: content_seed(lane.dropped),
                        deadline: lane.deadline,
                        trace: lane.trace,
                    })
                    .collect();
                model.try_recover_batch(&jobs, options)
            }
            Engine::PerLane(method) => lanes
                .iter()
                .map(|lane| {
                    let _trace = lane.trace.map(dcdiff_telemetry::install_trace);
                    if lane.deadline.is_some_and(|d| Instant::now() >= d) {
                        return Err(EstimateError::DeadlineExceeded { phase: "start" });
                    }
                    catch_unwind(AssertUnwindSafe(|| method.recover(lane.dropped)))
                        .map_err(EstimateError::panicked)
                })
                .collect(),
        }
    }
}

/// Masked-Laplacian refinement with a neutral prior — identical constants
/// to the CLI `recover --method mld` path.
struct Mld {
    threshold: f32,
    sweeps: usize,
}

impl DcRecovery for Mld {
    fn name(&self) -> &'static str {
        "mld"
    }

    fn recover(&self, dropped: &CoeffImage) -> Image {
        self.recover_coefficients(dropped).to_image()
    }

    fn recover_coefficients(&self, dropped: &CoeffImage) -> CoeffImage {
        refine_dc_offsets(dropped, dropped, self.threshold, 5e-4, self.sweeps.max(1))
    }
}

/// Per-worker cache of constructed recovery engines, keyed by method config.
///
/// Engines are stateless once built, so one instance can serve every image
/// in a batch — and every later batch on the same worker. Also carries the
/// runtime's [`RecoveryPolicy`] so [`execute`] keeps its signature while the
/// degradation ladder stays configurable per runtime.
#[derive(Default)]
pub struct EngineCache {
    engines: Vec<(RecoverMethod, Engine)>,
    policy: RecoveryPolicy,
    /// Batch jobs served by an already-constructed engine.
    pub hits: u64,
    /// Engine constructions.
    pub misses: u64,
}

impl EngineCache {
    /// Fresh, empty cache with the default [`RecoveryPolicy`].
    pub fn new() -> Self {
        EngineCache::default()
    }

    /// Fresh cache executing Recover jobs under `policy`.
    pub fn with_policy(policy: RecoveryPolicy) -> Self {
        EngineCache { policy, ..EngineCache::default() }
    }

    /// The degradation policy this cache executes Recover jobs under.
    pub fn policy(&self) -> &RecoveryPolicy {
        &self.policy
    }

    /// Replace a method's engine (tests inject failing engines with this).
    #[cfg(test)]
    fn inject(&mut self, method: RecoverMethod, engine: Box<dyn DcRecovery>) {
        self.engines.retain(|(m, _)| !m.same_config(&method));
        self.engines.push((method, Engine::PerLane(engine)));
    }

    /// The engine for `method`, constructing it on first use.
    fn engine(&mut self, method: &RecoverMethod) -> &Engine {
        match self.engines.iter().position(|(m, _)| m.same_config(method)) {
            Some(i) => {
                self.hits += 1;
                &self.engines[i].1
            }
            None => {
                self.misses += 1;
                self.engines.push((*method, Engine::build(method)));
                &self.engines[self.engines.len() - 1].1
            }
        }
    }
}

/// Execute one job, using (and warming) `engines` for Recover work.
///
/// A Recover job runs as a width-1 cohort of [`recover_lanes`], with no
/// deadline, between [`decode_recover_input`] and [`write_recover_output`]:
/// the same steps the runtime's workers take for every Recover lane.
/// Sub-phases (read, transform, entropy-code, write) are wrapped in `tel`
/// spans; with tracing disabled each span is a no-op.
///
/// # Errors
///
/// Returns a classified [`JobError`]; only I/O interruptions are transient.
pub fn execute(
    job: &Job,
    engines: &mut EngineCache,
    tel: &Telemetry,
) -> Result<JobOutput, JobError> {
    match job {
        Job::Encode { input, output, quality, sampling, opts } => {
            if !(1..=100).contains(quality) {
                return Err(JobError::permanent("--quality must be 1..=100"));
            }
            let read = tel.span(names::SPAN_ENCODE_READ);
            let image = read_image(input)?;
            drop(read);
            let dct = tel.span(names::SPAN_ENCODE_DCT);
            let encoder = JpegEncoder::new(*quality).with_sampling(*sampling);
            let mut coeffs = encoder.to_coefficients(&image);
            drop(dct);
            if opts.drop_dc {
                let _drop_dc = tel.span(names::SPAN_ENCODE_DROP_DC);
                coeffs = coeffs.drop_dc(DcDropMode::KeepCorners);
            }
            let entropy = tel.span(names::SPAN_ENCODE_ENTROPY);
            let bytes = code(&coeffs, opts)?;
            drop(entropy);
            let _write = tel.span(names::SPAN_ENCODE_WRITE);
            write_bytes(output, &bytes)?;
            Ok(JobOutput::Encoded { bytes: bytes.len() })
        }
        Job::Transcode { input, output, opts } => {
            let read = tel.span(names::SPAN_TRANSCODE_READ);
            let bytes = read_bytes(input)?;
            drop(read);
            let decode = tel.span(names::SPAN_TRANSCODE_ENTROPY_DECODE);
            let mut coeffs = JpegDecoder::decode_coefficients(&bytes).map_err(|e| {
                let mut err = JobError::from_jpeg(&e);
                err.message = format!("{input}: {}", err.message);
                err
            })?;
            drop(decode);
            if opts.drop_dc {
                let _drop_dc = tel.span(names::SPAN_TRANSCODE_DROP_DC);
                coeffs = coeffs.drop_dc(DcDropMode::KeepCorners);
            }
            let encode = tel.span(names::SPAN_TRANSCODE_ENTROPY_ENCODE);
            let out = code(&coeffs, opts)?;
            drop(encode);
            let _write = tel.span(names::SPAN_TRANSCODE_WRITE);
            write_bytes(output, &out)?;
            Ok(JobOutput::Transcoded { bytes_in: bytes.len(), bytes_out: out.len() })
        }
        Job::Recover { input, output, method } => {
            let dropped = decode_recover_input(input, tel)?;
            let lane = CohortLane { dropped: &dropped, deadline: None, trace: None };
            match recover_lanes(&[lane], method, engines, tel).pop() {
                Some(Ok(image)) => {
                    write_recover_output(output, &image, tel)?;
                    Ok(JobOutput::Recovered { output: output.clone() })
                }
                Some(Err(JobFailure::Error(err))) => Err(err),
                // A lane without a deadline is never evicted, and the ladder
                // resolves every lane it is given.
                _ => Err(JobError::permanent(format!("{input}: recovery produced no image"))),
            }
        }
        Job::Metrics { reference, test } => {
            let read = tel.span(names::SPAN_METRICS_READ);
            let reference_img = read_image(reference)?;
            let test_img = read_image(test)?;
            drop(read);
            if reference_img.dims() != test_img.dims() {
                return Err(JobError::permanent(format!(
                    "size mismatch: {}x{} vs {}x{}",
                    reference_img.width(),
                    reference_img.height(),
                    test_img.width(),
                    test_img.height()
                )));
            }
            let _compare = tel.span(names::SPAN_METRICS_COMPARE);
            Ok(JobOutput::Metrics {
                psnr: f64::from(psnr(&reference_img, &test_img)),
                ssim: f64::from(ssim(&reference_img, &test_img)),
            })
        }
    }
}

/// Read and entropy-decode one Recover input under the `recover.read` /
/// `recover.entropy_decode` spans.
///
/// # Errors
///
/// Classified [`JobError`]: truncated streams and interrupted I/O are
/// transient, everything else permanent.
pub fn decode_recover_input(input: &str, tel: &Telemetry) -> Result<CoeffImage, JobError> {
    let read = tel.span(names::SPAN_RECOVER_READ);
    let bytes = read_bytes(input)?;
    drop(read);
    let _decode = tel.span(names::SPAN_RECOVER_ENTROPY_DECODE);
    JpegDecoder::decode_coefficients(&bytes).map_err(|e| {
        let mut err = JobError::from_jpeg(&e);
        err.message = format!("{input}: {}", err.message);
        err
    })
}

/// Write one recovered image under the `recover.write` span.
///
/// # Errors
///
/// Classified [`JobError`] from the underlying image write.
pub fn write_recover_output(output: &str, image: &Image, tel: &Telemetry) -> Result<(), JobError> {
    let _write = tel.span(names::SPAN_RECOVER_WRITE);
    write_image(output, image)
}

/// One lane of a Recover cohort: the already-decoded input plus its serving
/// metadata.
#[derive(Debug, Clone, Copy)]
pub struct CohortLane<'a> {
    /// DC-dropped coefficients (read and entropy-decoded by the caller).
    pub dropped: &'a CoeffImage,
    /// Absolute deadline; expiry evicts this lane only.
    pub deadline: Option<Instant>,
    /// Submitting request's trace context, re-installed for this lane's
    /// spans.
    pub trace: Option<dcdiff_telemetry::TraceCtx>,
}

/// The degradation ladder over a cohort of K ≥ 1 same-method lanes: the one
/// way any Recover lane is estimated.
///
/// The selected method is the primary tier. A diffusion engine recovers the
/// whole cohort in one batched `DcDiff::try_recover_batch` call (one U-Net
/// forward per DDIM step for every lane, each lane bit-identical to a
/// width-1 run); the other methods resolve the lanes one by one. The
/// cache's [`RecoveryPolicy`] breaker fronts the primary. A lane whose
/// primary fails then degrades alone — TIP-2006 baseline, then flat DC —
/// always producing an image, with the tier recorded in telemetry counters
/// (`estimator.primary_ok` / `estimator.primary_fail` /
/// `estimator.fallback_baseline` / `estimator.fallback_flat` /
/// `estimator.breaker_short_circuit`) and the `breaker.state` gauge. Each
/// lane gets a `recover.estimate` span under its own trace.
///
/// A lane whose deadline expires resolves to
/// [`JobFailure::DeadlineExceeded`] rather than degrading: a blown deadline
/// is the lane's budget running out, not an engine fault, so it neither
/// trips the breaker nor buys a slower tier the caller has no time left for.
/// With fallback disabled ([`RecoveryPolicy::no_fallback`]), a primary
/// failure resolves to a permanent [`JobError`] instead of degrading.
///
/// Returns one result per lane, in lane order.
pub fn recover_lanes(
    lanes: &[CohortLane<'_>],
    method: &RecoverMethod,
    engines: &mut EngineCache,
    tel: &Telemetry,
) -> Vec<Result<Image, JobFailure>> {
    let policy = engines.policy.clone();
    let start = Instant::now();
    let primary: Vec<Option<Result<Image, JobFailure>>> = if policy.fallback
        && !policy.breaker.allow()
    {
        for _ in lanes {
            tel.counter(names::CTR_ESTIMATOR_BREAKER_SHORT_CIRCUIT).inc();
        }
        lanes.iter().map(|_| None).collect()
    } else {
        engines
            .engine(method)
            .estimate(lanes)
            .into_iter()
            .map(|result| match result {
                Ok(image) => {
                    if policy.fallback {
                        policy.breaker.record_success();
                        tel.counter(names::CTR_ESTIMATOR_PRIMARY_OK).inc();
                    }
                    Some(Ok(image))
                }
                Err(EstimateError::DeadlineExceeded { .. }) => {
                    Some(Err(JobFailure::DeadlineExceeded))
                }
                Err(err) if !policy.fallback => {
                    Some(Err(JobFailure::Error(JobError::permanent(format!(
                        "recovery ({}) failed with --no-fallback: {err}",
                        method.name()
                    )))))
                }
                Err(err) => {
                    policy.breaker.record_failure();
                    tel.counter(names::CTR_ESTIMATOR_PRIMARY_FAIL).inc();
                    tel.warn(format!(
                        "recovery ({}) failed ({err}); degrading to baseline",
                        method.name()
                    ));
                    None
                }
            })
            .collect()
    };
    if policy.fallback {
        tel.gauge(names::GAUGE_BREAKER_STATE).set(policy.breaker.state().as_gauge());
    }
    // Lanes the primary did not resolve walk the lower tiers one by one.
    let results: Vec<Result<Image, JobFailure>> = primary
        .into_iter()
        .zip(lanes)
        .map(|(resolved, lane)| {
            resolved.unwrap_or_else(|| {
                // Baseline tier: TIP-2006 is training-free and has no failure
                // modes of its own, but a panic here must not kill the ladder
                // either. The lane already spent its primary attempt, so the
                // baseline runs without the deadline.
                let unbounded = CohortLane { deadline: None, ..*lane };
                let baseline = engines
                    .engine(&RecoverMethod::Tip2006)
                    .estimate(std::slice::from_ref(&unbounded))
                    .pop();
                Ok(match baseline {
                    Some(Ok(image)) => {
                        tel.counter(names::CTR_ESTIMATOR_FALLBACK_BASELINE).inc();
                        image
                    }
                    // Flat-DC tier: decode with the dropped DC left at zero.
                    // Cannot fail; the picture is degraded but structurally
                    // valid.
                    _ => {
                        tel.counter(names::CTR_ESTIMATOR_FALLBACK_FLAT).inc();
                        lane.dropped.to_image()
                    }
                })
            })
        })
        .collect();
    // The estimate phase is physically shared by the cohort; emit one
    // complete `recover.estimate` span per lane under its own trace so every
    // request's causal chain still shows the phase.
    let end = Instant::now();
    for lane in lanes {
        let _trace = lane.trace.map(dcdiff_telemetry::install_trace);
        tel.record_span(names::SPAN_RECOVER_ESTIMATE, start, end);
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_cache_reuses_per_config() {
        let mut cache = EngineCache::new();
        cache.engine(&RecoverMethod::Tip2006);
        cache.engine(&RecoverMethod::Tip2006);
        cache.engine(&RecoverMethod::Icip);
        cache.engine(&RecoverMethod::Mld { threshold: 10.0, sweeps: 5 });
        cache.engine(&RecoverMethod::Mld { threshold: 10.0, sweeps: 6 });
        assert_eq!(cache.misses, 4);
        assert_eq!(cache.hits, 1);
    }

    #[test]
    fn diffusion_engine_recovers_and_is_cached_per_step_count() {
        let tel = Telemetry::new();
        let mut cache = EngineCache::new();
        let method = RecoverMethod::Diffusion { ddim_steps: 2 };
        let dropped = dropped_coeffs();
        let image = recover_one(&dropped, &method, &mut cache, &tel).expect("healthy lane");
        assert_eq!(image.dims(), (32, 32));
        // The cache keys on ddim_steps: same count hits, different misses.
        recover_one(&dropped, &method, &mut cache, &tel).expect("healthy lane");
        assert_eq!((cache.misses, cache.hits), (1, 1));
        cache.engine(&RecoverMethod::Diffusion { ddim_steps: 3 });
        assert_eq!(cache.misses, 2);
    }

    #[test]
    fn diffusion_engine_clamps_illegal_step_counts() {
        // Zero steps would be rejected by the sampler; the engine clamps to
        // a legal count instead.
        let steps = |ddim_steps| match Engine::build(&RecoverMethod::Diffusion { ddim_steps }) {
            Engine::Diffusion { options, .. } => options.ddim_steps,
            _ => 0,
        };
        assert_eq!(steps(0), 1);
        assert_eq!(steps(usize::MAX), DcDiffConfig::default().diffusion_steps);
    }

    /// Test double standing in for a broken/mis-deployed recovery engine:
    /// panics on every call and counts how often it was even asked.
    struct PanickingRecovery(std::sync::Arc<std::sync::atomic::AtomicUsize>);

    impl DcRecovery for PanickingRecovery {
        fn name(&self) -> &'static str {
            "panicking-test-double"
        }

        fn recover(&self, dropped: &CoeffImage) -> Image {
            self.recover_coefficients(dropped).to_image()
        }

        fn recover_coefficients(&self, _dropped: &CoeffImage) -> CoeffImage {
            self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            panic!("injected engine failure");
        }
    }

    fn dropped_coeffs() -> CoeffImage {
        dropped_coeffs_filled(100.0)
    }

    fn dropped_coeffs_filled(level: f32) -> CoeffImage {
        let image = Image::filled(32, 32, dcdiff_image::ColorSpace::Rgb, level);
        JpegEncoder::new(50).to_coefficients(&image).drop_dc(DcDropMode::KeepCorners)
    }

    fn lane(dropped: &CoeffImage) -> CohortLane<'_> {
        CohortLane { dropped, deadline: None, trace: None }
    }

    /// The ladder over a width-1 cohort.
    fn recover_one(
        dropped: &CoeffImage,
        method: &RecoverMethod,
        cache: &mut EngineCache,
        tel: &Telemetry,
    ) -> Result<Image, JobFailure> {
        let mut out = recover_lanes(&[lane(dropped)], method, cache, tel);
        assert_eq!(out.len(), 1, "one result per lane");
        out.remove(0)
    }

    fn silence_panics<T>(f: impl FnOnce() -> T) -> T {
        // The injected engines panic by design; keep test output readable.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(prev);
        out
    }

    #[test]
    fn panicking_primary_degrades_to_baseline() {
        silence_panics(|| {
            let tel = Telemetry::new();
            let calls = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
            let mut cache = EngineCache::new();
            cache.inject(RecoverMethod::Icip, Box::new(PanickingRecovery(calls.clone())));
            let dropped = dropped_coeffs();
            let image = recover_one(&dropped, &RecoverMethod::Icip, &mut cache, &tel).unwrap();
            assert_eq!(image.dims(), (32, 32));
            assert_eq!(calls.load(std::sync::atomic::Ordering::SeqCst), 1);
            assert_eq!(tel.counter("estimator.primary_fail").get(), 1);
            assert_eq!(tel.counter("estimator.fallback_baseline").get(), 1);
            assert_eq!(tel.counter("estimator.fallback_flat").get(), 0);
        });
    }

    #[test]
    fn panicking_baseline_degrades_to_flat_dc() {
        silence_panics(|| {
            let tel = Telemetry::new();
            let calls = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
            let mut cache = EngineCache::new();
            // Both the selected method AND the baseline tier are broken.
            cache.inject(RecoverMethod::Tip2006, Box::new(PanickingRecovery(calls.clone())));
            let dropped = dropped_coeffs();
            let image = recover_one(&dropped, &RecoverMethod::Tip2006, &mut cache, &tel).unwrap();
            assert_eq!(image.dims(), (32, 32));
            assert_eq!(tel.counter("estimator.fallback_flat").get(), 1);
        });
    }

    #[test]
    fn breaker_short_circuits_after_consecutive_failures() {
        silence_panics(|| {
            let tel = Telemetry::new();
            let calls = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
            let policy = RecoveryPolicy {
                fallback: true,
                breaker: Arc::new(CircuitBreaker::new(2, Duration::from_secs(3600))),
            };
            let mut cache = EngineCache::with_policy(policy);
            cache.inject(RecoverMethod::Icip, Box::new(PanickingRecovery(calls.clone())));
            let dropped = dropped_coeffs();
            for _ in 0..4 {
                recover_one(&dropped, &RecoverMethod::Icip, &mut cache, &tel).unwrap();
            }
            // Two failures trip the breaker; the last two jobs never touch
            // the primary engine and go straight to the baseline tier.
            assert_eq!(calls.load(std::sync::atomic::Ordering::SeqCst), 2);
            assert_eq!(tel.counter("estimator.breaker_short_circuit").get(), 2);
            assert_eq!(tel.counter("estimator.fallback_baseline").get(), 4);
            assert_eq!(tel.gauge("breaker.state").get(), 2, "gauge reports open");
        });
    }

    #[test]
    fn panicking_lane_degrades_alone_in_a_wide_cohort() {
        silence_panics(|| {
            let tel = Telemetry::new();
            let calls = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
            let mut cache = EngineCache::new();
            cache.inject(RecoverMethod::Icip, Box::new(PanickingRecovery(calls.clone())));
            let inputs = [dropped_coeffs_filled(80.0), dropped_coeffs_filled(160.0)];
            let lanes: Vec<CohortLane<'_>> = inputs.iter().map(lane).collect();
            let out = recover_lanes(&lanes, &RecoverMethod::Icip, &mut cache, &tel);
            // Non-batched methods resolve lanes one by one inside the ladder.
            assert_eq!(calls.load(std::sync::atomic::Ordering::SeqCst), 2);
            assert!(out.iter().all(Result::is_ok));
            assert_eq!(tel.counter("estimator.fallback_baseline").get(), 2);
        });
    }

    #[test]
    fn no_fallback_surfaces_a_permanent_error() {
        silence_panics(|| {
            let tel = Telemetry::new();
            let calls = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
            let mut cache = EngineCache::with_policy(RecoveryPolicy::no_fallback());
            cache.inject(RecoverMethod::Icip, Box::new(PanickingRecovery(calls)));
            let dropped = dropped_coeffs();
            let err = match recover_one(&dropped, &RecoverMethod::Icip, &mut cache, &tel) {
                Err(JobFailure::Error(err)) => err,
                other => panic!("expected a job error, got {other:?}"),
            };
            assert_eq!(err.class, crate::job::ErrorClass::Permanent);
            assert!(err.message.contains("--no-fallback"), "{}", err.message);
            assert!(err.message.contains("injected engine failure"), "{}", err.message);
        });
    }

    #[test]
    fn healthy_method_does_not_degrade() {
        let tel = Telemetry::new();
        let mut cache = EngineCache::new();
        let dropped = dropped_coeffs();
        let image = recover_one(&dropped, &RecoverMethod::Tip2006, &mut cache, &tel).unwrap();
        assert_eq!(image.dims(), (32, 32));
        assert_eq!(tel.counter("estimator.primary_ok").get(), 1);
        assert_eq!(tel.counter("estimator.fallback_baseline").get(), 0);
        assert_eq!(tel.gauge("breaker.state").get(), 0, "gauge reports closed");
    }

    #[test]
    fn cohort_lanes_match_width_1_recoveries_bit_exactly() {
        let tel = Telemetry::new();
        let mut cache = EngineCache::new();
        let method = RecoverMethod::Diffusion { ddim_steps: 2 };
        // The sampler publishes cohort telemetry through the process-global
        // handle; sample before/after so parallel tests only help the delta.
        let widths_before = dcdiff_telemetry::global()
            .histogram("diffusion.batch.width")
            .snapshot()
            .count;
        let inputs = [dropped_coeffs_filled(80.0), dropped_coeffs_filled(160.0)];
        // Reference: each stream recovered alone.
        let solo: Vec<Image> = inputs
            .iter()
            .map(|dropped| recover_one(dropped, &method, &mut cache, &tel).expect("solo lane"))
            .collect();
        let lanes: Vec<CohortLane<'_>> = inputs.iter().map(lane).collect();
        let fused = recover_lanes(&lanes, &method, &mut cache, &tel);
        for (lane, reference) in fused.into_iter().zip(&solo) {
            let image = lane.expect("healthy lane recovers");
            assert_eq!(&image, reference, "cohort lane diverged from width-1 output");
        }
        assert_eq!(tel.counter("estimator.primary_ok").get(), 4);
        assert_eq!(tel.counter("estimator.fallback_baseline").get(), 0);
        let widths = dcdiff_telemetry::global().histogram("diffusion.batch.width").snapshot();
        assert!(widths.count > widths_before, "fused steps must observe cohort width");
        assert!(widths.max >= 2, "both lanes shared each forward");
    }

    #[test]
    fn expired_lane_is_evicted_without_aborting_batch_mates() {
        let tel = Telemetry::new();
        let mut cache = EngineCache::new();
        let survivor_input = dropped_coeffs_filled(120.0);
        let doomed_input = dropped_coeffs_filled(60.0);
        // Already expired: evicted at the first cooperative check.
        let expired = Some(Instant::now() - Duration::from_secs(1));
        for method in [RecoverMethod::Diffusion { ddim_steps: 2 }, RecoverMethod::Tip2006] {
            let reference = recover_one(&survivor_input, &method, &mut cache, &tel).unwrap();
            let lanes = [
                lane(&survivor_input),
                CohortLane { deadline: expired, ..lane(&doomed_input) },
            ];
            let mut fused = recover_lanes(&lanes, &method, &mut cache, &tel);
            let doomed = fused.pop().unwrap();
            let survivor = fused.pop().unwrap();
            assert_eq!(doomed, Err(JobFailure::DeadlineExceeded), "{}", method.name());
            assert_eq!(survivor.expect("survivor recovers"), reference);
        }
        // Eviction is the lane's budget, not an engine fault: no breaker
        // failure, no fallback tier.
        assert_eq!(tel.counter("estimator.primary_fail").get(), 0);
        assert_eq!(tel.counter("estimator.fallback_baseline").get(), 0);
    }

    #[test]
    fn missing_input_is_permanent() {
        let mut cache = EngineCache::new();
        let job = Job::Metrics {
            reference: "/nonexistent/ref.ppm".into(),
            test: "/nonexistent/test.ppm".into(),
        };
        let err = execute(&job, &mut cache, &Telemetry::new()).unwrap_err();
        assert_eq!(err.class, crate::job::ErrorClass::Permanent);
        assert!(err.message.contains("/nonexistent/ref.ppm"), "{}", err.message);
    }
}
