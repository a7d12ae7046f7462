//! The batch-serving execution engine: a fixed worker pool pulling from a
//! bounded queue, with micro-batching of Recover jobs, deadline enforcement,
//! bounded retry with exponential backoff, and drain/abort shutdown.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dcdiff_jpeg::CoeffImage;
use dcdiff_telemetry::{names, Telemetry};

use crate::exec::{
    decode_recover_input, execute, recover_lanes, write_recover_output, CohortLane, EngineCache,
    RecoveryPolicy,
};
use crate::job::{
    ErrorClass, Job, JobError, JobFailure, JobId, JobOutput, JobResult, JobSpec, RecoverMethod,
    Stage,
};
use crate::queue::{BoundedQueue, PushError};
use crate::stats::{RtMetrics, StatsSnapshot};

/// Tunables for a [`Runtime`].
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Worker thread count (at least 1). Defaults to the machine's
    /// available parallelism so batch serving uses every core out of the
    /// box; override for deterministic single-threaded runs.
    pub workers: usize,
    /// Bounded queue capacity — the backpressure point.
    pub queue_cap: usize,
    /// Default transient-failure retry budget for [`Runtime::submit`] with a
    /// bare [`Job`] (specs carry their own budget).
    pub default_retries: u32,
    /// First retry backoff; attempt `n` waits `backoff_base * 2^(n-1)`.
    pub backoff_base: Duration,
    /// Largest micro-batch a worker may gather (1 disables batching).
    pub batch_max: usize,
    /// Widest cross-request DDIM cohort a worker may fuse into shared U-Net
    /// forwards (`dcdiff batch`/`serve` `--batch-width`). Concurrent
    /// Diffusion Recover jobs sharing a step count are stacked along the
    /// batch dimension, so one forward per DDIM step serves the whole
    /// cohort; per-lane content seeding keeps each result bit-identical to
    /// a width-1 run. Cohorts are carved from the already-assembled
    /// micro-batch, so a partial cohort flushes immediately rather than
    /// waiting for more traffic; `1` runs every job as its own width-1
    /// cohort. Effective width is also capped by `batch_max`.
    pub diffusion_batch_width: usize,
    /// Observability handle: span tracing (when enabled), latency
    /// histograms, the `runtime.queue_depth` gauge and the rate-limited
    /// logger. The default is a metrics-only handle, so leaving this alone
    /// adds no tracing overhead.
    pub telemetry: Telemetry,
    /// Degradation policy for Recover jobs: the ladder (method → TIP-2006
    /// baseline → flat DC) and the per-runtime circuit breaker in front of
    /// the primary method. The breaker's `Arc` is shared by every worker,
    /// so consecutive failures accumulate runtime-wide.
    /// [`RecoveryPolicy::no_fallback`] (`dcdiff batch --no-fallback`) fails
    /// jobs instead of degrading them.
    pub recovery: RecoveryPolicy,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            queue_cap: 64,
            default_retries: 0,
            backoff_base: Duration::from_millis(10),
            batch_max: 8,
            diffusion_batch_width: 8,
            telemetry: Telemetry::new(),
            recovery: RecoveryPolicy::default(),
        }
    }
}

impl RuntimeConfig {
    /// Config with `workers` threads and defaults elsewhere.
    pub fn with_workers(workers: usize) -> Self {
        RuntimeConfig { workers: workers.max(1), ..RuntimeConfig::default() }
    }
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// Fail-fast submit against a full queue (load shedding).
    QueueFull,
    /// The runtime is shutting down.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "queue full"),
            SubmitError::ShuttingDown => write!(f, "runtime shutting down"),
        }
    }
}

/// How [`Runtime::shutdown`] treats queued jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShutdownMode {
    /// Complete every accepted job, then stop.
    Drain,
    /// Finish only in-flight work; queued jobs are rejected with
    /// [`JobFailure::Rejected`].
    Abort,
}

/// Internal queue entry.
struct Queued {
    id: JobId,
    job: Job,
    submitted: Instant,
    deadline: Option<Instant>,
    max_retries: u32,
    ingest: Option<Duration>,
    /// Trace context carried across the queue so worker-side spans join the
    /// submitter's causal chain (see [`JobSpec::with_trace`]).
    trace: Option<dcdiff_telemetry::TraceCtx>,
    /// Watched submissions deliver their result here instead of the
    /// shutdown report (see [`Runtime::submit_watched`]).
    notify: Option<ResultHandle>,
}

#[derive(Debug, Default)]
struct SlotInner {
    result: Mutex<Option<JobResult>>,
    ready: Condvar,
}

/// Waitable handle to one watched job's eventual [`JobResult`].
///
/// Returned by [`Runtime::submit_watched`]. The result is delivered exactly
/// once — on completion, on deadline miss, or as [`JobFailure::Rejected`]
/// when an abort shutdown sheds the job while queued — and is *taken* by the
/// first waiter that sees it. Watched results never appear in the
/// [`RuntimeReport`], which keeps a long-lived server's memory flat instead
/// of accumulating every response it ever sent.
#[derive(Debug, Clone, Default)]
pub struct ResultHandle {
    slot: Arc<SlotInner>,
}

impl ResultHandle {
    fn fulfill(&self, result: JobResult) {
        let mut slot = self
            .slot
            .result
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *slot = Some(result);
        drop(slot);
        self.slot.ready.notify_all();
    }

    /// Take the result if it has already been delivered.
    pub fn try_take(&self) -> Option<JobResult> {
        self.slot
            .result
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
    }

    /// Block until the result arrives or `timeout` elapses; `None` on
    /// timeout (the job is still owned by the runtime and will deliver
    /// later — a subsequent wait can still take it).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<JobResult> {
        let deadline = Instant::now() + timeout;
        let mut slot = self
            .slot
            .result
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        while slot.is_none() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            slot = self
                .slot
                .ready
                .wait_timeout(slot, left)
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .0;
        }
        slot.take()
    }
}

/// Final report of a runtime's lifetime.
#[derive(Debug, Clone)]
pub struct RuntimeReport {
    /// Per-job results, in completion order.
    pub results: Vec<JobResult>,
    /// What the runtime's registry counted between start and shutdown.
    pub stats: StatsSnapshot,
}

impl RuntimeReport {
    /// Result for a given job id, if it was accepted.
    pub fn result(&self, id: JobId) -> Option<&JobResult> {
        self.results.iter().find(|r| r.id == id)
    }
}

/// Multi-threaded batch-serving runtime for DCDiff pipelines.
///
/// ```
/// use dcdiff_runtime::{Job, Runtime, RuntimeConfig, ShutdownMode};
///
/// let runtime = Runtime::start(RuntimeConfig::with_workers(2));
/// // Submissions fail cleanly on missing files rather than panicking.
/// let id = runtime
///     .submit_blocking(Job::Metrics { reference: "missing-a.ppm".into(), test: "missing-b.ppm".into() })
///     .unwrap();
/// let report = runtime.shutdown(ShutdownMode::Drain);
/// assert!(report.result(id).unwrap().outcome.is_err());
/// assert_eq!(report.stats.submitted, 1);
/// ```
pub struct Runtime {
    queue: Arc<BoundedQueue<Queued>>,
    results: Arc<Mutex<Vec<JobResult>>>,
    workers: Vec<JoinHandle<()>>,
    next_id: AtomicU64,
    config: RuntimeConfig,
    rt: RtMetrics,
    /// Registry totals when this runtime started; the report counts from
    /// here, so runtimes sharing one `Telemetry` in sequence each report
    /// only their own jobs.
    start: StatsSnapshot,
}

impl Runtime {
    /// Start `config.workers` worker threads.
    pub fn start(config: RuntimeConfig) -> Self {
        let queue = Arc::new(BoundedQueue::new(config.queue_cap));
        let results = Arc::new(Mutex::new(Vec::new()));
        let rt = RtMetrics::new(&config.telemetry);
        // A high-water mark cannot be differenced like the counters, so each
        // runtime restarts it.
        rt.queue_high_water.set(0);
        let start = rt.totals();
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let queue = Arc::clone(&queue);
                let results = Arc::clone(&results);
                let config = config.clone();
                let rt = rt.clone();
                std::thread::Builder::new()
                    .name(format!("dcdiff-worker-{i}"))
                    .spawn(move || worker_loop(i, &queue, &results, &config, &rt))
                    // analysis: allow(no-panic) — one-time startup: failing to create worker threads is unrecoverable resource exhaustion, not a job-path error
                    .expect("spawn worker thread")
            })
            .collect();
        Runtime {
            queue,
            results,
            workers,
            next_id: AtomicU64::new(1),
            config,
            rt,
            start,
        }
    }

    /// The configuration this runtime started with.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    fn enqueue(
        &self,
        spec: JobSpec,
        notify: Option<ResultHandle>,
        push: impl FnOnce(&BoundedQueue<Queued>, Queued) -> Result<(), PushError>,
    ) -> Result<JobId, SubmitError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let now = Instant::now();
        let entry = Queued {
            id,
            job: spec.job,
            submitted: now,
            deadline: spec.deadline.map(|d| now + d),
            max_retries: spec.max_retries,
            ingest: spec.ingest,
            trace: spec.trace,
            notify,
        };
        match push(&self.queue, entry) {
            Ok(()) => {
                self.rt.submitted.inc();
                let depth = self.queue.len() as i64;
                self.rt.queue_high_water.fetch_max(depth);
                self.rt.queue_depth.set(depth);
                Ok(id)
            }
            Err(PushError::Full) => {
                self.rt.rejected.inc();
                self.config.telemetry.warn(format!("job {id} rejected: queue full"));
                Err(SubmitError::QueueFull)
            }
            Err(PushError::Closed) => Err(SubmitError::ShuttingDown),
        }
    }

    /// Fail-fast submission: rejects immediately when the queue is full.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] under backpressure,
    /// [`SubmitError::ShuttingDown`] after shutdown began.
    pub fn submit(&self, spec: impl Into<JobSpec>) -> Result<JobId, SubmitError> {
        let mut spec = spec.into();
        if spec.max_retries == 0 {
            spec.max_retries = self.config.default_retries;
        }
        self.enqueue(spec, None, BoundedQueue::try_push)
    }

    /// Blocking submission: waits for queue space.
    ///
    /// # Errors
    ///
    /// [`SubmitError::ShuttingDown`] after shutdown began.
    pub fn submit_blocking(&self, spec: impl Into<JobSpec>) -> Result<JobId, SubmitError> {
        let mut spec = spec.into();
        if spec.max_retries == 0 {
            spec.max_retries = self.config.default_retries;
        }
        self.enqueue(spec, None, BoundedQueue::push_blocking)
    }

    /// Fail-fast *watched* submission for long-lived callers (the serve
    /// front door): the job's result is delivered to the returned
    /// [`ResultHandle`] the moment it completes instead of accumulating in
    /// the shutdown report. Every accepted watched job is guaranteed exactly
    /// one delivery: completion, deadline miss, or [`JobFailure::Rejected`]
    /// under an abort shutdown.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] under backpressure,
    /// [`SubmitError::ShuttingDown`] after shutdown began.
    pub fn submit_watched(
        &self,
        spec: impl Into<JobSpec>,
    ) -> Result<(JobId, ResultHandle), SubmitError> {
        let mut spec = spec.into();
        if spec.max_retries == 0 {
            spec.max_retries = self.config.default_retries;
        }
        let handle = ResultHandle::default();
        let id = self.enqueue(spec, Some(handle.clone()), BoundedQueue::try_push)?;
        Ok((id, handle))
    }

    /// Current queue depth (jobs accepted but not yet popped by a worker).
    /// Admission-control input for the serve front door.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// The bounded queue's capacity — the backpressure point.
    pub fn queue_capacity(&self) -> usize {
        self.queue.capacity()
    }

    /// Stop the runtime and collect every result.
    ///
    /// [`ShutdownMode::Drain`] completes all accepted jobs;
    /// [`ShutdownMode::Abort`] finishes only in-flight work and records
    /// queued jobs as [`JobFailure::Rejected`].
    pub fn shutdown(self, mode: ShutdownMode) -> RuntimeReport {
        match mode {
            ShutdownMode::Drain => {
                self.queue.close();
            }
            ShutdownMode::Abort => {
                let shed = self.queue.close_and_take();
                let now = Instant::now();
                for entry in shed {
                    self.rt.rejected.inc();
                    let result = JobResult {
                        id: entry.id,
                        job: entry.job,
                        outcome: Err(JobFailure::Rejected),
                        wall: now.duration_since(entry.submitted),
                        exec: Duration::ZERO,
                        attempts: 0,
                    };
                    match entry.notify {
                        Some(handle) => handle.fulfill(result),
                        None => lock_results(&self.results).push(result),
                    }
                }
                self.rt.queue_depth.set(0);
            }
        }
        for worker in self.workers {
            // Workers never panic on job errors; a panic here is a runtime
            // bug. Log it loudly instead of re-panicking so the results
            // the other workers completed still reach the caller.
            if worker.join().is_err() {
                self.config
                    .telemetry
                    .error("worker thread panicked; returning completed results");
            }
        }
        let results = std::mem::take(&mut *lock_results(&self.results));
        RuntimeReport { results, stats: self.rt.totals().since(&self.start) }
    }
}

fn lock_results<'a>(
    results: &'a Mutex<Vec<JobResult>>,
) -> std::sync::MutexGuard<'a, Vec<JobResult>> {
    results.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Body of one worker thread.
fn worker_loop(
    worker: usize,
    queue: &BoundedQueue<Queued>,
    results: &Mutex<Vec<JobResult>>,
    config: &RuntimeConfig,
    rt: &RtMetrics,
) {
    let tel = &config.telemetry;
    // Per-worker utilisation: cumulative busy time (pop to batch done).
    let busy_us = tel.gauge(&names::worker_busy_gauge(worker));
    let mut engines = EngineCache::with_policy(config.recovery.clone());
    while let Some(first) = queue.pop() {
        let popped = Instant::now();
        // Depth as this worker saw it: the remaining queue plus the entry
        // just taken, so a lone job still registers depth 1.
        let depth = queue.len() as i64 + 1;
        rt.queue_high_water.fetch_max(depth);
        rt.queue_depth.set(queue.len() as i64);
        let mut batch = vec![first];
        // Micro-batch: pull queued Recover jobs that share the leader's
        // method config, so one engine serves the whole batch.
        if config.batch_max > 1 {
            if let Some(method) = batch[0].job.recover_method().copied() {
                let assemble = tel.span(names::SPAN_BATCH_ASSEMBLE);
                let extras = queue.take_matching(config.batch_max - 1, |q| {
                    q.job
                        .recover_method()
                        .is_some_and(|m| m.same_config(&method))
                });
                drop(assemble);
                batch.extend(extras);
                // Batch assembly removed entries without going through pop,
                // so republish the true remaining depth.
                rt.queue_depth.set(queue.len() as i64);
            }
        }
        // Queue wait spans cross threads (begun on the submitter, finished
        // here), so they are emitted as single complete events. Each entry's
        // trace context is installed for its own event so batched requests
        // from different callers keep distinct causal chains.
        for entry in &batch {
            let waited = popped.saturating_duration_since(entry.submitted);
            rt.queue_wait.record_duration(waited);
            let _trace = entry.trace.map(dcdiff_telemetry::install_trace);
            tel.record_span(names::SPAN_QUEUE_WAIT, entry.submitted, popped);
        }
        rt.batch_size.record(batch.len() as u64);
        let exec_span = tel.span(names::SPAN_BATCH_EXEC);
        match batch[0].job.recover_method().copied() {
            // Every Recover job runs as a lane of a cohort. Diffusion lanes
            // fuse up to `diffusion_batch_width` per cohort, one U-Net
            // forward per DDIM step for every lane; the other methods have
            // no batched estimate, so each of their jobs is a width-1 cohort
            // and is delivered as soon as it is written.
            Some(method) => {
                let width = match method {
                    RecoverMethod::Diffusion { .. } => config.diffusion_batch_width.max(1),
                    _ => 1,
                };
                while !batch.is_empty() {
                    let take = batch.len().min(width);
                    let cohort: Vec<Queued> = batch.drain(..take).collect();
                    run_cohort(&method, cohort, results, config, rt, &mut engines);
                }
            }
            None => {
                for mut entry in batch {
                    let notify = entry.notify.take();
                    // Re-install the submitter's trace for the execution
                    // spans emitted on this thread.
                    let _trace = entry.trace.map(dcdiff_telemetry::install_trace);
                    let result = run_one(entry, config, rt, &mut engines);
                    finish(result, notify, rt, results);
                }
            }
        }
        drop(exec_span);
        // Republish the depth after the batch completes so the gauge decays
        // to zero when the runtime drains to idle between bursts, instead of
        // freezing at the last pre-pop observation.
        rt.queue_depth.set(queue.len() as i64);
        busy_us.add(popped.elapsed().as_micros() as i64);
    }
}

/// Deliver one terminal [`JobResult`]: bump completion counters, then either
/// fulfill the watched handle or append to the shutdown report.
fn finish(
    result: JobResult,
    notify: Option<ResultHandle>,
    rt: &RtMetrics,
    results: &Mutex<Vec<JobResult>>,
) {
    if result.is_ok() {
        rt.completed.inc();
    } else {
        rt.failed.inc();
    }
    match notify {
        Some(handle) => handle.fulfill(result),
        None => lock_results(results).push(result),
    }
}

/// The gate every job passes before it starts: a job whose deadline has
/// already passed fails without executing.
fn missed_start(entry: &Queued, rt: &RtMetrics, tel: &Telemetry) -> Option<JobResult> {
    if entry.deadline.is_none_or(|deadline| Instant::now() <= deadline) {
        return None;
    }
    rt.deadline_missed.inc();
    tel.warn(format!("job {} missed its deadline before starting", entry.id));
    Some(JobResult {
        id: entry.id,
        job: entry.job.clone(),
        outcome: Err(JobFailure::DeadlineExceeded),
        wall: entry.submitted.elapsed(),
        exec: Duration::ZERO,
        attempts: 0,
    })
}

/// Whether a failed attempt gets another one: transient errors retry while
/// the budget lasts and the deadline has not passed.
fn retryable(err: &JobError, attempts: u32, entry: &Queued) -> bool {
    err.class == ErrorClass::Transient
        && attempts <= entry.max_retries
        && entry.deadline.is_none_or(|d| Instant::now() <= d)
}

/// Exponential backoff before retry attempt `attempts + 1`:
/// `base * 2^(attempts-1)`, capped at 2^10 to keep the worst sleep bounded.
fn backoff(config: &RuntimeConfig, attempts: u32) -> Duration {
    config.backoff_base * 2u32.pow((attempts - 1).min(10))
}

/// The input and output paths of a Recover job.
fn recover_io(job: &Job) -> Result<(&str, &str), JobError> {
    match job {
        Job::Recover { input, output, .. } => Ok((input, output)),
        _ => Err(JobError::permanent("not a Recover job")),
    }
}

/// One Recover lane of a cohort: its queue entry, where its result goes, and
/// its progress.
struct Lane {
    entry: Queued,
    notify: Option<ResultHandle>,
    /// When the lane passed the deadline gate: the start of its job span.
    began: Instant,
    attempts: u32,
}

/// Execute a cohort of same-config Recover jobs, K ≥ 1: the one way any
/// Recover job runs.
///
/// Per lane, in arrival order: the deadline gate, then the ingest stall.
/// Then attempt rounds over the lanes still pending: read and entropy-decode
/// each lane, estimate every decoded lane with one call into the
/// degradation ladder [`recover_lanes`] (a shared batched estimate for
/// diffusion), and write each lane. A lane whose read, decode or write fails
/// transiently retries in the next round after an exponential backoff, while
/// its budget and deadline last; every other outcome is delivered as soon as
/// its round ends. A lane whose deadline expires mid-flight is evicted with
/// [`JobFailure::DeadlineExceeded`] without aborting its batch-mates.
///
/// A lane's `exec` is the time from the start of its last round — after
/// every ingest stall or backoff — until its outcome, so it never includes
/// a stall, its own or a batch-mate's.
fn run_cohort(
    method: &RecoverMethod,
    cohort: Vec<Queued>,
    results: &Mutex<Vec<JobResult>>,
    config: &RuntimeConfig,
    rt: &RtMetrics,
    engines: &mut EngineCache,
) {
    let tel = &config.telemetry;
    let mut pending: Vec<Lane> = Vec::with_capacity(cohort.len());
    for mut entry in cohort {
        let notify = entry.notify.take();
        let _trace = entry.trace.map(dcdiff_telemetry::install_trace);
        if let Some(missed) = missed_start(&entry, rt, tel) {
            finish(missed, notify, rt, results);
            continue;
        }
        let began = Instant::now();
        if let Some(stall) = entry.ingest {
            // Simulated sender-uplink wait (see `JobSpec::ingest`). It counts
            // against the wall clock but not `exec`; like execution itself it
            // is not preempted by the deadline once started.
            let _ingest = tel.span(names::SPAN_JOB_INGEST);
            std::thread::sleep(stall);
        }
        pending.push(Lane { entry, notify, began, attempts: 0 });
    }

    while !pending.is_empty() {
        let round = Instant::now();
        let mut resolved: Vec<(Lane, Result<JobOutput, JobFailure>, Duration)> = Vec::new();
        let mut live: Vec<(Lane, CoeffImage)> = Vec::new();
        for mut lane in pending {
            lane.attempts += 1;
            let _trace = lane.entry.trace.map(dcdiff_telemetry::install_trace);
            let decoded = recover_io(&lane.entry.job)
                .and_then(|(input, _)| decode_recover_input(input, tel));
            match decoded {
                Ok(dropped) => live.push((lane, dropped)),
                Err(err) => resolved.push((lane, Err(JobFailure::Error(err)), round.elapsed())),
            }
        }
        let lanes: Vec<CohortLane<'_>> = live
            .iter()
            .map(|(lane, dropped)| CohortLane {
                dropped,
                deadline: lane.entry.deadline,
                trace: lane.entry.trace,
            })
            .collect();
        let estimates = recover_lanes(&lanes, method, engines, tel);
        for ((lane, _), estimate) in live.into_iter().zip(estimates) {
            let _trace = lane.entry.trace.map(dcdiff_telemetry::install_trace);
            let outcome = estimate.and_then(|image| {
                recover_io(&lane.entry.job)
                    .and_then(|(_, output)| {
                        write_recover_output(output, &image, tel)?;
                        Ok(JobOutput::Recovered { output: output.to_string() })
                    })
                    .map_err(JobFailure::Error)
            });
            resolved.push((lane, outcome, round.elapsed()));
        }

        let mut retry: Vec<Lane> = Vec::new();
        for (lane, outcome, exec) in resolved {
            let _trace = lane.entry.trace.map(dcdiff_telemetry::install_trace);
            let id = lane.entry.id;
            rt.stage[Stage::Recover.index()].record_duration(exec);
            match &outcome {
                Err(JobFailure::Error(err)) if retryable(err, lane.attempts, &lane.entry) => {
                    rt.retries.inc();
                    tel.warn(format!(
                        "job {id} attempt {} failed transiently ({}), retrying",
                        lane.attempts, err.message
                    ));
                    retry.push(lane);
                    continue;
                }
                Err(JobFailure::Error(err)) => tel.error(format!(
                    "job {id} failed after {} attempt(s): {}",
                    lane.attempts, err.message
                )),
                Err(JobFailure::DeadlineExceeded) => {
                    rt.deadline_missed.inc();
                    tel.warn(format!("job {id} evicted: deadline exceeded during recovery"));
                }
                _ => {}
            }
            rt.job_wall.record_duration(lane.entry.submitted.elapsed());
            tel.record_span(names::SPAN_JOB_RECOVER, lane.began, Instant::now());
            let result = JobResult {
                id,
                job: lane.entry.job,
                outcome,
                wall: lane.entry.submitted.elapsed(),
                exec,
                attempts: lane.attempts,
            };
            finish(result, lane.notify, rt, results);
        }

        // Lanes retrying together share their attempt count, so one backoff
        // serves the round.
        if let Some(attempts) = retry.first().map(|lane| lane.attempts) {
            let slept = Instant::now();
            std::thread::sleep(backoff(config, attempts));
            let woke = Instant::now();
            for lane in &retry {
                let _trace = lane.entry.trace.map(dcdiff_telemetry::install_trace);
                tel.record_span(names::SPAN_JOB_BACKOFF, slept, woke);
            }
        }
        pending = retry;
    }
}

/// Trace span name for a job of the given stage.
fn stage_span_name(stage: Stage) -> &'static str {
    match stage {
        Stage::Encode => names::SPAN_JOB_ENCODE,
        Stage::Transcode => names::SPAN_JOB_TRANSCODE,
        Stage::Recover => names::SPAN_JOB_RECOVER,
        Stage::Metrics => names::SPAN_JOB_METRICS,
    }
}

/// Execute one non-Recover queue entry: deadline gate, bounded retries,
/// timing.
fn run_one(
    entry: Queued,
    config: &RuntimeConfig,
    rt: &RtMetrics,
    engines: &mut EngineCache,
) -> JobResult {
    let tel = &config.telemetry;
    if let Some(missed) = missed_start(&entry, rt, tel) {
        return missed;
    }
    let _job_span = tel.span(stage_span_name(entry.job.stage()));
    if let Some(stall) = entry.ingest {
        // Simulated sender-uplink wait, as in `run_cohort`.
        let _ingest = tel.span(names::SPAN_JOB_INGEST);
        std::thread::sleep(stall);
    }
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let start = Instant::now();
        let outcome = execute(&entry.job, engines, tel);
        let exec = start.elapsed();
        let stage = entry.job.stage();
        rt.stage[stage.index()].record_duration(exec);
        let outcome = match outcome {
            Err(err) if retryable(&err, attempts, &entry) => {
                rt.retries.inc();
                tel.warn(format!(
                    "job {} attempt {attempts} failed transiently ({}), retrying",
                    entry.id, err.message
                ));
                let _backoff = tel.span(names::SPAN_JOB_BACKOFF);
                std::thread::sleep(backoff(config, attempts));
                continue;
            }
            Err(err) => {
                tel.error(format!(
                    "job {} failed after {attempts} attempt(s): {}",
                    entry.id, err.message
                ));
                Err(JobFailure::Error(err))
            }
            Ok(output) => Ok(output),
        };
        rt.job_wall.record_duration(entry.submitted.elapsed());
        return JobResult {
            id: entry.id,
            job: entry.job,
            outcome,
            wall: entry.submitted.elapsed(),
            exec,
            attempts,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Job, JobFailure, JobSpec, RecoverMethod};

    fn metrics_job(tag: &str) -> Job {
        // Nonexistent inputs: executes quickly and fails permanently, which
        // is exactly what scheduler-level tests need.
        Job::Metrics {
            reference: format!("/nonexistent/{tag}-ref.ppm"),
            test: format!("/nonexistent/{tag}-test.ppm"),
        }
    }

    /// A Metrics job that succeeds: it compares one real image, written
    /// under the temp dir, with itself.
    fn passing_metrics_job(tag: &str) -> Job {
        let path = std::env::temp_dir()
            .join(format!("dcdiff-runtime-{tag}-{}.ppm", std::process::id()));
        let image = dcdiff_image::Image::filled(16, 16, dcdiff_image::ColorSpace::Rgb, 90.0);
        dcdiff_image::write_ppm(&path, &image).expect("write test image");
        let path = path.to_string_lossy().into_owned();
        Job::Metrics { reference: path.clone(), test: path }
    }

    /// Run one single-worker runtime through every event its report counts:
    /// a completed job, a two-job batch, a deadline miss, a fail-fast
    /// rejection and an abort-shed job.
    fn run_counted_events(tel: &Telemetry, tag: &str) -> RuntimeReport {
        let runtime = Runtime::start(RuntimeConfig {
            workers: 1,
            queue_cap: 5,
            batch_max: 8,
            telemetry: tel.clone(),
            ..RuntimeConfig::default()
        });
        let recover = |i: usize| Job::Recover {
            input: format!("/nonexistent/{tag}-{i}.jpg"),
            output: format!("/nonexistent/{tag}-{i}.ppm"),
            method: RecoverMethod::Tip2006,
        };
        // The leader's ingest stall holds the worker while five jobs fill
        // the queue behind it: two Recover jobs that batch together, an
        // expired deadline, a second stall and the job the abort sheds.
        let stall = |job: Job, ms: u64| JobSpec::new(job).with_ingest(Duration::from_millis(ms));
        runtime.submit_blocking(stall(passing_metrics_job(tag), 300)).unwrap();
        runtime.submit_blocking(recover(0)).unwrap();
        runtime.submit_blocking(recover(1)).unwrap();
        runtime
            .submit_blocking(JobSpec::new(metrics_job(tag)).with_deadline(Duration::ZERO))
            .unwrap();
        runtime.submit_blocking(stall(metrics_job(tag), 400)).unwrap();
        runtime.submit_blocking(metrics_job(tag)).unwrap();
        // The queue is at capacity until the leader's stall ends.
        assert_eq!(runtime.submit(metrics_job(tag)), Err(SubmitError::QueueFull));
        // Abort while the worker sits in the second stall, with one job
        // still queued behind it.
        let deadline = Instant::now() + Duration::from_secs(30);
        while runtime.queue_depth() != 1 {
            assert!(Instant::now() < deadline, "worker never reached the second stall");
            std::thread::sleep(Duration::from_millis(1));
        }
        runtime.shutdown(ShutdownMode::Abort)
    }

    /// The counts every [`run_counted_events`] report must carry.
    fn assert_counted_events(stats: &StatsSnapshot) {
        assert_eq!(stats.submitted, 6);
        assert_eq!(stats.completed, 1);
        // Both Recover jobs, the deadline miss and the second stall's job.
        assert_eq!(stats.failed, 4);
        assert_eq!(stats.rejected, 2, "one fail-fast rejection, one abort-shed job");
        assert_eq!(stats.deadline_missed, 1);
        assert_eq!(stats.retried, 0);
        assert_eq!(stats.batches, 4);
        assert_eq!(stats.batched_jobs, 2);
        assert_eq!(stats.queue_high_water, 5);
        assert_eq!(stats.stage_jobs[Stage::Metrics.index()], 2);
        assert_eq!(stats.stage_jobs[Stage::Recover.index()], 2);
    }

    #[test]
    fn report_stats_equal_the_registry_counters() {
        let tel = Telemetry::new();
        let report = run_counted_events(&tel, "reg");
        let stats = report.stats;
        assert_counted_events(&stats);
        let counter = |name: &str| tel.counter(name).get();
        assert_eq!(stats.submitted, counter(names::CTR_SUBMITTED));
        assert_eq!(stats.completed, counter(names::CTR_COMPLETED));
        assert_eq!(stats.failed, counter(names::CTR_FAILED));
        assert_eq!(stats.rejected, counter(names::CTR_REJECTED));
        assert_eq!(stats.deadline_missed, counter(names::CTR_DEADLINE_MISSED));
        assert_eq!(stats.retried, counter(names::CTR_RETRIES));
        assert_eq!(stats.queue_high_water as i64, tel.gauge(names::GAUGE_QUEUE_HIGH_WATER).get());
        assert_eq!(stats.batches, tel.histogram(names::HIST_BATCH_SIZE).count());
        let recover = tel.histogram(names::HIST_STAGE_RECOVER_US);
        assert_eq!(stats.stage_jobs[Stage::Recover.index()], recover.count());
        assert_eq!(stats.stage_ns[Stage::Recover.index()], recover.sum() * 1000);
    }

    #[test]
    fn runtimes_sharing_telemetry_each_report_only_their_own_jobs() {
        let tel = Telemetry::new();
        let first = run_counted_events(&tel, "seq0").stats;
        let second = run_counted_events(&tel, "seq1").stats;
        assert_counted_events(&first);
        assert_counted_events(&second);
        // The registry keeps counting across both.
        assert_eq!(tel.counter(names::CTR_SUBMITTED).get(), first.submitted + second.submitted);
        assert_eq!(tel.counter(names::CTR_REJECTED).get(), first.rejected + second.rejected);
        assert_eq!(tel.histogram(names::HIST_BATCH_SIZE).count(), first.batches + second.batches);
    }

    #[test]
    fn drain_completes_all_accepted_jobs() {
        let runtime = Runtime::start(RuntimeConfig {
            workers: 3,
            queue_cap: 32,
            ..RuntimeConfig::default()
        });
        let ids: Vec<_> = (0..10)
            .map(|i| runtime.submit_blocking(metrics_job(&format!("d{i}"))).unwrap())
            .collect();
        let report = runtime.shutdown(ShutdownMode::Drain);
        assert_eq!(report.results.len(), 10);
        for id in ids {
            let result = report.result(id).expect("result recorded");
            // Permanent error, never retried, exactly one attempt.
            assert_eq!(result.attempts, 1);
            assert!(matches!(result.outcome, Err(JobFailure::Error(_))));
        }
        assert_eq!(report.stats.submitted, 10);
        assert_eq!(report.stats.failed, 10);
        assert_eq!(report.stats.rejected, 0);
    }

    #[test]
    fn fail_fast_submit_sheds_load() {
        // Zero workers is clamped to one; stall it with a deliberately slow
        // first job? Simpler: tiny queue and no workers started yet is not
        // possible, so rely on capacity 1 + many instant submits racing the
        // single worker. At least one must be rejected when all are submitted
        // before the worker can drain them — guarantee it by filling the
        // queue while the worker chews on the first job.
        let runtime = Runtime::start(RuntimeConfig {
            workers: 1,
            queue_cap: 1,
            ..RuntimeConfig::default()
        });
        let mut accepted = 0u32;
        let mut rejected = 0u32;
        for i in 0..200 {
            match runtime.submit(metrics_job(&format!("f{i}"))) {
                Ok(_) => accepted += 1,
                Err(SubmitError::QueueFull) => rejected += 1,
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        assert!(rejected > 0, "capacity-1 queue must shed under a 200-job burst");
        let report = runtime.shutdown(ShutdownMode::Drain);
        assert_eq!(report.results.len() as u32, accepted);
        assert_eq!(report.stats.rejected as u32, rejected);
    }

    #[test]
    fn abort_rejects_queued_jobs_with_distinct_error() {
        let runtime = Runtime::start(RuntimeConfig {
            workers: 1,
            queue_cap: 64,
            ..RuntimeConfig::default()
        });
        for i in 0..40 {
            runtime.submit_blocking(metrics_job(&format!("a{i}"))).unwrap();
        }
        let report = runtime.shutdown(ShutdownMode::Abort);
        assert_eq!(report.results.len(), 40, "every accepted job gets a result");
        let rejected = report
            .results
            .iter()
            .filter(|r| matches!(r.outcome, Err(JobFailure::Rejected)))
            .count();
        let executed = report.results.len() - rejected;
        assert_eq!(report.stats.rejected as usize, rejected);
        assert_eq!(
            (report.stats.completed + report.stats.failed) as usize,
            executed
        );
        // Rejected jobs never ran.
        assert!(report
            .results
            .iter()
            .filter(|r| matches!(r.outcome, Err(JobFailure::Rejected)))
            .all(|r| r.attempts == 0));
    }

    #[test]
    fn expired_deadline_fails_without_executing() {
        let runtime = Runtime::start(RuntimeConfig {
            workers: 1,
            queue_cap: 8,
            ..RuntimeConfig::default()
        });
        let spec = JobSpec::new(metrics_job("dl")).with_deadline(Duration::ZERO);
        let id = runtime.submit_blocking(spec).unwrap();
        // The zero deadline has passed by the time any worker can look.
        let report = runtime.shutdown(ShutdownMode::Drain);
        let result = report.result(id).unwrap();
        assert_eq!(result.outcome, Err(JobFailure::DeadlineExceeded));
        assert_eq!(result.attempts, 0);
        assert_eq!(report.stats.deadline_missed, 1);
    }

    #[test]
    fn telemetry_observes_queue_wait_depth_and_stage_latency() {
        let tel = Telemetry::new();
        let runtime = Runtime::start(RuntimeConfig {
            workers: 2,
            queue_cap: 32,
            telemetry: tel.clone(),
            ..RuntimeConfig::default()
        });
        for i in 0..12 {
            runtime.submit_blocking(metrics_job(&format!("t{i}"))).unwrap();
        }
        let report = runtime.shutdown(ShutdownMode::Drain);
        assert_eq!(report.results.len(), 12);

        // Every executed job waited in the queue exactly once.
        assert_eq!(tel.histogram("runtime.queue_wait_us").snapshot().count, 12);
        assert_eq!(tel.histogram("runtime.job_wall_us").snapshot().count, 12);
        // Metrics jobs never batch, so batch count == job count here.
        let batches = tel.histogram("runtime.batch_size").snapshot();
        assert_eq!(batches.count, 12);
        assert_eq!(batches.max, 1);
        // Stage latency flows into the shared registry (Metrics = index 3).
        assert_eq!(tel.histogram("stage.metrics_us").snapshot().count, 12);
        // The gauge exists and ended at zero: the drain emptied the queue.
        assert_eq!(tel.gauge("runtime.queue_depth").get(), 0);
        // Worker pops observe depth too, so the high-water mark is at least
        // one even if every submit raced an idle worker.
        assert!(report.stats.queue_high_water >= 1);
    }

    #[test]
    fn submit_after_shutdown_fails() {
        let runtime = Runtime::start(RuntimeConfig::default());
        let queue = Arc::clone(&runtime.queue);
        let report = runtime.shutdown(ShutdownMode::Drain);
        assert!(report.results.is_empty());
        // The queue is closed; a late producer sees Closed, which submit maps
        // to ShuttingDown.
        assert!(matches!(
            queue.try_push(Queued {
                id: 99,
                job: Job::Metrics { reference: "a".into(), test: "b".into() },
                submitted: Instant::now(),
                deadline: None,
                max_retries: 0,
                ingest: None,
                trace: None,
                notify: None,
            }),
            Err(PushError::Closed)
        ));
    }

    #[test]
    fn watched_submission_delivers_result_while_running() {
        let runtime = Runtime::start(RuntimeConfig {
            workers: 1,
            queue_cap: 8,
            ..RuntimeConfig::default()
        });
        let (id, handle) = runtime.submit_watched(metrics_job("w0")).unwrap();
        let result = handle
            .wait_timeout(Duration::from_secs(10))
            .expect("watched result arrives while the runtime keeps serving");
        assert_eq!(result.id, id);
        assert!(matches!(result.outcome, Err(JobFailure::Error(_))));
        // Delivered exactly once: the slot is now empty.
        assert!(handle.try_take().is_none());
        // Watched results never reach the shutdown report.
        let report = runtime.shutdown(ShutdownMode::Drain);
        assert!(report.results.is_empty());
        assert_eq!(report.stats.submitted, 1);
        assert_eq!(report.stats.failed, 1);
    }

    #[test]
    fn abort_shutdown_fulfills_queued_watched_jobs_as_rejected() {
        let runtime = Runtime::start(RuntimeConfig {
            workers: 1,
            queue_cap: 64,
            ..RuntimeConfig::default()
        });
        let handles: Vec<_> = (0..20)
            .map(|i| runtime.submit_watched(metrics_job(&format!("wa{i}"))).unwrap().1)
            .collect();
        let report = runtime.shutdown(ShutdownMode::Abort);
        assert!(report.results.is_empty(), "watched jobs stay out of the report");
        // Every handle got a terminal delivery: executed or rejected.
        let mut rejected = 0;
        for handle in handles {
            let result = handle.try_take().expect("abort delivers every watched result");
            if result.outcome == Err(JobFailure::Rejected) {
                rejected += 1;
                assert_eq!(result.attempts, 0);
            }
        }
        assert_eq!(report.stats.rejected, rejected);
    }

    #[test]
    fn queue_depth_gauge_decays_to_zero_between_bursts() {
        // Regression test: the gauge used to be set only on submit and on
        // worker pop, so a micro-batch that emptied the queue via
        // take_matching left the pre-pop depth frozen in the metrics while
        // the runtime sat idle.
        let tel = Telemetry::new();
        let runtime = Runtime::start(RuntimeConfig {
            workers: 1,
            queue_cap: 16,
            batch_max: 8,
            telemetry: tel.clone(),
            ..RuntimeConfig::default()
        });
        let recover = |tag: &str| Job::Recover {
            input: format!("/nonexistent/{tag}.jpg"),
            output: format!("/nonexistent/{tag}.ppm"),
            method: RecoverMethod::Tip2006,
        };
        // The leader stalls in ingest long enough for the burst behind it to
        // queue up; the worker then assembles the rest into one batch.
        let (_, first) = runtime
            .submit_watched(
                JobSpec::new(recover("qd0")).with_ingest(Duration::from_millis(150)),
            )
            .unwrap();
        let handles: Vec<_> = (1..6)
            .map(|i| runtime.submit_watched(recover(&format!("qd{i}"))).unwrap().1)
            .collect();
        first.wait_timeout(Duration::from_secs(10)).expect("leader completes");
        for handle in handles {
            handle.wait_timeout(Duration::from_secs(10)).expect("burst job completes");
        }
        // All jobs are done and the runtime is idle (but still running): the
        // gauge must read the true depth, zero.
        assert_eq!(tel.gauge("runtime.queue_depth").get(), 0);
        runtime.shutdown(ShutdownMode::Drain);
    }

    #[test]
    fn watched_wait_timeout_expires_then_delivers_later() {
        let runtime = Runtime::start(RuntimeConfig {
            workers: 1,
            queue_cap: 8,
            ..RuntimeConfig::default()
        });
        let spec = JobSpec::new(metrics_job("wt")).with_ingest(Duration::from_millis(120));
        let (_, handle) = runtime.submit_watched(spec).unwrap();
        // The ingest stall outlasts this first wait.
        assert!(handle.wait_timeout(Duration::from_millis(5)).is_none());
        let result = handle.wait_timeout(Duration::from_secs(10));
        assert!(result.is_some(), "a later wait still takes the delivery");
        runtime.shutdown(ShutdownMode::Drain);
    }
}
