//! The batch workload: an in-process `dcdiff-runtime` `Runtime` fed by one
//! submitting thread through `submit_watched`, no HTTP.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dcdiff_runtime::{
    Job, JobFailure, JobOutput, JobResult, JobSpec, ResultHandle, Runtime, RuntimeConfig,
    ShutdownMode,
};
use dcdiff_telemetry::Telemetry;

use crate::scenes::{References, Scene, Workload};

/// Jobs kept outstanding: a micro-batch of 8 for each of the default 2
/// workers.
pub const OUTSTANDING: usize = 16;

/// How long the submitter blocks on the oldest job before polling the
/// rest; bounds how late a completion is observed.
const POLL: Duration = Duration::from_millis(1);

/// Span the submitter records around each job in a traced window.
pub const SPAN_CLIENT_JOB: &str = "perfbench.client.job";

/// One completed job: submission to observed result.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub start: Instant,
    pub end: Instant,
}

/// The runtime configuration: shipped defaults, with `tel` as its handle.
pub fn config(tel: Telemetry) -> RuntimeConfig {
    RuntimeConfig {
        telemetry: tel,
        ..RuntimeConfig::default()
    }
}

/// Submits jobs and checks their outputs.
pub struct Submitter<'a> {
    pub workload: Workload,
    pub scenes: &'a [Scene],
    pub refs: &'a References,
    /// Where jobs write their outputs (removed once checked).
    pub out_dir: PathBuf,
    next_job: usize,
}

impl<'a> Submitter<'a> {
    pub fn new(
        workload: Workload,
        scenes: &'a [Scene],
        refs: &'a References,
        out_dir: &Path,
    ) -> Result<Submitter<'a>, String> {
        std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
        Ok(Submitter {
            workload,
            scenes,
            refs,
            out_dir: out_dir.to_path_buf(),
            next_job: 0,
        })
    }

    /// Start a runtime and return it once one warm-up job has been served
    /// and checked, with the set-up time.
    pub fn start(&mut self, tel: Telemetry) -> Result<(Runtime, Duration), String> {
        let started = Instant::now();
        let runtime = Runtime::start(config(tel));
        let (handle, scene) = self.submit(&runtime, 0)?;
        let result = handle
            .wait_timeout(Duration::from_secs(60))
            .ok_or("warm-up job did not finish within 60 s")?;
        self.check(scene, &result)?;
        Ok((runtime, started.elapsed()))
    }

    fn submit(&mut self, runtime: &Runtime, scene: usize) -> Result<(ResultHandle, usize), String> {
        let output = self.out_dir.join(format!("job-{}.ppm", self.next_job));
        self.next_job += 1;
        // No deadline and no retry budget: a job either recovers at the
        // requested tier or the run fails.
        let spec = JobSpec::new(Job::Recover {
            input: self.scenes[scene].path.to_string_lossy().into_owned(),
            output: output.to_string_lossy().into_owned(),
            method: self.workload.method(),
        });
        let (_, handle) = runtime
            .submit_watched(spec)
            .map_err(|e| format!("submit: {e}"))?;
        Ok((handle, scene))
    }

    /// Check one job result: recovered on its first attempt, output a
    /// byte-identical repeat of the scene's first recovery.
    fn check(&self, scene: usize, result: &JobResult) -> Result<(), String> {
        let path = match &result.outcome {
            Ok(JobOutput::Recovered { output }) => output,
            Ok(other) => return Err(format!("scene {scene}: unexpected output {other:?}")),
            Err(JobFailure::Error(e)) => return Err(format!("scene {scene}: job failed: {e}")),
            Err(failure) => return Err(format!("scene {scene}: job failed: {failure:?}")),
        };
        if result.attempts != 1 {
            return Err(format!(
                "scene {scene}: {} attempts (retried)",
                result.attempts
            ));
        }
        let ppm = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
        let _ = std::fs::remove_file(path);
        self.refs.check(scene, self.scenes[scene].size, &ppm)
    }

    /// Keep `OUTSTANDING` jobs in flight until `until`, cycling through
    /// the pool in order, and return every completed job once all have been
    /// checked.
    pub fn run(
        &mut self,
        runtime: &Runtime,
        until: Instant,
        trace: Option<&Telemetry>,
    ) -> Result<Vec<Sample>, String> {
        let mut pending: VecDeque<(ResultHandle, usize, Instant)> = VecDeque::new();
        let mut samples = Vec::new();
        let mut sent = 0usize;
        loop {
            while pending.len() < OUTSTANDING && Instant::now() < until {
                let start = Instant::now();
                let (handle, scene) = self.submit(runtime, sent % self.scenes.len())?;
                pending.push_back((handle, scene, start));
                sent += 1;
            }
            if pending.is_empty() {
                return Ok(samples);
            }
            let mut done: Vec<(usize, JobResult)> = Vec::new();
            for (i, (handle, ..)) in pending.iter().enumerate() {
                if let Some(result) = handle.try_take() {
                    done.push((i, result));
                }
            }
            if done.is_empty() {
                if let Some(result) = pending[0].0.wait_timeout(POLL) {
                    done.push((0, result));
                }
            }
            let end = Instant::now();
            for (i, result) in done.into_iter().rev() {
                let Some((_, scene, start)) = pending.remove(i) else {
                    continue;
                };
                if let Some(tel) = trace {
                    tel.record_span(SPAN_CLIENT_JOB, start, end);
                }
                self.check(scene, &result)?;
                samples.push(Sample { start, end });
            }
        }
    }
}

/// Drain a runtime. Every watched job was already checked by its
/// submitter, so nothing is left to inspect in the report.
pub fn stop(runtime: Runtime) {
    runtime.shutdown(ShutdownMode::Drain);
}
