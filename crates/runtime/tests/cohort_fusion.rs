//! End-to-end properties of the cohort scheduler that runs every Recover
//! job.
//!
//! * **Determinism** — a runtime fusing diffusion Recover jobs into shared
//!   U-Net forwards (`diffusion_batch_width` 2 or 8) writes byte-identical
//!   outputs to a width-1 runtime: per-lane content seeding makes every
//!   result independent of cohort composition.
//! * **Observability** — fused execution records `diffusion.batch.width`
//!   observations wider than one lane.
//! * **Eviction** — at width 1 and 8 alike, a lane whose deadline is blown
//!   fails with `DeadlineExceeded` while its batch-mates complete normally,
//!   including a lone job whose deadline passes during its ingest stall.
//! * **Accounting** — `JobResult::exec` excludes ingest stalls, the lane's
//!   own and its batch-mates', at every width.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use dcdiff_image::Image;
use dcdiff_runtime::{
    execute, CodingOpts, EngineCache, Job, JobFailure, JobSpec, RecoverMethod, Runtime,
    RuntimeConfig, ShutdownMode,
};
use dcdiff_telemetry::Telemetry;

/// Unique-per-test scratch directory (tests may run concurrently).
fn scratch_dir(tag: &str) -> PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "dcdiff-cohort-{tag}-{}-{case}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn path(dir: &std::path::Path, name: &str) -> String {
    dir.join(name).to_string_lossy().into_owned()
}

/// Stage `n` distinct DC-dropped JPEG inputs under `dir`.
fn stage_inputs(dir: &std::path::Path, n: usize) {
    let mut setup = EngineCache::new();
    for i in 0..n {
        // Distinct flat levels give each stream a distinct content seed.
        let image = Image::filled(32, 32, dcdiff_image::ColorSpace::Rgb, 40.0 + 30.0 * i as f32);
        dcdiff_image::write_ppm(path(dir, &format!("in{i}.ppm")), &image).expect("write scene");
        let encode = Job::Encode {
            input: path(dir, &format!("in{i}.ppm")),
            output: path(dir, &format!("dropped{i}.jpg")),
            quality: 50,
            sampling: dcdiff_jpeg::ChromaSampling::Cs444,
            opts: CodingOpts { drop_dc: true, ..Default::default() },
        };
        assert!(execute(&encode, &mut setup, &Telemetry::new()).is_ok());
    }
}

fn recover_job(dir: &std::path::Path, i: usize, prefix: &str) -> Job {
    Job::Recover {
        input: path(dir, &format!("dropped{i}.jpg")),
        output: path(dir, &format!("{prefix}{i}.ppm")),
        method: RecoverMethod::Diffusion { ddim_steps: 2 },
    }
}

/// Run `n` diffusion recoveries through a single-worker runtime at the given
/// cohort width. The leader's ingest stall lets the rest of the burst queue
/// up so the worker assembles one micro-batch.
fn run_at_width(dir: &std::path::Path, n: usize, width: usize, prefix: &str) -> Telemetry {
    let tel = Telemetry::new();
    let runtime = Runtime::start(RuntimeConfig {
        workers: 1,
        queue_cap: 16,
        batch_max: 8,
        diffusion_batch_width: width,
        telemetry: tel.clone(),
        ..RuntimeConfig::default()
    });
    let leader = JobSpec::new(recover_job(dir, 0, prefix))
        .with_ingest(Duration::from_millis(150));
    runtime.submit_blocking(leader).expect("submit leader");
    for i in 1..n {
        runtime
            .submit_blocking(recover_job(dir, i, prefix))
            .expect("submit follower");
    }
    let report = runtime.shutdown(ShutdownMode::Drain);
    assert_eq!(report.results.len(), n);
    assert!(
        report.results.iter().all(dcdiff_runtime::JobResult::is_ok),
        "all recoveries succeed at width {width}"
    );
    tel
}

#[test]
fn fused_cohorts_write_bit_identical_outputs_across_widths() {
    let n = 4;
    let dir = scratch_dir("widths");
    stage_inputs(&dir, n);
    let widths_before = dcdiff_telemetry::global()
        .histogram("diffusion.batch.width")
        .snapshot();

    run_at_width(&dir, n, 1, "w1_");
    let tel8 = run_at_width(&dir, n, 8, "w8_");
    run_at_width(&dir, n, 2, "w2_");

    for i in 0..n {
        let sequential = std::fs::read(path(&dir, &format!("w1_{i}.ppm"))).expect("w1 output");
        let fused8 = std::fs::read(path(&dir, &format!("w8_{i}.ppm"))).expect("w8 output");
        let fused2 = std::fs::read(path(&dir, &format!("w2_{i}.ppm"))).expect("w2 output");
        assert_eq!(sequential, fused8, "image {i}: width 8 diverged from width 1");
        assert_eq!(sequential, fused2, "image {i}: width 2 diverged from width 1");
    }

    // The width-8 runtime assembled a real micro-batch...
    assert!(tel8.histogram("runtime.batch_size").snapshot().max > 1, "burst formed a batch");
    // ...and the fused estimate observed multi-lane forwards (global handle;
    // parallel tests only add to the delta).
    let widths_after = dcdiff_telemetry::global()
        .histogram("diffusion.batch.width")
        .snapshot();
    assert!(widths_after.count > widths_before.count, "cohort steps were observed");
    assert!(widths_after.max >= 2, "at least one shared forward carried multiple lanes");
    let _ = std::fs::remove_dir_all(&dir);
}

fn single_worker(width: usize) -> Runtime {
    Runtime::start(RuntimeConfig {
        workers: 1,
        queue_cap: 16,
        batch_max: 8,
        diffusion_batch_width: width,
        ..RuntimeConfig::default()
    })
}

#[test]
fn expired_lane_is_evicted_while_batch_mates_complete() {
    let n = 3;
    let dir = scratch_dir("evict");
    stage_inputs(&dir, n);

    // Width-1 references for the surviving lanes.
    let mut reference = EngineCache::new();
    for i in 0..2 {
        let job = recover_job(&dir, i, "ref_");
        assert!(execute(&job, &mut reference, &Telemetry::new()).is_ok());
    }

    for width in [1, 8] {
        let prefix = format!("run{width}_");
        let runtime = single_worker(width);
        let leader = JobSpec::new(recover_job(&dir, 0, &prefix))
            .with_ingest(Duration::from_millis(150));
        runtime.submit_blocking(leader).expect("submit leader");
        runtime
            .submit_blocking(recover_job(&dir, 1, &prefix))
            .expect("submit survivor");
        // The doomed lane's deadline expires during the leader's ingest
        // stall, so it never produces an image.
        let doomed = JobSpec::new(recover_job(&dir, 2, &prefix))
            .with_deadline(Duration::from_millis(1));
        let doomed_id = runtime.submit_blocking(doomed).expect("submit doomed");
        let report = runtime.shutdown(ShutdownMode::Drain);

        assert_eq!(report.results.len(), n);
        let doomed_result = report.result(doomed_id).expect("doomed result recorded");
        assert_eq!(
            doomed_result.outcome,
            Err(JobFailure::DeadlineExceeded),
            "width {width}: expired lane reports its deadline, not an engine error"
        );
        assert_eq!(report.stats.deadline_missed, 1);
        for i in 0..2 {
            let survivor = std::fs::read(path(&dir, &format!("{prefix}{i}.ppm")))
                .expect("survivor output");
            let expected = std::fs::read(path(&dir, &format!("ref_{i}.ppm"))).expect("reference");
            assert_eq!(survivor, expected, "width {width}: survivor {i} must match its reference");
        }

        // A lone job starts well inside its deadline, which then passes
        // during the ingest stall, before any recovery step: it must be
        // evicted, not answered late.
        let runtime = single_worker(width);
        let lone = JobSpec::new(recover_job(&dir, 0, &format!("lone{width}_")))
            .with_ingest(Duration::from_millis(150))
            .with_deadline(Duration::from_millis(50));
        let lone_id = runtime.submit_blocking(lone).expect("submit lone job");
        let report = runtime.shutdown(ShutdownMode::Drain);
        let lone_result = report.result(lone_id).expect("lone result recorded");
        assert_eq!(
            lone_result.outcome,
            Err(JobFailure::DeadlineExceeded),
            "width {width}: lone job"
        );
        assert_eq!(lone_result.attempts, 1, "width {width}: the lone job started");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exec_excludes_ingest_stalls_at_every_width() {
    let stall = Duration::from_millis(100);
    let dir = scratch_dir("exec");
    stage_inputs(&dir, 2);
    for width in [1, 8] {
        let runtime = single_worker(width);
        // A non-Recover job holds the worker so both Recover jobs queue up
        // behind it and are assembled into one micro-batch.
        let blocker = JobSpec::new(Job::Metrics {
            reference: path(&dir, "in0.ppm"),
            test: path(&dir, "in0.ppm"),
        })
        .with_ingest(Duration::from_millis(150));
        runtime.submit_blocking(blocker).expect("submit blocker");
        let ids: Vec<_> = (0..2)
            .map(|i| {
                let spec = JobSpec::new(recover_job(&dir, i, &format!("exec{width}_")))
                    .with_ingest(stall);
                runtime.submit_blocking(spec).expect("submit recover")
            })
            .collect();
        let report = runtime.shutdown(ShutdownMode::Drain);
        for id in ids {
            let result = report.result(id).expect("result recorded");
            assert!(result.is_ok(), "width {width}: {:?}", result.outcome);
            assert!(
                result.exec < stall,
                "width {width}: exec {:?} must exclude the {stall:?} ingest stalls",
                result.exec
            );
            assert!(result.wall >= stall, "width {width}: the stall still counts in wall");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
