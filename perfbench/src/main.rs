//! `perfbench` — the end-to-end and per-layer benchmark of the DCDiff
//! receiver.
//!
//! ```text
//! perfbench --workload serve_mld|serve_diffusion|batch_diffusion|all \
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root (`cargo run --release --manifest-path
//! perfbench/Cargo.toml -- ...`). Each workload runs in its own process
//! (`all` re-executes this binary once per workload). Inputs are generated
//! from `--seed` and staged before the server or runtime starts; every
//! output is checked (dimensions, byte-identical repeats, recovered at the
//! requested tier on the first attempt) and any failure exits non-zero
//! without printing a result.
//!
//! Each load runs a warm-up, then a window of `--seconds`. Throughput and
//! latencies are in delivered time: wall time less the CPU share the
//! hypervisor stole for other guests over the same interval (see
//! [`window`]). Every run prints the steal and the wall-clock figures.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
//! per-layer metrics: it measures an untraced and a traced window (half of
//! `--seconds` each), probes each crate's public functions, and writes the
//! spans as `dcdiff-telemetry` JSONL under `perfbench/traces/` for
//! `dcdiff report`. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod batch_load;
mod probe;
mod scenes;
mod serve_load;
mod sys;
mod window;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use dcdiff_telemetry::{names, Telemetry};
use dcdiff_tensor::kernels::KernelConfig;

use crate::scenes::{References, Scene, Workload};
use crate::window::Window;

/// Set-ups per untraced run; `setup_s` is their median wall time less the
/// host's steal share over all of them (see [`window`]).
const SETUP_REPS: usize = 15;

/// Closed-loop warm-up before the measured window (engines built on every
/// worker, kernel buffer pools and caches filled, cohorts in their steady mix).
const WARMUP: Duration = Duration::from_secs(3);

/// The batch warm-up also covers one full pass over the scene pool.
const BATCH_WARMUP: Duration = Duration::from_secs(5);

/// Fewest samples that must lie beyond the reported p90.
const MIN_TAIL: usize = 10;

const USAGE: &str = "usage: perfbench --workload serve_mld|serve_diffusion|batch_diffusion|all \
                     --seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: '{value}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? != 0,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    if args.seconds < 2 {
        return Err("--seconds must be at least 2".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(workload) = Workload::from_name(&args.workload) else {
        eprintln!("perfbench: unknown workload '{}'\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let root = Path::new("perfbench");
    if !root.is_dir() {
        eprintln!("perfbench: run from the repository root (no ./perfbench directory)");
        return ExitCode::from(2);
    }
    let work = root
        .join("work")
        .join(format!("{}-{}", workload.name(), std::process::id()));
    let result = run(workload, &args, &work);
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(report) => {
            report.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", workload.name());
            ExitCode::FAILURE
        }
    }
}

/// Run every workload, each in a fresh process.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: current executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in Workload::ALL {
        let status = std::process::Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What a run prints: context lines, then the metrics as the last line.
struct Report {
    info: Vec<String>,
    attempted: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn print(&self) {
        for line in &self.info {
            println!("# {line}");
        }
        for (name, value, unit) in &self.metrics {
            println!("# {name:<28} {value:>14.4} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {{{}}}}}",
            self.attempted,
            metrics.join(", ")
        );
    }
}

/// Counters that record a request leaving the requested tier, by the
/// per-layer metric that reports them: ladder fallbacks and breaker
/// short-circuits, cohort evictions, retries.
const DEGRADATIONS: [(&str, &[&str]); 3] = [
    (
        "runtime.fallbacks",
        &[
            names::CTR_ESTIMATOR_PRIMARY_FAIL,
            names::CTR_ESTIMATOR_BREAKER_SHORT_CIRCUIT,
            names::CTR_ESTIMATOR_FALLBACK_BASELINE,
            names::CTR_ESTIMATOR_FALLBACK_FLAT,
        ],
    ),
    ("runtime.evictions", &[names::CTR_DIFFUSION_BATCH_EVICTIONS]),
    ("runtime.retries", &[names::CTR_RETRIES]),
];

/// Fail the run if anything degraded over a server's or runtime's life.
fn check_degradations(tel: &Telemetry) -> Result<(), String> {
    for (metric, counters) in DEGRADATIONS {
        let n: u64 = counters.iter().map(|c| tel.counter(c).get()).sum();
        if n > 0 {
            return Err(format!("{metric} = {n}: a request left the requested tier"));
        }
    }
    Ok(())
}

/// A metrics-only handle (the servers' default), installed process-wide so
/// library-level counters (cohorts, kernels) land in the same registry.
fn untraced_handle() -> Telemetry {
    let tel = Telemetry::new();
    dcdiff_telemetry::install(tel.clone());
    tel
}

/// A handle that keeps every span in memory, installed process-wide.
fn traced_handle() -> Telemetry {
    let tel = Telemetry::builder().trace_to_vec().build();
    dcdiff_telemetry::install(tel.clone());
    tel
}

/// The load-side state shared by both load kinds.
struct Ctx<'a> {
    workload: Workload,
    work: &'a Path,
    scenes: &'a [Scene],
    refs: &'a References,
}

/// Result of one load phase: its window and, for serve, the server's own
/// per-request breakdown.
struct Phase {
    window: Window,
    /// Front door, queue and exec ms of each request (serve only).
    breakdown: Vec<[f64; 3]>,
    /// Wall seconds of each set-up.
    setup_s: Vec<f64>,
    /// Machine-wide `(stolen, total)` CPU ticks summed over the set-ups.
    setup_ticks: (u64, u64),
}

impl Phase {
    /// Share of the machine's CPU the hypervisor stole during set-up.
    fn setup_steal(&self) -> f64 {
        let (stolen, total) = self.setup_ticks;
        if total > 0 {
            stolen as f64 / total as f64
        } else {
            0.0
        }
    }
}

/// Run one set-up and add the host CPU ticks it spanned to `ticks`.
fn timed_setup<T>(
    ticks: &mut (u64, u64),
    setup: impl FnOnce() -> Result<T, String>,
) -> Result<T, String> {
    let before = sys::host_ticks()?;
    let out = setup()?;
    let after = sys::host_ticks()?;
    ticks.0 += after.0.saturating_sub(before.0);
    ticks.1 += after.1.saturating_sub(before.1);
    Ok(out)
}

fn run(workload: Workload, args: &Args, work: &Path) -> Result<Report, String> {
    let scenes = scenes::generate(workload, args.seed, &work.join("in"))?;
    let refs = References::new(scenes.len());
    let ctx = Ctx {
        workload,
        work,
        scenes: &scenes,
        refs: &refs,
    };
    let secs = if args.trace {
        args.seconds / 2
    } else {
        args.seconds
    };
    let setups = if args.trace { 1 } else { SETUP_REPS };
    let untraced = ctx.phase(setups, secs, None)?;
    let mut info = vec![env_record(workload)];
    let w = &untraced.window;
    let (p90, tail) = sys::percentile(&w.latencies, 0.9);
    info.push(format!(
        "window {} s after {} s warm-up: {} sent; {} completed in {:.3} s between pauses in \
         the completions, {tail} samples beyond p90; {:.1}% of CPU stolen by the hypervisor",
        secs,
        ctx.warmup().as_secs(),
        w.sent,
        w.latencies.len(),
        w.secs,
        w.steal_pct,
    ));
    info.push(format!(
        "times are delivered time (wall less host steal); in wall time the window ran \
         {:.4} img/s, p50 {:.4} ms, p90 {:.4} ms",
        w.wall_throughput(),
        sys::percentile(&w.wall_latencies, 0.5).0,
        sys::percentile(&w.wall_latencies, 0.9).0,
    ));
    if !args.trace {
        if tail < MIN_TAIL {
            return Err(format!(
                "only {tail} samples beyond p90 ({} in the window); raise --seconds",
                w.latencies.len()
            ));
        }
        let metrics = vec![
            ("throughput_img_s", w.throughput(), "img/s"),
            ("latency_p50_ms", sys::percentile(&w.latencies, 0.5).0, "ms"),
            ("latency_p90_ms", p90, "ms"),
            // Every request sent completed at the requested tier and
            // passed its output check, or the run has already failed.
            ("success_rate", 1.0, "ratio"),
            ("psnr_db", refs.mean_psnr(&scenes, work)?, "dB"),
            (
                "cpu_ms_per_img",
                w.cpu_s * 1e3 / w.latencies.len() as f64,
                "ms",
            ),
            ("peak_rss_mb", sys::peak_rss_mb()?, "MB"),
            (
                "setup_s",
                sys::median(&untraced.setup_s) * (1.0 - untraced.setup_steal()),
                "s",
            ),
        ];
        info.push(format!(
            "setup_s over {} set-ups ({:.1}% of CPU stolen), wall s: {:?}",
            untraced.setup_s.len(),
            untraced.setup_steal() * 100.0,
            untraced
                .setup_s
                .iter()
                .map(|s| (s * 1e4).round() / 1e4)
                .collect::<Vec<_>>()
        ));
        return Ok(Report {
            info,
            attempted: w.sent,
            metrics,
        });
    }

    let tel = traced_handle();
    let traced = ctx.phase(1, secs, Some(&tel))?;
    let serve_rows = match workload {
        Workload::BatchDiffusion => ctx.serve_probe(&tel)?,
        _ => traced.breakdown.clone(),
    };
    let rows = probe::run(workload, &scenes, &tel, work)?;
    // Not reported here, but every pool scene must have been recovered.
    refs.mean_psnr(&scenes, work)?;
    let trace_path = write_trace(&tel, workload, args.seed)?;
    info.push(format!(
        "trace: {} (aggregate with `dcdiff report`)",
        trace_path.display()
    ));
    for (canvas, share) in workload.canvas_mix() {
        let (m, k, n) = probe::unet_gemm_shape(canvas, probe::cohort_width(workload));
        info.push(format!(
            "probe canvas {canvas}x{canvas} (weight {share}): tensor.gemm m={m} k={k} n={n}, {} FLOP per call",
            2 * m * k * n
        ));
    }
    let metrics = layer_metrics(
        workload,
        &untraced.window,
        &traced.window,
        &serve_rows,
        &rows,
    );
    Ok(Report {
        info,
        attempted: untraced.window.sent + traced.window.sent,
        metrics,
    })
}

impl Ctx<'_> {
    fn warmup(&self) -> Duration {
        match self.workload {
            Workload::BatchDiffusion => BATCH_WARMUP,
            _ => WARMUP,
        }
    }

    /// Set up `setups` times (keeping the last), run one warmed-up window
    /// of `secs`, shut down and check that nothing degraded. `trace` makes
    /// it the traced phase: the handle goes to the server or runtime and
    /// the client records a span per request.
    fn phase(&self, setups: usize, secs: u64, trace: Option<&Telemetry>) -> Result<Phase, String> {
        match self.workload {
            Workload::BatchDiffusion => self.batch_phase(setups, secs, trace),
            _ => self.serve_phase(setups, secs, trace),
        }
    }

    fn serve_phase(
        &self,
        setups: usize,
        secs: u64,
        trace: Option<&Telemetry>,
    ) -> Result<Phase, String> {
        let cfg = serve_load::config(self.workload, &self.work.join("spool"));
        let conns = serve_load::connections(&cfg);
        let mut setup_s = Vec::new();
        let mut setup_ticks = (0, 0);
        let mut live = None;
        for _ in 0..setups {
            if let Some((server, _)) = live.take() {
                serve_load::stop(server)?;
            }
            let tel = trace.cloned().unwrap_or_else(untraced_handle);
            let (server, took) = timed_setup(&mut setup_ticks, || {
                serve_load::start(&cfg, tel.clone(), self.scenes, self.refs)
            })?;
            setup_s.push(took.as_secs_f64());
            live = Some((server, tel));
        }
        let (server, tel) = live.ok_or("no set-up ran")?;
        let addr = server.local_addr();
        let mut breakdown = Vec::new();
        let window = Window::measure(&tel, self.warmup(), secs, |end| {
            let samples = serve_load::closed_loop(
                addr,
                conns,
                serve_load::Plan::Until(end),
                self.scenes,
                self.refs,
                trace,
            )?;
            breakdown = samples.iter().map(serve_load::Sample::breakdown).collect();
            Ok(samples.iter().map(|s| (s.start, s.end)).collect())
        })?;
        serve_load::stop(server)?;
        check_degradations(&tel)?;
        Ok(Phase {
            window,
            breakdown,
            setup_s,
            setup_ticks,
        })
    }

    fn batch_phase(
        &self,
        setups: usize,
        secs: u64,
        trace: Option<&Telemetry>,
    ) -> Result<Phase, String> {
        let mut submitter = batch_load::Submitter::new(
            self.workload,
            self.scenes,
            self.refs,
            &self.work.join("out"),
        )?;
        let mut setup_s = Vec::new();
        let mut setup_ticks = (0, 0);
        let mut live = None;
        for _ in 0..setups {
            if let Some((runtime, _)) = live.take() {
                batch_load::stop(runtime);
            }
            let tel = trace.cloned().unwrap_or_else(untraced_handle);
            let (runtime, took) = timed_setup(&mut setup_ticks, || submitter.start(tel.clone()))?;
            setup_s.push(took.as_secs_f64());
            live = Some((runtime, tel));
        }
        let (runtime, tel) = live.ok_or("no set-up ran")?;
        let window = Window::measure(&tel, self.warmup(), secs, |end| {
            let samples = submitter.run(&runtime, end, trace)?;
            Ok(samples.iter().map(|s| (s.start, s.end)).collect())
        })?;
        batch_load::stop(runtime);
        check_degradations(&tel)?;
        Ok(Phase {
            window,
            breakdown: Vec::new(),
            setup_s,
            setup_ticks,
        })
    }

    /// The serve layer for a workload that bypasses it: one connection
    /// sends the first eight pool scenes (both canvases) to a server
    /// running the workload's method.
    fn serve_probe(&self, tel: &Telemetry) -> Result<Vec<[f64; 3]>, String> {
        let cfg = serve_load::config(self.workload, &self.work.join("spool-probe"));
        let (server, _) = serve_load::start(&cfg, tel.clone(), self.scenes, self.refs)?;
        let samples = serve_load::closed_loop(
            server.local_addr(),
            1,
            serve_load::Plan::EachOnce,
            &self.scenes[..8],
            self.refs,
            Some(tel),
        );
        serve_load::stop(server)?;
        Ok(samples?.iter().map(serve_load::Sample::breakdown).collect())
    }
}

/// The per-layer metrics of a traced run, in `BENCHMARK.json` order.
fn layer_metrics(
    workload: Workload,
    untraced: &Window,
    traced: &Window,
    serve: &[[f64; 3]],
    rows: &[probe::Row],
) -> Vec<(&'static str, f64, &'static str)> {
    let col = |i: usize| sys::median(&serve.iter().map(|r| r[i]).collect::<Vec<_>>());
    let (front_door, queue) = (col(0), col(1));
    let mut out = vec![
        ("serve.front_door_ms", front_door, "ms"),
        ("serve.queue_ms", queue, "ms"),
        ("serve.exec_ms", col(2), "ms"),
    ];
    let queue_wait = traced.histogram(names::HIST_QUEUE_WAIT_US);
    let wait_ms = |p: f64| {
        queue_wait
            .as_ref()
            .and_then(|h| h.quantile(p))
            .map_or(0.0, |us| us as f64 / 1e3)
    };
    let forwards = traced.counter_delta(names::CTR_DIFFUSION_BATCH_SHARED_FORWARDS);
    let lane_steps = traced.counter_delta(names::CTR_DIFFUSION_BATCH_LANE_STEPS);
    out.extend([
        ("runtime.queue_wait_p50_ms", wait_ms(0.5), "ms"),
        ("runtime.queue_wait_p90_ms", wait_ms(0.9), "ms"),
        (
            "runtime.batch_size_mean",
            traced
                .histogram(names::HIST_BATCH_SIZE)
                .map_or(0.0, |h| h.mean()),
            "jobs",
        ),
        (
            "runtime.cohort_lanes_mean",
            if forwards == 0 {
                0.0
            } else {
                lane_steps as f64 / forwards as f64
            },
            "lanes",
        ),
    ]);
    for (metric, counters) in DEGRADATIONS {
        let n: u64 = counters.iter().map(|c| traced.counter_delta(c)).sum();
        out.push((metric, n as f64, "count"));
    }
    out.extend(rows.iter().map(|r| (r.name, r.value, r.unit)));
    let row = |name: &str| {
        rows.iter()
            .find(|r| r.name == name)
            .map_or(0.0, |r| r.value)
    };
    let io = row("runtime.read_decode_ms") + row("runtime.write_output_ms");
    let coverage = match workload {
        Workload::ServeMld => {
            (front_door + queue + io + row("core.mld_refine_ms"))
                / sys::percentile(&untraced.latencies, 0.5).0
        }
        Workload::ServeDiffusion => {
            (front_door + queue + io + row("core.recover_ms"))
                / sys::percentile(&untraced.latencies, 0.5).0
        }
        Workload::BatchDiffusion => {
            (io + row("core.recover_lane_ms_w8")) * untraced.throughput() / 1e3
        }
    };
    out.push((
        "trace.overhead_pct",
        (untraced.throughput() / traced.throughput() - 1.0) * 100.0,
        "%",
    ));
    out.push(("layers.coverage", coverage, "ratio"));
    out
}

/// Write the traced phase's spans as JSONL under `perfbench/traces/`.
fn write_trace(tel: &Telemetry, workload: Workload, seed: u64) -> Result<PathBuf, String> {
    tel.flush();
    let text = tel
        .take_trace_vec()
        .ok_or("traced handle has no span buffer")?;
    let dir = Path::new("perfbench").join("traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{seed}.jsonl", workload.name()));
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// The environment a run measured: hardware threads, kernel dispatch, the
/// runtime's resolved defaults, the workload's shape and the served model.
fn env_record(workload: Workload) -> String {
    let runtime = dcdiff_runtime::RuntimeConfig::default();
    let kernels = KernelConfig::current();
    let canvases: Vec<String> = workload
        .canvas_mix()
        .iter()
        .map(|(c, share)| format!("{c}x{c}:{share}"))
        .collect();
    let steps = workload
        .ddim_steps()
        .map_or("null".to_string(), |s| s.to_string());
    let load = match workload {
        Workload::BatchDiffusion => format!("\"outstanding\": {}", batch_load::OUTSTANDING),
        _ => format!(
            "\"connections\": {}",
            serve_load::connections(&dcdiff_serve::ServeConfig::default())
        ),
    };
    format!(
        "env {{\"workload\": \"{}\", \"nproc\": {}, \"kernel_config\": {}, \"runtime_workers\": {}, \
         \"kernel_threads\": {}, \"batch_max\": {}, \"cohort_width\": {}, \"method\": \"{}\", \
         \"ddim_steps\": {steps}, \"canvases\": \"{}\", \"pool\": {}, {load}, \
         \"model\": \"untrained seed-weight DiffusionEngine (trained weights are expected to move psnr_db)\"}}",
        workload.name(),
        sys::nproc(),
        kernels.to_json(),
        runtime.workers,
        kernels.threads,
        runtime.batch_max,
        runtime.diffusion_batch_width,
        workload.method().name(),
        canvases.join(","),
        workload.pool(),
    )
}
