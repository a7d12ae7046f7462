//! The per-layer probe: timed calls into each crate's public functions at
//! a workload's canvases, each call recorded as a span on the traced
//! telemetry handle.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use dcdiff_baselines::{DcRecovery, Tip2006};
use dcdiff_core::{
    content_seed, image_to_tensor, project_dc, refine_dc_offsets, BatchRecoverJob, DcDiff,
    DcDiffConfig, RecoverOptions, Stage1, Stage2,
};
use dcdiff_diffusion::{Fmpp, NoiseSchedule};
use dcdiff_jpeg::{CoeffImage, JpegDecoder};
use dcdiff_runtime::{decode_recover_input, write_recover_output, RecoverMethod};
use dcdiff_telemetry::Telemetry;
use dcdiff_tensor::kernels::{sgemm, Trans};
use dcdiff_tensor::{no_grad, seeded_rng, Tensor};

use crate::scenes::{Scene, Workload};

/// Construction seed of the served diffusion engine (`DiffusionEngine` in
/// `dcdiff-runtime`), so the probe times the same weights.
const ENGINE_SEED: u64 = 0xdcd1ff;

/// Prior weight the runtime's MLD method passes to the refinement.
const MLD_PRIOR: f32 = 5e-4;

/// DDIM steps probed for a workload whose own method is not diffusion:
/// the serving default.
const SERVE_DDIM_STEPS: usize = 8;

/// Cohort width of the batch workload's U-Net forwards.
const BATCH_WIDTH: usize = 8;

/// One per-layer metric.
#[derive(Debug, Clone)]
pub struct Row {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Time `f` under span `name`: one untimed warm-up call, then timed calls
/// until both `min_reps` have run and 300 ms have passed (at most 200
/// calls). Returns the median call in ms.
fn time_calls(tel: &Telemetry, name: &'static str, min_reps: usize, mut f: impl FnMut()) -> f64 {
    const BUDGET: Duration = Duration::from_millis(300);
    f();
    let began = Instant::now();
    let mut ms = Vec::new();
    while ms.len() < min_reps || (began.elapsed() < BUDGET && ms.len() < 200) {
        let span = tel.span(name);
        let t = Instant::now();
        f();
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        drop(span);
    }
    crate::sys::median(&ms)
}

/// The U-Net's largest conv GEMM: the decoder's upsample conv, 3×3 over
/// `2·unet_base` channels at full latent resolution, as the `[m, k] × [k, n]`
/// product `conv2d` runs (`m` = cohort width × latent pixels).
pub fn unet_gemm_shape(canvas: usize, width: usize) -> (usize, usize, usize) {
    let channels = 2 * DcDiffConfig::default().unet_base;
    let latent = canvas / 8;
    (width * latent * latent, channels * 9, channels)
}

/// Cohort width the workload's U-Net forwards run at.
pub fn cohort_width(workload: Workload) -> usize {
    match workload {
        Workload::BatchDiffusion => BATCH_WIDTH,
        _ => 1,
    }
}

/// Run every probe at each of the workload's canvases and weight the
/// results by the canvas mix.
pub fn run(
    workload: Workload,
    scenes: &[Scene],
    tel: &Telemetry,
    dir: &Path,
) -> Result<Vec<Row>, String> {
    let mut total: Vec<Row> = Vec::new();
    for (canvas, share) in workload.canvas_mix() {
        let picked: Vec<&Scene> = scenes
            .iter()
            .filter(|s| s.size == canvas)
            .take(BATCH_WIDTH)
            .collect();
        let rows = at_canvas(workload, canvas, &picked, tel, dir)?;
        if total.is_empty() {
            total = rows
                .into_iter()
                .map(|r| Row {
                    value: r.value * share,
                    ..r
                })
                .collect();
        } else {
            for (t, r) in total.iter_mut().zip(rows) {
                t.value += r.value * share;
            }
        }
    }
    Ok(total)
}

fn at_canvas(
    workload: Workload,
    canvas: usize,
    scenes: &[&Scene],
    tel: &Telemetry,
    dir: &Path,
) -> Result<Vec<Row>, String> {
    if scenes.len() < BATCH_WIDTH {
        return Err(format!(
            "probe needs {BATCH_WIDTH} scenes at {canvas}x{canvas}"
        ));
    }
    let dropped: Vec<CoeffImage> = scenes
        .iter()
        .map(|s| JpegDecoder::decode_coefficients(&s.jpeg).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let images: Vec<_> = dropped.iter().map(CoeffImage::to_image).collect();
    let config = DcDiffConfig::default();
    let steps = workload.ddim_steps().unwrap_or(SERVE_DDIM_STEPS);
    let (threshold, sweeps) = match Workload::ServeMld.method() {
        RecoverMethod::Mld { threshold, sweeps } => (threshold, sweeps),
        _ => (config.mask_threshold, 300),
    };
    let mut rows = Vec::new();
    let mut row = |name: &'static str, value: f64, unit: &'static str| {
        rows.push(Row { name, value, unit });
    };
    let mut k = 0usize;
    let mut next = || {
        k = (k + 1) % scenes.len();
        k
    };

    // runtime I/O
    let out = dir.join("probe-out.ppm");
    let out = out.to_string_lossy().into_owned();
    let mut failure: Option<String> = None;
    row(
        "runtime.read_decode_ms",
        time_calls(tel, "perfbench.runtime.read_decode", 10, || {
            let path = scenes[next()].path.to_string_lossy().into_owned();
            if let Err(e) = decode_recover_input(&path, tel) {
                failure = Some(e.to_string());
            }
        }),
        "ms",
    );
    row(
        "runtime.write_output_ms",
        time_calls(tel, "perfbench.runtime.write_output", 10, || {
            if let Err(e) = write_recover_output(&out, &images[next()], tel) {
                failure = Some(e.to_string());
            }
        }),
        "ms",
    );
    let _ = std::fs::remove_file(&out);
    if let Some(e) = failure {
        return Err(format!("runtime I/O probe: {e}"));
    }

    // jpeg
    let decode_ms = time_calls(tel, "perfbench.jpeg.decode", 10, || {
        let _ = black_box(JpegDecoder::decode_coefficients(black_box(
            &scenes[next()].jpeg,
        )));
    });
    let mean_bytes =
        scenes.iter().map(|s| s.jpeg.len()).sum::<usize>() as f64 / scenes.len() as f64;
    row("jpeg.decode_ms", decode_ms, "ms");
    row(
        "jpeg.decode_mb_s",
        mean_bytes / 1e6 / (decode_ms / 1e3),
        "MB/s",
    );

    // core
    row(
        "core.mld_refine_ms",
        time_calls(tel, "perfbench.core.mld_refine", 5, || {
            let d = &dropped[next()];
            black_box(refine_dc_offsets(d, d, threshold, MLD_PRIOR, sweeps));
        }),
        "ms",
    );
    let mut rng = seeded_rng(ENGINE_SEED);
    let stage1 = Stage1::new(config.stage1_base, config.latent_channels, &mut rng);
    let schedule = NoiseSchedule::linear(config.diffusion_steps, 1e-3, 2e-2);
    let stage2 = Stage2::new(config.latent_channels, config.unet_base, schedule, &mut rng);
    let fmpp = Fmpp::new(3, &mut rng);
    let latent = canvas / 8;
    let x_tilde: Vec<Tensor> = images.iter().map(image_to_tensor).collect();
    let z1 = Tensor::randn(
        vec![1, config.latent_channels, latent, latent],
        1.0,
        &mut rng,
    );
    row(
        "core.stage1_decode_ms",
        no_grad(|| {
            time_calls(tel, "perfbench.core.stage1_decode", 5, || {
                black_box(stage1.decode(&z1, &x_tilde[next()]));
            })
        }),
        "ms",
    );
    row(
        "core.project_dc_ms",
        time_calls(tel, "perfbench.core.project_dc", 5, || {
            let i = next();
            black_box(project_dc(&dropped[i], &images[i]));
        }),
        "ms",
    );
    let model = DcDiff::new(config.clone(), ENGINE_SEED);
    let options = RecoverOptions {
        ddim_steps: steps.clamp(1, config.diffusion_steps),
        ..RecoverOptions::from_config(&config)
    };
    row(
        "core.recover_ms",
        time_calls(tel, "perfbench.core.recover", 3, || {
            let d = &dropped[next()];
            black_box(model.recover_with(
                d,
                &RecoverOptions {
                    seed: content_seed(d),
                    ..options
                },
            ));
        }),
        "ms",
    );
    let jobs: Vec<BatchRecoverJob<'_>> = dropped.iter().map(BatchRecoverJob::new).collect();
    let cohort_ms = time_calls(tel, "perfbench.core.recover_batch_w8", 2, || {
        black_box(model.try_recover_batch(&jobs, &options));
    });
    row(
        "core.recover_lane_ms_w8",
        cohort_ms / BATCH_WIDTH as f64,
        "ms",
    );

    // diffusion
    row(
        "diffusion.fmpp_ms",
        no_grad(|| {
            time_calls(tel, "perfbench.diffusion.fmpp", 5, || {
                black_box(fmpp.predict(&x_tilde[next()]));
            })
        }),
        "ms",
    );

    // nn: the noise predictor's U-Net and control branch, at cohort widths
    // 1, 2 and 8, through Stage2's one-line delegates to `UNet::forward`
    // and `ControlModule::forward`.
    let cond = |width: usize| {
        Tensor::randn(
            vec![width, 3, latent, latent],
            1.0,
            &mut seeded_rng(width as u64),
        )
    };
    no_grad(|| {
        for (width, name, span) in [
            (1, "nn.unet_forward_ms_w1", "perfbench.nn.unet_forward_w1"),
            (2, "nn.unet_forward_ms_w2", "perfbench.nn.unet_forward_w2"),
            (8, "nn.unet_forward_ms_w8", "perfbench.nn.unet_forward_w8"),
        ] {
            let control = stage2.control_features(&cond(width));
            let z = Tensor::randn(
                vec![width, config.latent_channels, latent, latent],
                1.0,
                &mut seeded_rng(7),
            );
            let timesteps = vec![config.diffusion_steps / 2; width];
            let freeu = (
                Tensor::full(vec![width], 1.0),
                Tensor::full(vec![width], 1.0),
            );
            let ms = time_calls(tel, span, 5, || {
                black_box(stage2.predict_noise(
                    &z,
                    &timesteps,
                    &control,
                    Some((&freeu.0, &freeu.1)),
                ));
            });
            row(name, ms, "ms");
        }
        let c1 = cond(1);
        row(
            "nn.control_forward_ms",
            time_calls(tel, "perfbench.nn.control_forward", 5, || {
                black_box(stage2.control_features(&c1));
            }),
            "ms",
        );
    });

    // tensor: the U-Net's largest conv GEMM at the workload's cohort width,
    // as a bare sgemm and as the conv2d that issues it.
    let width = cohort_width(workload);
    let (m, kk, n) = unet_gemm_shape(canvas, width);
    let a: Vec<f32> = (0..m * kk)
        .map(|i| ((i % 17) as f32 - 8.0) * 0.01)
        .collect();
    let b: Vec<f32> = (0..kk * n)
        .map(|i| ((i % 13) as f32 - 6.0) * 0.01)
        .collect();
    let mut c = vec![0.0f32; m * n];
    let gemm_ms = time_calls(tel, "perfbench.tensor.sgemm", 20, || {
        sgemm(
            Trans::N,
            Trans::T,
            m,
            kk,
            n,
            black_box(&a),
            black_box(&b),
            &mut c,
        );
        black_box(&c);
    });
    row(
        "tensor.gemm_gflops",
        2.0 * (m * kk * n) as f64 / (gemm_ms / 1e3) / 1e9,
        "GFLOP/s",
    );
    let channels = n;
    let input = Tensor::randn(
        vec![width, channels, latent, latent],
        1.0,
        &mut seeded_rng(3),
    );
    let weight = Tensor::randn(vec![channels, channels, 3, 3], 0.1, &mut seeded_rng(4));
    row(
        "tensor.conv2d_ms",
        no_grad(|| {
            time_calls(tel, "perfbench.tensor.conv2d", 20, || {
                black_box(input.conv2d(&weight, 1, 1));
            })
        }),
        "ms",
    );

    // baselines
    let tip = Tip2006::new();
    row(
        "baselines.tip2006_ms",
        time_calls(tel, "perfbench.baselines.tip2006", 3, || {
            black_box(tip.recover(&dropped[next()]));
        }),
        "ms",
    );
    Ok(rows)
}
