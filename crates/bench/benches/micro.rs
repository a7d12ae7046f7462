//! Criterion micro-benchmarks for the performance-critical kernels:
//! DCT variants, entropy coding, full encode/decode, the statistical
//! recovery methods and one DDIM U-Net step.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use dcdiff_baselines::{DcRecovery, Icip2022, Ong2017, SmartCom2019, Tip2006};
use dcdiff_data::{SceneGenerator, SceneKind};
use dcdiff_diffusion::NoiseSchedule;
use dcdiff_jpeg::dct::{fdct, fdct_ref, idct};
use dcdiff_jpeg::{
    encode_coefficients, ChromaSampling, CoeffImage, DcDropMode, JpegDecoder, JpegEncoder,
};
use dcdiff_tensor::{seeded_rng, Tensor};

fn sample_block() -> [f32; 64] {
    let mut b = [0.0f32; 64];
    for (i, v) in b.iter_mut().enumerate() {
        *v = ((i * 37 + 11) % 256) as f32 - 128.0;
    }
    b
}

fn bench_dct(c: &mut Criterion) {
    let block = sample_block();
    let coeffs = fdct(&block);
    let mut group = c.benchmark_group("dct");
    group.bench_function("fdct_separable", |b| b.iter(|| fdct(black_box(&block))));
    group.bench_function("fdct_reference", |b| b.iter(|| fdct_ref(black_box(&block))));
    group.bench_function("idct_separable", |b| b.iter(|| idct(black_box(&coeffs))));
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let image = SceneGenerator::new(SceneKind::Natural, 128, 96).generate(1);
    let encoder = JpegEncoder::new(50);
    let coeffs = encoder.to_coefficients(&image);
    let bytes = encode_coefficients(&coeffs).expect("encodable");
    let mut group = c.benchmark_group("codec_128x96");
    group.bench_function("encode_full", |b| {
        b.iter(|| encoder.encode(black_box(&image)).expect("encodable"))
    });
    group.bench_function("entropy_code_only", |b| {
        b.iter(|| encode_coefficients(black_box(&coeffs)).expect("encodable"))
    });
    group.bench_function("decode_full", |b| {
        b.iter(|| JpegDecoder::decode(black_box(&bytes)).expect("decodable"))
    });
    group.bench_function("drop_dc", |b| {
        b.iter_batched(
            || coeffs.clone(),
            |c| c.drop_dc(DcDropMode::KeepCorners),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_recovery(c: &mut Criterion) {
    let image = SceneGenerator::new(SceneKind::Natural, 96, 96).generate(2);
    let coeffs = CoeffImage::from_image(&image, 50, ChromaSampling::Cs444);
    let dropped = coeffs.drop_dc(DcDropMode::KeepCorners);
    let mut group = c.benchmark_group("recovery_96x96");
    group.sample_size(20);
    group.bench_function("tip2006", |b| {
        b.iter(|| Tip2006::new().recover(black_box(&dropped)))
    });
    group.bench_function("smartcom2019", |b| {
        b.iter(|| SmartCom2019::new().recover(black_box(&dropped)))
    });
    group.bench_function("ong2017_two_pass", |b| {
        b.iter(|| Ong2017::new().recover(black_box(&dropped)))
    });
    group.bench_function("icip2022_120sweeps", |b| {
        b.iter(|| Icip2022::new().recover(black_box(&dropped)))
    });
    group.bench_function("mld_refine_150sweeps", |b| {
        b.iter(|| {
            dcdiff_core::refine_dc_offsets(
                black_box(&dropped),
                black_box(&dropped),
                10.0,
                0.05,
                150,
            )
        })
    });
    group.finish();
}

fn bench_diffusion(c: &mut Criterion) {
    let mut rng = seeded_rng(3);
    let stage2 =
        dcdiff_core::Stage2::new(4, 16, NoiseSchedule::linear(200, 1e-3, 2e-2), &mut rng);
    let z = Tensor::randn(vec![1, 4, 12, 12], 1.0, &mut rng);
    let cond = Tensor::randn(vec![1, 3, 12, 12], 0.3, &mut rng);
    let control = stage2.control_features(&cond);
    let mut group = c.benchmark_group("diffusion");
    group.sample_size(20);
    group.bench_function("unet_step_12x12", |b| {
        b.iter(|| stage2.predict_noise(black_box(&z), &[100], black_box(&control), None))
    });
    group.finish();
}

fn bench_tensor_primitives(c: &mut Criterion) {
    let mut rng = seeded_rng(4);
    let a = Tensor::randn(vec![64, 64], 1.0, &mut rng);
    let b = Tensor::randn(vec![64, 64], 1.0, &mut rng);
    let x = Tensor::randn(vec![1, 16, 32, 32], 1.0, &mut rng);
    let w = Tensor::randn(vec![16, 16, 3, 3], 0.2, &mut rng);
    let xp = Tensor::randn(vec![1, 16, 32, 32], 1.0, &mut rng);
    let mut group = c.benchmark_group("tensor");
    group.bench_function("matmul_64x64", |bch| {
        bch.iter(|| black_box(&a).matmul(black_box(&b)))
    });
    group.bench_function("conv2d_16ch_32x32_fwd", |bch| {
        bch.iter(|| black_box(&x).conv2d(black_box(&w), 1, 1))
    });
    group.sample_size(20);
    group.bench_function("conv2d_backward", |bch| {
        bch.iter_batched(
            || Tensor::param(vec![1, 16, 32, 32], xp.to_vec()),
            |p| p.conv2d(&w, 1, 1).square().mean_all().backward(),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_entropy_variants(c: &mut Criterion) {
    let image = SceneGenerator::new(SceneKind::Natural, 96, 96).generate(5);
    let coeffs = JpegEncoder::new(50).to_coefficients(&image);
    let mut group = c.benchmark_group("entropy");
    group.bench_function("standard_tables", |b| {
        b.iter(|| encode_coefficients(black_box(&coeffs)).expect("encodable"))
    });
    group.bench_function("optimized_tables_two_pass", |b| {
        b.iter(|| {
            dcdiff_jpeg::encode_coefficients_optimized(black_box(&coeffs)).expect("encodable")
        })
    });
    group.bench_function("with_restart_markers", |b| {
        b.iter(|| {
            dcdiff_jpeg::encode_coefficients_with_restarts(black_box(&coeffs), 4)
                .expect("encodable")
        })
    });
    group.finish();
}

fn bench_samplers(c: &mut Criterion) {
    let mut rng = seeded_rng(6);
    let stage2 =
        dcdiff_core::Stage2::new(4, 16, NoiseSchedule::linear(200, 1e-3, 2e-2), &mut rng);
    let cond = Tensor::randn(vec![1, 3, 12, 12], 0.3, &mut rng);
    let control: Vec<Tensor> = stage2
        .control_features(&cond)
        .iter()
        .map(Tensor::detach)
        .collect();
    let mut group = c.benchmark_group("samplers");
    group.sample_size(10);
    group.bench_function("ddim_10_steps_12x12", |b| {
        b.iter(|| {
            let sampler =
                dcdiff_diffusion::DdimSampler::new(stage2.schedule().clone(), 10);
            let mut lanes = [dcdiff_diffusion::BatchLane::new(seeded_rng(7))];
            sampler.try_sample_cohort::<()>(
                &[1, 4, 12, 12],
                &mut lanes,
                |z, t, _active| Ok(stage2.predict_noise(z, &[t], &control, None)),
                |_lane, _t| Ok(()),
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_dct,
    bench_codec,
    bench_recovery,
    bench_diffusion,
    bench_tensor_primitives,
    bench_entropy_variants,
    bench_samplers
);
criterion_main!(benches);
