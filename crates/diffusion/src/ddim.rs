//! Step-synchronized DDIM sampling: K in-flight samples share one noise
//! prediction per step.
//!
//! A cohort of K lanes with the same `(schedule, steps)` visits identical
//! timesteps, so their latents are stacked along the batch dimension and the
//! whole cohort advances with a single predictor call per step. A lone
//! sample is simply a cohort of width 1. The conv2d kernels already batch all
//! N samples' im2col rows into one GEMM, so a width-K forward amortises
//! packing, dispatch and fringe overhead that K width-1 forwards each pay in
//! full.
//!
//! Invariants the sampler maintains:
//!
//! * **Bit-identity per lane.** Each lane draws its initial noise from its
//!   own [`Rng`] and its per-step update (`ẑ_0` projection, DDIM move) is
//!   computed on the lane's own `[1, …]` tensors. Provided the batched noise
//!   predictor returns, row for row, exactly what the width-1 predictor
//!   returns (the `dcdiff-nn` kernels guarantee this; see the
//!   batch-consistency tests there), a lane's output is bit-identical
//!   regardless of cohort composition.
//! * **Cooperative per-lane eviction.** Before each step the `gate`
//!   callback may evict a lane (deadline expiry); the lane's slot resolves
//!   to `Err` and the cohort continues narrower, re-stacking only the
//!   surviving lanes. An `Err` from the shared predictor itself is
//!   cohort-fatal: every still-active lane resolves to a clone of it.
//! * **Observability.** Each shared forward records the active width on the
//!   `diffusion.batch.width` histogram and bumps the
//!   `diffusion.batch.{shared_forwards,lane_steps}` counters; evictions bump
//!   `diffusion.batch.evictions`. Per lane and per step, a complete
//!   `recover.ddim_step` span is written with the lane's trace context
//!   installed, so request traces keep linking `serve.request` → per-step
//!   spans even when steps are shared.

use std::time::Instant;

use dcdiff_telemetry::{names, TraceCtx};
use dcdiff_tensor::{Rng, Tensor};

use crate::NoiseSchedule;

/// One sample's private state inside a cohort: its RNG stream and the
/// trace context its per-step spans should be attributed to.
#[derive(Debug)]
pub struct BatchLane {
    /// Per-lane RNG; seeding it from the job's identity (not its cohort
    /// position) is what makes results composition-independent.
    pub rng: Rng,
    /// Trace context installed while writing this lane's step spans.
    pub trace: Option<TraceCtx>,
}

impl BatchLane {
    /// A lane with no trace attribution.
    pub fn new(rng: Rng) -> Self {
        Self { rng, trace: None }
    }

    /// Attribute this lane's per-step spans to `trace`.
    pub fn with_trace(mut self, trace: TraceCtx) -> Self {
        self.trace = Some(trace);
        self
    }
}

/// Deterministic DDIM sampler (Song et al., η = 0) advancing a cohort of K
/// samples in lock-step, one shared noise-predictor call per step.
///
/// The sampler visits a strided subsequence of the training schedule's
/// timesteps. At each visited step it asks the noise predictor for
/// `ε̂(z_t, t)`, projects to `ẑ_0`, and moves to the previous visited
/// timestep along the DDIM ODE:
///
/// `z_{t'} = sqrt(ᾱ_{t'}) ẑ_0 + sqrt(1 − ᾱ_{t'}) ε̂`.
///
/// # Example
///
/// ```
/// use dcdiff_diffusion::{BatchLane, DdimSampler, NoiseSchedule};
/// use dcdiff_tensor::seeded_rng;
///
/// let schedule = NoiseSchedule::linear(100, 1e-4, 2e-2);
/// let sampler = DdimSampler::new(schedule.clone(), 10);
/// // A "perfect" predictor for z0 = 0 simply returns z_t / sqrt(1 - abar);
/// // it is elementwise, so it serves any cohort width.
/// let mut lanes = vec![BatchLane::new(seeded_rng(0)), BatchLane::new(seeded_rng(1))];
/// let out = sampler.try_sample_cohort::<()>(
///     &[1, 1, 4, 4],
///     &mut lanes,
///     |z, t, _active| Ok(z.scale(1.0 / (1.0 - schedule.alpha_bar(t)).sqrt())),
///     |_lane, _t| Ok(()),
/// );
/// for lane in out {
///     assert!(lane.unwrap().to_vec().iter().all(|v| v.abs() < 1e-3));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct DdimSampler {
    schedule: NoiseSchedule,
    steps: usize,
}

impl DdimSampler {
    /// Create a sampler taking `steps` DDIM steps over `schedule`.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is zero or exceeds the schedule length.
    pub fn new(schedule: NoiseSchedule, steps: usize) -> Self {
        assert!(
            steps > 0 && steps <= schedule.steps(),
            "ddim steps must be in 1..=T"
        );
        Self { schedule, steps }
    }

    /// The underlying noise schedule.
    pub fn schedule(&self) -> &NoiseSchedule {
        &self.schedule
    }

    /// Number of DDIM steps taken.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// The descending subsequence of timesteps the sampler visits. Every
    /// lane of a cohort visits the same sequence, which is what makes
    /// lock-step batching possible at all.
    pub fn timesteps(&self) -> Vec<usize> {
        let t_max = self.schedule.steps();
        let mut ts: Vec<usize> = (0..self.steps).map(|i| i * t_max / self.steps).collect();
        ts.dedup();
        ts.reverse();
        ts
    }

    /// Run the reverse process from Gaussian noise for a whole cohort, one
    /// shared predictor call per step.
    ///
    /// `sample_shape` is the **per-lane** latent shape with a leading batch
    /// dimension of 1 (e.g. `[1, c, h, w]`). `eps_fn(z, t, active)`
    /// receives the stacked latents `[k, c, h, w]` of the `k` currently
    /// active lanes plus their lane indices (ascending), and must return
    /// predicted noise of the same stacked shape; row `r` corresponds to
    /// lane `active[r]`. `gate(lane, t)` is consulted per lane before every
    /// step: an `Err` evicts that lane (its slot resolves to the error) while
    /// the rest of the cohort continues. Each lane's result is its final
    /// `ẑ_0`.
    ///
    /// Returns one `Result` per input lane, in lane order. An `Err` from
    /// `eps_fn` is cohort-fatal: all lanes still active at that step resolve
    /// to a clone of the error (`E: Clone` exists for exactly this) and no
    /// further steps run.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is empty or `sample_shape` does not lead with a
    /// batch dimension of 1.
    pub fn try_sample_cohort<E: Clone>(
        &self,
        sample_shape: &[usize],
        lanes: &mut [BatchLane],
        mut eps_fn: impl FnMut(&Tensor, usize, &[usize]) -> Result<Tensor, E>,
        mut gate: impl FnMut(usize, usize) -> Result<(), E>,
    ) -> Vec<Result<Tensor, E>> {
        let k = lanes.len();
        assert!(k > 0, "cohort must have at least one lane");
        assert_eq!(
            sample_shape.first().copied(),
            Some(1),
            "sample_shape is per-lane and must lead with a batch dim of 1"
        );
        let per: usize = sample_shape.iter().product();
        let ts = self.timesteps();
        let tel = dcdiff_telemetry::global();
        tel.counter(names::CTR_DIFFUSION_BATCH_COHORTS).add(1);
        tel.histogram(names::HIST_DIFFUSION_BATCH_COHORT_LANES)
            .record(k as u64);

        // Each lane's initial noise comes from its own stream, so the draw
        // is independent of cohort width and position.
        let mut latents: Vec<Tensor> = lanes
            .iter_mut()
            .map(|lane| Tensor::randn(sample_shape.to_vec(), 1.0, &mut lane.rng))
            .collect();
        let mut out: Vec<Option<Result<Tensor, E>>> = (0..k).map(|_| None).collect();

        for (i, &t) in ts.iter().enumerate() {
            for (lane, slot) in out.iter_mut().enumerate() {
                if slot.is_none() {
                    if let Err(e) = gate(lane, t) {
                        *slot = Some(Err(e));
                        tel.counter(names::CTR_DIFFUSION_BATCH_EVICTIONS).add(1);
                    }
                }
            }
            let active: Vec<usize> = (0..k).filter(|&l| out[l].is_none()).collect();
            if active.is_empty() {
                break;
            }

            let step_start = Instant::now();
            let mut stacked_data = Vec::with_capacity(per * active.len());
            for &l in &active {
                stacked_data.extend_from_slice(&latents[l].to_vec());
            }
            let mut stacked_shape = sample_shape.to_vec();
            stacked_shape[0] = active.len();
            let stacked = Tensor::from_vec(stacked_shape, stacked_data);

            tel.histogram(names::HIST_DIFFUSION_BATCH_WIDTH)
                .record(active.len() as u64);
            tel.counter(names::CTR_DIFFUSION_BATCH_SHARED_FORWARDS).add(1);
            tel.counter(names::CTR_DIFFUSION_BATCH_LANE_STEPS)
                .add(active.len() as u64);

            let eps_all = match eps_fn(&stacked, t, &active) {
                Ok(e) => e.detach(),
                Err(e) => {
                    // Predictor failure is cohort-fatal: no lane can take
                    // this step, so all active lanes see the same error.
                    for &l in &active {
                        out[l] = Some(Err(e.clone()));
                    }
                    break;
                }
            };
            let eps_data = eps_all.to_vec();

            for (row, &l) in active.iter().enumerate() {
                // Per-lane math on [1, …] tensors, so a lane's arithmetic
                // never depends on which other lanes share the step.
                let eps = Tensor::from_vec(
                    sample_shape.to_vec(),
                    eps_data[row * per..(row + 1) * per].to_vec(),
                );
                let z0 = self.schedule.predict_z0(&latents[l], t, &eps);
                if i + 1 < ts.len() {
                    let ab_prev = self.schedule.alpha_bar(ts[i + 1]);
                    latents[l] = z0
                        .scale(ab_prev.sqrt())
                        .add(&eps.scale((1.0 - ab_prev).sqrt()))
                        .detach();
                } else {
                    out[l] = Some(Ok(z0.detach()));
                }
            }

            let step_end = Instant::now();
            for &l in &active {
                let _attributed = lanes[l].trace.map(dcdiff_telemetry::install_trace);
                tel.record_span(names::SPAN_RECOVER_DDIM_STEP, step_start, step_end);
            }
        }

        out.into_iter()
            .map(|slot| slot.expect("every lane resolves by the final step"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcdiff_tensor::seeded_rng;
    use proptest::prelude::*;

    /// Reference single-sample DDIM loop, written independently of the
    /// cohort machinery (no stacking, no gate) so the cohort sampler is
    /// checked against the textbook update rather than against itself.
    fn reference_sample(
        sampler: &DdimSampler,
        shape: &[usize],
        rng: &mut Rng,
        eps_fn: impl Fn(&Tensor, usize) -> Tensor,
    ) -> Tensor {
        let schedule = sampler.schedule();
        let mut z = Tensor::randn(shape.to_vec(), 1.0, rng);
        let ts = sampler.timesteps();
        for (i, &t) in ts.iter().enumerate() {
            let eps = eps_fn(&z, t).detach();
            let z0 = schedule.predict_z0(&z, t, &eps);
            z = match ts.get(i + 1) {
                Some(&t_prev) => {
                    let ab_prev = schedule.alpha_bar(t_prev);
                    z0.scale(ab_prev.sqrt())
                        .add(&eps.scale((1.0 - ab_prev).sqrt()))
                        .detach()
                }
                None => z0.detach(),
            };
        }
        z
    }

    fn reference(seed: u64, steps: usize, scale: f32) -> Vec<f32> {
        let sampler = DdimSampler::new(NoiseSchedule::linear(50, 1e-4, 2e-2), steps);
        let mut rng = seeded_rng(seed);
        reference_sample(&sampler, &[1, 2, 2, 2], &mut rng, |z, _| z.scale(scale)).to_vec()
    }

    /// Run `seeds.len()` lanes through one cohort with a row-independent
    /// toy predictor and no eviction.
    fn cohort(sampler: &DdimSampler, shape: &[usize], seeds: &[u64], scale: f32) -> Vec<Vec<f32>> {
        let mut lanes: Vec<BatchLane> =
            seeds.iter().map(|&s| BatchLane::new(seeded_rng(s))).collect();
        sampler
            .try_sample_cohort::<()>(
                shape,
                &mut lanes,
                |z, _t, _active| Ok(z.scale(scale)),
                |_lane, _t| Ok(()),
            )
            .into_iter()
            .map(|lane| lane.expect("no eviction").to_vec())
            .collect()
    }

    #[test]
    fn timesteps_are_strictly_descending() {
        let sampler = DdimSampler::new(NoiseSchedule::linear(1000, 1e-4, 2e-2), 50);
        let ts = sampler.timesteps();
        assert_eq!(ts.len(), 50);
        for w in ts.windows(2) {
            assert!(w[0] > w[1]);
        }
        assert_eq!(*ts.last().unwrap(), 0);
    }

    #[test]
    fn full_step_count_visits_every_timestep() {
        let sampler = DdimSampler::new(NoiseSchedule::linear(20, 1e-3, 2e-2), 20);
        assert_eq!(sampler.timesteps().len(), 20);
    }

    #[test]
    fn oracle_predictor_recovers_constant_target() {
        // If the model always predicts the exact noise that separates z_t
        // from a fixed target z0*, DDIM must land on z0* — for the cohort
        // sampler at width 1 and for the reference loop alike.
        let schedule = NoiseSchedule::linear(100, 1e-4, 2e-2);
        let sampler = DdimSampler::new(schedule.clone(), 10);
        let target = 2.5f32;
        // eps = (z_t - sqrt(abar) z0*) / sqrt(1 - abar)
        let oracle = |zt: &Tensor, t: usize| {
            let ab = schedule.alpha_bar(t);
            zt.add_scalar(-ab.sqrt() * target)
                .scale(1.0 / (1.0 - ab).sqrt())
        };
        let mut lanes = vec![BatchLane::new(seeded_rng(1))];
        let out = sampler.try_sample_cohort::<()>(
            &[1, 1, 2, 2],
            &mut lanes,
            |zt, t, _active| Ok(oracle(zt, t)),
            |_lane, _t| Ok(()),
        );
        let solo = out[0].as_ref().expect("no eviction").to_vec();
        for &v in &solo {
            assert!((v - target).abs() < 1e-2, "got {v}, want {target}");
        }
        let mut rng = seeded_rng(1);
        assert_eq!(solo, reference_sample(&sampler, &[1, 1, 2, 2], &mut rng, oracle).to_vec());
    }

    #[test]
    fn deterministic_given_seed() {
        let sampler = DdimSampler::new(NoiseSchedule::linear(50, 1e-4, 2e-2), 5);
        let run = |seed: u64| cohort(&sampler, &[1, 2, 2, 2], &[seed], 0.1);
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    #[should_panic(expected = "ddim steps")]
    fn rejects_zero_steps() {
        DdimSampler::new(NoiseSchedule::linear(10, 1e-3, 2e-2), 0);
    }

    #[test]
    fn cohort_lanes_match_reference_bit_exactly() {
        let sampler = DdimSampler::new(NoiseSchedule::linear(50, 1e-4, 2e-2), 5);
        let out = cohort(&sampler, &[1, 2, 2, 2], &[0, 1, 2, 3], 0.1);
        for (lane, got) in out.iter().enumerate() {
            assert_eq!(got, &reference(lane as u64, 5, 0.1), "lane {lane}");
        }
    }

    #[test]
    fn lane_output_is_independent_of_cohort_width() {
        let sampler = DdimSampler::new(NoiseSchedule::linear(50, 1e-4, 2e-2), 5);
        let run_at_width = |width: usize| -> Vec<f32> {
            // Lane 0 always seeded with 42; fill lanes 1.. with other seeds.
            let seeds: Vec<u64> =
                (0..width).map(|l| if l == 0 { 42 } else { 1000 + l as u64 }).collect();
            cohort(&sampler, &[1, 2, 2, 2], &seeds, 0.2).swap_remove(0)
        };
        let w1 = run_at_width(1);
        assert_eq!(w1, run_at_width(2));
        assert_eq!(w1, run_at_width(8));
        assert_eq!(w1, reference(42, 5, 0.2));
    }

    #[test]
    fn evicted_lane_resolves_to_error_and_cohort_continues() {
        let sampler = DdimSampler::new(NoiseSchedule::linear(50, 1e-4, 2e-2), 5);
        let mut lanes: Vec<BatchLane> =
            (0..3).map(|s| BatchLane::new(seeded_rng(s as u64))).collect();
        let mut widths = Vec::new();
        let out = sampler.try_sample_cohort::<&str>(
            &[1, 2, 2, 2],
            &mut lanes,
            |z, _t, active| {
                widths.push(active.len());
                Ok(z.scale(0.1))
            },
            |lane, t| {
                // Evict lane 1 partway through the schedule.
                if lane == 1 && t < 30 {
                    Err("deadline blown")
                } else {
                    Ok(())
                }
            },
        );
        assert!(out[0].is_ok());
        assert_eq!(out[1].as_ref().unwrap_err(), &"deadline blown");
        assert!(out[2].is_ok());
        // The cohort narrowed but never stopped.
        assert!(widths.contains(&3) && widths.contains(&2), "{widths:?}");
        // Surviving lanes are unaffected by the eviction.
        assert_eq!(out[0].as_ref().unwrap().to_vec(), reference(0, 5, 0.1));
        assert_eq!(out[2].as_ref().unwrap().to_vec(), reference(2, 5, 0.1));
    }

    #[test]
    fn lone_lane_gate_error_stops_sampling() {
        // The width-1 cohort is the only sampling path, so a lone job's
        // deadline must stop it at the failing step, not after the chain.
        let sampler = DdimSampler::new(NoiseSchedule::linear(100, 1e-4, 2e-2), 10);
        let mut lanes = vec![BatchLane::new(seeded_rng(3))];
        let mut forwards = 0usize;
        let mut checks = 0usize;
        let out = sampler.try_sample_cohort::<&str>(
            &[1, 1, 2, 2],
            &mut lanes,
            |z, _t, _active| {
                forwards += 1;
                Ok(z.scale(0.1))
            },
            |_lane, _t| {
                checks += 1;
                if checks == 4 {
                    Err("deadline blown")
                } else {
                    Ok(())
                }
            },
        );
        assert_eq!(out[0].as_ref().unwrap_err(), &"deadline blown");
        assert_eq!(forwards, 3, "sampling must stop at the failing step");
    }

    #[test]
    fn predictor_error_is_cohort_fatal_for_active_lanes() {
        let sampler = DdimSampler::new(NoiseSchedule::linear(50, 1e-4, 2e-2), 5);
        let mut lanes: Vec<BatchLane> =
            (0..2).map(|s| BatchLane::new(seeded_rng(s as u64))).collect();
        let mut calls = 0usize;
        let out = sampler.try_sample_cohort::<&str>(
            &[1, 1, 2, 2],
            &mut lanes,
            |z, _t, _active| {
                calls += 1;
                if calls == 3 {
                    Err("model exploded")
                } else {
                    Ok(z.scale(0.1))
                }
            },
            |_lane, _t| Ok(()),
        );
        assert_eq!(calls, 3, "sampling must stop at the failing forward");
        for r in &out {
            assert_eq!(r.as_ref().unwrap_err(), &"model exploded");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        // K=1..8 parity with the reference loop per lane, including
        // mid-cohort lane eviction on a fallible epsilon model.
        #[test]
        fn cohort_matches_sequential_per_lane(
            k in 1usize..=8,
            steps in 1usize..=8,
            seed0 in 0u64..10_000,
            evict_lane in 0usize..8,
            evict_after in 0usize..8,
            scale_milli in 10u32..400,
        ) {
            let scale = scale_milli as f32 / 1000.0;
            let schedule = NoiseSchedule::linear(40, 1e-4, 2e-2);
            let sampler = DdimSampler::new(schedule, steps);
            let ts = sampler.timesteps();
            let evict_lane = evict_lane % k;
            // The lane is evicted before step index `evict_after` (may be
            // past the end, i.e. never evicted).
            let evict_at_t = ts.get(evict_after).copied();

            let mut lanes: Vec<BatchLane> = (0..k)
                .map(|l| BatchLane::new(seeded_rng(seed0 + l as u64)))
                .collect();
            let out = sampler.try_sample_cohort::<&str>(
                &[1, 1, 3, 2],
                &mut lanes,
                |z, _t, _active| Ok(z.scale(scale)),
                |lane, t| match evict_at_t {
                    Some(et) if lane == evict_lane && t <= et => Err("evicted"),
                    _ => Ok(()),
                },
            );

            for (lane, lane_out) in out.iter().enumerate() {
                let mut rng = seeded_rng(seed0 + lane as u64);
                if lane == evict_lane && evict_at_t.is_some() {
                    prop_assert_eq!(lane_out.as_ref().unwrap_err(), &"evicted");
                    continue;
                }
                let solo =
                    reference_sample(&sampler, &[1, 1, 3, 2], &mut rng, |z, _| z.scale(scale));
                let got = lane_out.as_ref().expect("lane survived").to_vec();
                prop_assert_eq!(got, solo.to_vec(), "lane {} of {}", lane, k);
            }
        }
    }
}
