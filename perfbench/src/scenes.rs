//! Workload definitions and their inputs: seeded scenes, DC-dropped JPEG
//! streams staged on disk before any server or runtime starts, and the
//! output checks every response or job result goes through.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use dcdiff_data::{SceneGenerator, SceneKind};
use dcdiff_image::{read_ppm, Image};
use dcdiff_jpeg::{encode_coefficients, DcDropMode, JpegEncoder};
use dcdiff_runtime::RecoverMethod;

/// JPEG quality of the sender (the paper's and the CLI's default).
const QUALITY: u8 = 50;

/// Scene kinds cycled through every pool, so each seed gets the same mix.
const KINDS: [SceneKind; 5] = [
    SceneKind::Smooth,
    SceneKind::Natural,
    SceneKind::Texture,
    SceneKind::Urban,
    SceneKind::Aerial,
];

/// The three benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// HTTP front door, `--method mld`, 128×128 scenes.
    ServeMld,
    /// HTTP front door, `--method diffusion` (8 DDIM steps), 64×64 scenes.
    ServeDiffusion,
    /// In-process runtime, diffusion at 50 DDIM steps, 3:1 mix of 64×64
    /// and 128×128 scenes, 16 jobs outstanding.
    BatchDiffusion,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ServeMld,
        Workload::ServeDiffusion,
        Workload::BatchDiffusion,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeMld => "serve_mld",
            Workload::ServeDiffusion => "serve_diffusion",
            Workload::BatchDiffusion => "batch_diffusion",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Recovery method, as the shipped defaults spell it: `dcdiff serve
    /// --method mld|diffusion` for the serve workloads, the paper's 50 DDIM
    /// steps for the batch workload.
    pub fn method(self) -> RecoverMethod {
        match self {
            Workload::ServeMld => dcdiff_serve::ServeConfig::default().method,
            Workload::ServeDiffusion => dcdiff_serve::method_from_name("diffusion", 10.0, 300)
                .unwrap_or(RecoverMethod::Diffusion { ddim_steps: 8 }),
            Workload::BatchDiffusion => RecoverMethod::Diffusion { ddim_steps: 50 },
        }
    }

    /// Square canvas edge of pool scene `i`. The batch pool interleaves
    /// one 128×128 scene after every three 64×64 ones.
    pub fn canvas(self, i: usize) -> usize {
        match self {
            Workload::ServeMld => 128,
            Workload::ServeDiffusion => 64,
            Workload::BatchDiffusion if i % 4 == 3 => 128,
            Workload::BatchDiffusion => 64,
        }
    }

    /// Distinct canvases with their share of the pool.
    pub fn canvas_mix(self) -> Vec<(usize, f64)> {
        match self {
            Workload::BatchDiffusion => vec![(64, 0.75), (128, 0.25)],
            w => vec![(w.canvas(0), 1.0)],
        }
    }

    /// Distinct scenes in the pool. Requests cycle through it, so every
    /// scene is recovered several times and each repeat must match the
    /// first; `psnr_db` averages over it. The batch pool is smaller so that
    /// even a much slower build recovers every scene within one run.
    pub fn pool(self) -> usize {
        match self {
            Workload::BatchDiffusion => 64,
            _ => 128,
        }
    }

    /// DDIM steps of the diffusion method (`None` for MLD).
    pub fn ddim_steps(self) -> Option<usize> {
        match self.method() {
            RecoverMethod::Diffusion { ddim_steps } => Some(ddim_steps),
            _ => None,
        }
    }
}

/// One scene's sender-side stream. The uncompressed source is not kept
/// (it would dominate the process's memory); [`Scene::source`] regenerates
/// it for the quality check.
pub struct Scene {
    generator: SceneGenerator,
    seed: u64,
    pub jpeg: Vec<u8>,
    pub size: usize,
    /// The stream staged on disk (batch jobs and probes read it).
    pub path: PathBuf,
}

/// Generate and stage the workload's scene pool from `seed`.
pub fn generate(workload: Workload, seed: u64, dir: &Path) -> Result<Vec<Scene>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    (0..workload.pool())
        .map(|i| {
            let size = workload.canvas(i);
            let kind = KINDS[i % KINDS.len()];
            let scene_seed = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i as u64);
            let generator = SceneGenerator::new(kind, size, size);
            let source = generator.generate(scene_seed);
            let coeffs = JpegEncoder::new(QUALITY)
                .to_coefficients(&source)
                .drop_dc(DcDropMode::KeepCorners);
            let jpeg =
                encode_coefficients(&coeffs).map_err(|e| format!("encode scene {i}: {e}"))?;
            let path = dir.join(format!("scene-{i}.jpg"));
            std::fs::write(&path, &jpeg).map_err(|e| format!("{}: {e}", path.display()))?;
            Ok(Scene {
                generator,
                seed: scene_seed,
                jpeg,
                size,
                path,
            })
        })
        .collect()
}

impl Scene {
    /// The uncompressed source scene.
    pub fn source(&self) -> Image {
        self.generator.generate(self.seed)
    }
}

/// First output seen for each scene; every later output of the same scene
/// must be byte-identical to it (recovery is deterministic per stream).
pub struct References {
    first: Vec<OnceLock<Vec<u8>>>,
}

impl References {
    pub fn new(n: usize) -> References {
        References {
            first: (0..n).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Check one recovered PPM for scene `i`: a `size`×`size` binary PPM
    /// whose bytes equal the scene's first output.
    pub fn check(&self, i: usize, size: usize, ppm: &[u8]) -> Result<(), String> {
        let header = format!("P6\n{size} {size}\n255\n");
        if !ppm.starts_with(header.as_bytes()) || ppm.len() != header.len() + size * size * 3 {
            let head = String::from_utf8_lossy(&ppm[..ppm.len().min(16)]).into_owned();
            return Err(format!(
                "scene {i}: expected a {size}x{size} PPM ({} bytes), got {} bytes starting {head:?}",
                header.len() + size * size * 3,
                ppm.len()
            ));
        }
        let first = self.first[i].get_or_init(|| ppm.to_vec());
        if first.as_slice() != ppm {
            return Err(format!("scene {i}: output differs from its first recovery"));
        }
        Ok(())
    }

    /// Mean PSNR (dB) of every scene's output against its source. Fails if
    /// a scene was never recovered.
    pub fn mean_psnr(&self, scenes: &[Scene], dir: &Path) -> Result<f64, String> {
        let path = dir.join("psnr-check.ppm");
        let mut sum = 0.0f64;
        for (i, scene) in scenes.iter().enumerate() {
            let ppm = self.first[i]
                .get()
                .ok_or_else(|| format!("scene {i} never recovered"))?;
            std::fs::write(&path, ppm).map_err(|e| format!("{}: {e}", path.display()))?;
            let output = read_ppm(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            sum += f64::from(dcdiff_metrics::psnr(&scene.source(), &output));
        }
        Ok(sum / scenes.len() as f64)
    }
}
