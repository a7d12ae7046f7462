//! DC-recovery baselines reproduced from the literature.
//!
//! All four comparison methods of the paper's Table I are implemented
//! from their published algorithms:
//!
//! * [`Tip2006`] — Uehara et al., *IEEE TIP 2006* \[22\]: block-iterative
//!   recovery minimising absolute boundary-pixel differences against
//!   already-recovered neighbours (median estimator).
//! * [`Ong2017`] — Ong et al., *SPIC 2017* \[17\]: the fast two-pass
//!   variant (speed-oriented ancestor, used by the micro-benchmarks).
//! * [`SmartCom2019`] — Qiu et al., *SmartCom 2019* \[18\]: linear
//!   *trend* extrapolation of the last two boundary columns/rows instead
//!   of plain differences (mean estimator).
//! * [`Tii2021`] — Qiu et al., *IEEE TII 2021* \[19\]: SmartCom-2019
//!   recovery followed by a residual CNN trained with MSE to correct
//!   propagation errors (the learned two-step baseline).
//! * [`Icip2022`] — Zhang et al., *ICIP 2022* \[20\]: convex relaxation —
//!   a global weighted least-squares over all per-block DC offsets with
//!   direction-selective pair weights, solved by Gauss–Seidel sweeps.
//!
//! Every method implements [`DcRecovery`]: it receives the receiver-side
//! [`CoeffImage`] with dropped DC (four corner anchors retained) and
//! returns the reconstructed image.
//!
//! # Example
//!
//! ```
//! use dcdiff_baselines::{DcRecovery, SmartCom2019};
//! use dcdiff_image::{ColorSpace, Image};
//! use dcdiff_jpeg::{ChromaSampling, CoeffImage, DcDropMode};
//!
//! let image = Image::filled(32, 32, ColorSpace::Rgb, 200.0);
//! let coeffs = CoeffImage::from_image(&image, 50, ChromaSampling::Cs444);
//! let dropped = coeffs.drop_dc(DcDropMode::KeepCorners);
//! let recovered = SmartCom2019::new().recover(&dropped);
//! assert_eq!(recovered.dims(), (32, 32));
//! ```

mod common;
mod icip2022;
mod ong2017;
mod smartcom2019;
mod tii2021;
mod tip2006;

pub use icip2022::Icip2022;
pub use ong2017::Ong2017;
pub use smartcom2019::SmartCom2019;
pub use tii2021::Tii2021;
pub use tip2006::Tip2006;

use dcdiff_image::Image;
use dcdiff_jpeg::CoeffImage;

/// A receiver-side DC recovery method.
pub trait DcRecovery {
    /// Human-readable method name (used in experiment tables).
    fn name(&self) -> &'static str;

    /// Estimate the dropped DC coefficients of `dropped` and return the
    /// reconstructed pixel image.
    ///
    /// `dropped` must retain the four corner-block DC anchors
    /// ([`dcdiff_jpeg::DcDropMode::KeepCorners`]); methods treat absent
    /// anchors as zero.
    fn recover(&self, dropped: &CoeffImage) -> Image;

    /// Recover and also return the coefficient image with estimated DC
    /// levels filled in (for coefficient-domain analysis).
    fn recover_coefficients(&self, dropped: &CoeffImage) -> CoeffImage;
}
