//! Declarative experiment cells and their stable fingerprints.

use eos_core::{Direction, Eos, GapAwareEos, Scale};
use eos_gan::{BaganLite, CGan, DeepSmote, GamoLite};
use eos_nn::LossKind;
use eos_resample::{BalancedSvm, BorderlineSmote, Oversampler, Remix, Smote};
use eos_tensor::record::Fnv;
use eos_tensor::Rng64;

/// An RNG stream derived from the master seed and a path of name parts.
/// Each part is hashed with a terminator, so neither reordering the
/// parts nor moving a boundary between them collides.
pub fn mix_rng(seed: u64, parts: &[&str]) -> Rng64 {
    let mut h = Fnv::new();
    h.u64(seed);
    for p in parts {
        h.str(p);
    }
    Rng64::new(h.finish())
}

/// Which oversampler an experiment cell applies to the train embeddings
/// (or pixels) — the declarative form of the samplers the binaries used
/// to construct inline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SamplerSpec {
    /// No augmentation.
    Baseline,
    /// SMOTE with `k` neighbours.
    Smote {
        /// Interpolation neighbourhood size.
        k: usize,
    },
    /// Borderline-SMOTE with `k` interpolation / `m` danger neighbours.
    BorderlineSmote {
        /// Interpolation neighbourhood size.
        k: usize,
        /// Danger-zone detection neighbourhood size.
        m: usize,
    },
    /// Balanced-SVM oversampling with `k` neighbours.
    BalancedSvm {
        /// Interpolation neighbourhood size.
        k: usize,
    },
    /// Remix (pixel-space mixing; pre-processing arm only).
    Remix,
    /// Expansive Over-Sampling.
    Eos {
        /// Enemy neighbourhood size `K`.
        k: usize,
        /// Interpolation direction.
        direction: Direction,
        /// Interpolation coefficient cap (`r ~ U[0, r_scale]`).
        r_scale: f32,
    },
    /// Gap-aware EOS (the §VII future-work extension).
    GapAwareEos {
        /// Enemy neighbourhood size `K`.
        k: usize,
    },
    /// GAMO-lite GAN baseline.
    GamoLite,
    /// BAGAN-lite GAN baseline.
    BaganLite,
    /// DeepSMOTE baseline.
    DeepSmote,
    /// Conditional GAN baseline.
    CGan,
}

impl SamplerSpec {
    /// EOS with the calibrated defaults of [`Eos::new`].
    pub fn eos(k: usize) -> Self {
        let d = Eos::new(k);
        SamplerSpec::Eos {
            k: d.k,
            direction: d.direction,
            r_scale: d.r_scale,
        }
    }

    /// The three classical oversamplers of Tables I/II, in the paper's
    /// column order.
    pub fn classic_lineup() -> [SamplerSpec; 3] {
        [
            SamplerSpec::Smote { k: 5 },
            SamplerSpec::BorderlineSmote { k: 5, m: 5 },
            SamplerSpec::BalancedSvm { k: 5 },
        ]
    }

    /// Short name used in experiment output (matches each sampler's own
    /// [`Oversampler::name`]).
    pub fn name(&self) -> &'static str {
        match self {
            SamplerSpec::Baseline => "Baseline",
            SamplerSpec::Smote { .. } => "SMOTE",
            SamplerSpec::BorderlineSmote { .. } => "B-SMOTE",
            SamplerSpec::BalancedSvm { .. } => "Bal-SVM",
            SamplerSpec::Remix => "Remix",
            SamplerSpec::Eos { .. } => "EOS",
            SamplerSpec::GapAwareEos { .. } => "GapEOS",
            SamplerSpec::GamoLite => "GAMO",
            SamplerSpec::BaganLite => "BAGAN",
            SamplerSpec::DeepSmote => "DeepSMOTE",
            SamplerSpec::CGan => "CGAN",
        }
    }

    /// Instantiates the oversampler; `None` for [`SamplerSpec::Baseline`].
    pub fn build(&self) -> Option<Box<dyn Oversampler>> {
        Some(match *self {
            SamplerSpec::Baseline => return None,
            SamplerSpec::Smote { k } => Box::new(Smote::new(k)),
            SamplerSpec::BorderlineSmote { k, m } => Box::new(BorderlineSmote::new(k, m)),
            SamplerSpec::BalancedSvm { k } => Box::new(BalancedSvm::new(k)),
            SamplerSpec::Remix => Box::new(Remix::new()),
            SamplerSpec::Eos {
                k,
                direction,
                r_scale,
            } => {
                let mut eos = Eos::with_direction(k, direction);
                eos.r_scale = r_scale;
                Box::new(eos)
            }
            SamplerSpec::GapAwareEos { k } => Box::new(GapAwareEos::new(k)),
            SamplerSpec::GamoLite => Box::new(GamoLite::new()),
            SamplerSpec::BaganLite => Box::new(BaganLite::new()),
            SamplerSpec::DeepSmote => Box::new(DeepSmote::new()),
            SamplerSpec::CGan => Box::new(CGan::new()),
        })
    }

    fn mix(&self, h: &mut Fnv) {
        h.str(self.name());
        match *self {
            SamplerSpec::Smote { k }
            | SamplerSpec::BalancedSvm { k }
            | SamplerSpec::GapAwareEos { k } => {
                h.u64(k as u64);
            }
            SamplerSpec::BorderlineSmote { k, m } => {
                h.u64(k as u64).u64(m as u64);
            }
            SamplerSpec::Eos {
                k,
                direction,
                r_scale,
            } => {
                h.u64(k as u64)
                    .str(match direction {
                        Direction::TowardEnemy => "toward",
                        Direction::AwayFromEnemy => "away",
                    })
                    .f32(r_scale);
            }
            SamplerSpec::Baseline
            | SamplerSpec::Remix
            | SamplerSpec::GamoLite
            | SamplerSpec::BaganLite
            | SamplerSpec::DeepSmote
            | SamplerSpec::CGan => {}
        }
    }
}

/// One experiment cell: which table it belongs to, what data, which
/// backbone loss, which oversampler, at what scale and master seed. The
/// key type of the engine — everything a cell computes is a pure
/// function of this struct.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentSpec {
    /// Table/figure tag (`"table2"`, `"fig7"`, …).
    pub table: &'static str,
    /// Dataset analogue name (or a custom tag for derived sets).
    pub dataset: &'static str,
    /// Backbone training loss.
    pub loss: LossKind,
    /// The oversampler under evaluation.
    pub sampler: SamplerSpec,
    /// Experiment scale.
    pub scale: Scale,
    /// Master seed.
    pub seed: u64,
}

impl ExperimentSpec {
    /// Stable FNV fingerprint of the cell.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.str("cell/v1")
            .str(self.table)
            .str(self.dataset)
            .str(self.loss.name())
            .str(self.scale.name())
            .u64(self.seed);
        self.sampler.mix(&mut h);
        h.finish()
    }

    /// The cell's private RNG stream, seeded by its fingerprint: results
    /// do not depend on evaluation order or on cache hits, which is what
    /// makes warm reruns byte-identical to cold ones.
    pub fn rng(&self) -> Rng64 {
        Rng64::new(self.fingerprint())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(sampler: SamplerSpec) -> ExperimentSpec {
        ExperimentSpec {
            table: "table2",
            dataset: "cifar10",
            loss: LossKind::Ce,
            sampler,
            scale: Scale::Small,
            seed: 42,
        }
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let a = cell(SamplerSpec::eos(10));
        assert_eq!(a.fingerprint(), cell(SamplerSpec::eos(10)).fingerprint());
        // Every field moves the fingerprint.
        assert_ne!(
            a.fingerprint(),
            cell(SamplerSpec::eos(50)).fingerprint(),
            "sampler params"
        );
        assert_ne!(
            a.fingerprint(),
            cell(SamplerSpec::Smote { k: 5 }).fingerprint(),
            "sampler kind"
        );
        let mut b = a;
        b.loss = LossKind::Ldam;
        assert_ne!(a.fingerprint(), b.fingerprint(), "loss");
        let mut c = a;
        c.seed = 43;
        assert_ne!(a.fingerprint(), c.fingerprint(), "seed");
        let mut d = a;
        d.scale = Scale::Medium;
        assert_ne!(a.fingerprint(), d.fingerprint(), "scale");
        let mut e = a;
        e.table = "table4";
        assert_ne!(a.fingerprint(), e.fingerprint(), "table");
    }

    #[test]
    fn sampler_names_match_instances() {
        for spec in [
            SamplerSpec::Smote { k: 5 },
            SamplerSpec::BorderlineSmote { k: 5, m: 5 },
            SamplerSpec::BalancedSvm { k: 5 },
            SamplerSpec::Remix,
            SamplerSpec::eos(10),
            SamplerSpec::GapAwareEos { k: 10 },
            SamplerSpec::GamoLite,
            SamplerSpec::BaganLite,
            SamplerSpec::DeepSmote,
            SamplerSpec::CGan,
        ] {
            let built = spec.build().expect("non-baseline");
            assert_eq!(built.name(), spec.name());
        }
        assert!(SamplerSpec::Baseline.build().is_none());
    }

    #[test]
    fn classic_lineup_order_matches_paper() {
        let names: Vec<_> = SamplerSpec::classic_lineup()
            .iter()
            .map(|s| s.name())
            .collect();
        assert_eq!(names, vec!["SMOTE", "B-SMOTE", "Bal-SVM"]);
    }

    #[test]
    fn mix_rng_separates_part_boundaries() {
        let a = mix_rng(1, &["ab", "c"]).next_u64();
        let b = mix_rng(1, &["a", "bc"]).next_u64();
        assert_ne!(a, b);
        // Order matters.
        let c = mix_rng(1, &["x", "y"]).next_u64();
        let d = mix_rng(1, &["y", "x"]).next_u64();
        assert_ne!(c, d);
    }

    #[test]
    fn mix_rng_and_cell_fingerprint_are_pinned() {
        // Cell RNG streams derive from both: a change shifts every table.
        assert_eq!(
            mix_rng(42, &["table2", "celeba"]).next_u64(),
            0xa0e328e266d40621
        );
        assert_eq!(cell(SamplerSpec::eos(10)).fingerprint(), 0x1eda019e66536a1e);
    }
}
