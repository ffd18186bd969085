//! [`Fingerprint`] implementations for every compilation policy knob.
//!
//! These feed the config half of the engine's compile-cache key: two
//! sessions whose specs and policies fingerprint identically produce
//! byte-identical compile output for the same circuit (the pipeline is
//! deterministic — even the stochastic baseline router is seeded), so a
//! cached result can stand in for a fresh compile. Every field that can
//! change the output is written; hashing more than necessary would only
//! cost a spurious miss, never a wrong hit.

use crate::mapping::InitialMapping;
use crate::route::{LinqConfig, RouterKind, StochasticConfig};
use crate::schedule::SchedulerKind;
use crate::spec::DeviceSpec;
use tilt_hash::{Fingerprint, Hasher};

impl Fingerprint for DeviceSpec {
    fn fingerprint_into(&self, h: &mut Hasher) {
        h.write_usize(self.n_ions()).write_usize(self.head_size());
    }
}

impl Fingerprint for LinqConfig {
    fn fingerprint_into(&self, h: &mut Hasher) {
        h.write_opt_usize(self.max_swap_len)
            .write_f64(self.alpha)
            .write_usize(self.lookahead);
    }
}

impl Fingerprint for StochasticConfig {
    fn fingerprint_into(&self, h: &mut Hasher) {
        h.write_usize(self.trials).write_u64(self.seed);
    }
}

impl Fingerprint for RouterKind {
    fn fingerprint_into(&self, h: &mut Hasher) {
        match self {
            RouterKind::Linq(cfg) => {
                h.write_tag(1);
                cfg.fingerprint_into(h);
            }
            RouterKind::Stochastic(cfg) => {
                h.write_tag(2);
                cfg.fingerprint_into(h);
            }
        }
    }
}

impl Fingerprint for SchedulerKind {
    fn fingerprint_into(&self, h: &mut Hasher) {
        match self {
            SchedulerKind::GreedyMaxExecutable => {
                h.write_tag(1);
            }
            SchedulerKind::NaiveNextGate => {
                h.write_tag(3);
            }
        }
    }
}

impl Fingerprint for InitialMapping {
    fn fingerprint_into(&self, h: &mut Hasher) {
        match self {
            InitialMapping::Identity => {
                h.write_tag(1);
            }
            InitialMapping::Reverse => {
                h.write_tag(2);
            }
            InitialMapping::InteractionChain => {
                h.write_tag(3);
            }
            InitialMapping::Random(seed) => {
                h.write_tag(4).write_u64(*seed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_knob_changes_the_fingerprint() {
        let base = RouterKind::Linq(LinqConfig::default()).fingerprint();
        let variants = [
            RouterKind::Linq(LinqConfig::with_max_swap_len(3)),
            RouterKind::Linq(LinqConfig {
                alpha: 0.5,
                ..LinqConfig::default()
            }),
            RouterKind::Linq(LinqConfig {
                lookahead: 64,
                ..LinqConfig::default()
            }),
            RouterKind::Stochastic(StochasticConfig::default()),
            RouterKind::Stochastic(StochasticConfig {
                seed: 1,
                ..StochasticConfig::default()
            }),
        ];
        for v in &variants {
            assert_ne!(base, v.fingerprint(), "{v:?}");
        }
    }

    #[test]
    fn scheduler_and_mapping_variants_are_distinct() {
        let kinds = [
            SchedulerKind::GreedyMaxExecutable.fingerprint(),
            SchedulerKind::NaiveNextGate.fingerprint(),
        ];
        for i in 0..kinds.len() {
            for j in i + 1..kinds.len() {
                assert_ne!(kinds[i], kinds[j]);
            }
        }
        assert_ne!(
            InitialMapping::Identity.fingerprint(),
            InitialMapping::Reverse.fingerprint()
        );
        assert_ne!(
            InitialMapping::Random(1).fingerprint(),
            InitialMapping::Random(2).fingerprint()
        );
    }

    #[test]
    fn device_spec_is_content_addressed() {
        let a = DeviceSpec::new(64, 16).unwrap().fingerprint();
        assert_eq!(a, DeviceSpec::tilt64(16).fingerprint());
        assert_ne!(a, DeviceSpec::new(64, 32).unwrap().fingerprint());
        assert_ne!(a, DeviceSpec::new(32, 16).unwrap().fingerprint());
    }
}
