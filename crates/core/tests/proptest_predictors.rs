//! Property tests for CAST's predictors: the MOD state machine must obey
//! its saturating-counter rules on any training sequence, and predictions
//! must always reflect sufficiently confident, previously observed
//! offsets.
//!
//! Generators are hand-rolled over [`avatar_sim::rng::SimRng`] (no
//! proptest — the registry is unreachable from the build environment);
//! trials are seeded deterministically for exact reproduction.

#![allow(clippy::disallowed_types, reason = "an oracle independent of the hasher under test")]

use avatar_core::{AvatarPolicy, ModTable, VpnTable};
use avatar_sim::addr::{Ppn, Vpn};
use avatar_sim::hooks::TranslationPolicy;
use avatar_sim::rng::SimRng;

const TRIALS: u64 = 64;

fn pairs(rng: &mut SimRng, min: usize, max: usize, mut gen: impl FnMut(&mut SimRng) -> (u64, i64)) -> Vec<(u64, i64)> {
    let n = min + rng.index(max - min + 1);
    (0..n).map(|_| gen(rng)).collect()
}

#[test]
fn mod_confidence_stays_in_two_bits() {
    for trial in 0..TRIALS {
        let mut rng = SimRng::seed_from_u64(0x2001 ^ trial);
        let trainings =
            pairs(&mut rng, 1, 300, |r| (r.next_below(8), r.next_below(200) as i64 - 100));
        let mut m = ModTable::new(4, 2);
        for (pc, offset) in trainings {
            m.train(pc, offset);
            if let Some(c) = m.confidence(pc) {
                assert!(c <= 3, "trial {trial}: 2-bit saturating counter exceeded");
            }
        }
    }
}

#[test]
fn mod_only_predicts_observed_offsets() {
    for trial in 0..TRIALS {
        let mut rng = SimRng::seed_from_u64(0x2002 ^ trial);
        let trainings = pairs(&mut rng, 1, 200, |r| (r.next_below(4), r.next_below(8) as i64));
        let probe = rng.next_below(4);
        let mut m = ModTable::new(8, 2);
        let mut seen = std::collections::HashSet::new();
        for (pc, offset) in &trainings {
            m.train(*pc, *offset);
            seen.insert(*offset);
        }
        if let Some(p) = m.predict(probe) {
            assert!(seen.contains(&p), "trial {trial}: prediction {p} was never trained");
        }
    }
}

#[test]
fn mod_never_predicts_with_fewer_than_threshold_confirmations() {
    for trial in 0..TRIALS {
        let mut rng = SimRng::seed_from_u64(0x2003 ^ trial);
        let pc = rng.next_below(16);
        let offset = rng.next_below(100) as i64 - 50;
        let mut m = ModTable::new(32, 2);
        m.train(pc, offset);
        assert_eq!(m.predict(pc), None, "trial {trial}: one observation is below threshold 2");
        m.train(pc, offset);
        assert_eq!(m.predict(pc), Some(offset), "trial {trial}");
    }
}

#[test]
fn mod_capacity_bounded() {
    for trial in 0..TRIALS {
        let mut rng = SimRng::seed_from_u64(0x2004 ^ trial);
        let trainings =
            pairs(&mut rng, 1, 300, |r| (r.next_below(1000), r.next_below(10) as i64));
        let mut m = ModTable::new(32, 2);
        for (pc, offset) in trainings {
            m.train(pc, offset);
            assert!(m.len() <= 32, "trial {trial}: table grew past capacity");
        }
    }
}

#[test]
fn vpnt_predicts_last_trained_offset_per_region() {
    for trial in 0..TRIALS {
        let mut rng = SimRng::seed_from_u64(0x2005 ^ trial);
        let trainings =
            pairs(&mut rng, 1, 200, |r| (r.next_below(4 * 512), r.next_below(100_000) as i64));
        let mut t = VpnTable::new(64); // larger than 4 regions: no eviction
        let mut last: std::collections::HashMap<u64, i64> = std::collections::HashMap::new();
        for (vpn, offset) in &trainings {
            t.train(Vpn(*vpn), *offset);
            last.insert(vpn / 512, *offset);
        }
        for (chunk, offset) in &last {
            assert_eq!(t.predict(Vpn(chunk * 512)), Some(*offset), "trial {trial}");
        }
    }
}

#[test]
fn policy_predictions_are_consistent_with_training() {
    for trial in 0..TRIALS {
        let mut rng = SimRng::seed_from_u64(0x2006 ^ trial);
        let n = 3 + rng.index(47);
        let vpns: Vec<u64> = (0..n).map(|_| 1 + rng.next_below(9_999)).collect();
        let offset = 1 + rng.next_below(99_999) as i64;
        // Train one PC with a constant offset: every later prediction for
        // that PC must be vpn + offset.
        let mut p = AvatarPolicy::avatar(1, 32, 2);
        for vpn in &vpns {
            p.on_translation_resolved(0, 0x400, Vpn(*vpn), Ppn((*vpn as i64 + offset) as u64));
        }
        for vpn in vpns.iter().take(5) {
            if let Some(ppn) = p.on_l1_tlb_miss(0, 0x400, Vpn(*vpn)) {
                assert_eq!(ppn.0 as i64, *vpn as i64 + offset, "trial {trial}");
            }
        }
    }
}

#[test]
fn policy_never_predicts_untrained_pcs() {
    for trial in 0..TRIALS {
        let mut rng = SimRng::seed_from_u64(0x2007 ^ trial);
        let pc = rng.next_below(100);
        let vpn = rng.next_below(10_000);
        let mut p = AvatarPolicy::avatar(2, 32, 2);
        assert_eq!(p.on_l1_tlb_miss(0, pc, Vpn(vpn)), None, "trial {trial}");
        assert_eq!(p.on_l1_tlb_miss(1, pc, Vpn(vpn)), None, "trial {trial}");
    }
}
