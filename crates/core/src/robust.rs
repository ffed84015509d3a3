//! The deletion-robust decode pass: greedy sign reading over
//! gap-tolerant matching sets.
//!
//! Where the strict algorithms abort on the first empty matching set
//! (§2 assumption 1), this pass consumes a [`GappedSets`] — empty
//! slots marked erased — and produces a [`SoftWatermark`]: a bit whose
//! embedding endpoints all survive decodes by the usual sign rule; a
//! bit with any endpoint on an erased slot is carried as an erasure and
//! excluded from the Hamming comparison. The selection rule is
//! Greedy's (each endpoint takes its wanted extreme), which
//! lower-bounds every order-respecting decode's Hamming distance — the
//! safe direction for a detector deciding *against* a threshold.

use stepstone_flow::Flow;
use stepstone_matching::{CostMeter, GappedSets};
use stepstone_watermark::SoftWatermark;

use crate::endpoint::EndpointPlan;

/// The robust pass's decode: the soft watermark plus how many upstream
/// slots the matching erased.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct GappedDecode {
    /// Per-bit decisions; a bit is erased when any of its embedding
    /// endpoints sits on an erased upstream slot.
    pub soft: SoftWatermark,
    /// Erased upstream slots (deleted-packet suspicions), over the
    /// whole flow — the count held against the erasure budget.
    pub slot_erasures: usize,
}

/// Greedy-decodes `plan` over gap-tolerant matching sets, charging one
/// packet access per live endpoint (erased endpoints cost nothing — no
/// packet exists to access).
pub(crate) fn decode_gapped(
    plan: &EndpointPlan,
    sets: &GappedSets,
    suspicious: &Flow,
    meter: &mut CostMeter,
) -> GappedDecode {
    let mut d = vec![0i64; plan.bits];
    let mut erased_bit = vec![false; plan.bits];
    for e in &plan.endpoints {
        let candidate = if e.wants_late {
            sets.last(e.up)
        } else {
            sets.first(e.up)
        };
        let Some(s) = candidate else {
            erased_bit[e.bit] = true;
            continue;
        };
        meter.charge_one();
        let t = suspicious.timestamp(s as usize).as_micros();
        d[e.bit] += e.coeff as i64 * t;
    }
    let soft = (0..plan.bits)
        .map(|b| (!erased_bit[b]).then(|| d[b] > 0))
        .collect();
    GappedDecode {
        soft,
        slot_erasures: sets.erasures(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stepstone_flow::Timestamp;
    use stepstone_watermark::{BitLayout, Watermark, WatermarkKey, WatermarkParams};

    fn second_flow(n: usize) -> Flow {
        Flow::from_timestamps((0..n as i64).map(Timestamp::from_secs)).unwrap()
    }

    fn plan(bits: Vec<bool>) -> (EndpointPlan, Watermark) {
        let layout =
            BitLayout::derive(WatermarkKey::new(3), &WatermarkParams::small(), 200).unwrap();
        let w = Watermark::from_bits(bits);
        (EndpointPlan::build(&layout, &w), w)
    }

    #[test]
    fn complete_sets_decode_every_bit() {
        let (p, w) = plan(vec![true; 8]);
        let n = 200;
        let wide = (0..n as u32).map(|i| i..i + 10).collect();
        let sets = GappedSets::from_ranges(wide, n + 10);
        let flow = second_flow(n + 10);
        let mut meter = CostMeter::new();
        let g = decode_gapped(&p, &sets, &flow, &mut meter);
        assert_eq!(g.slot_erasures, 0);
        assert_eq!(g.soft.erased(), 0);
        assert_eq!(g.soft.hamming_to(&w), 0);
        assert_eq!(meter.count(), p.len() as u64);
    }

    #[test]
    fn erased_slot_erases_its_bit_not_the_decode() {
        let (p, w) = plan(vec![true; 8]);
        let n = 200;
        // Erase the slots of bit 0's first endpoint.
        let victim = p.endpoints[p.of_bit[0][0]].up;
        let sets = (0..n as u32)
            .map(|i| if i as usize == victim { i..i } else { i..i + 1 })
            .collect();
        let sets = GappedSets::from_ranges(sets, n);
        let flow = second_flow(n);
        let mut meter = CostMeter::new();
        let g = decode_gapped(&p, &sets, &flow, &mut meter);
        assert_eq!(g.slot_erasures, 1);
        assert_eq!(g.soft.bit(0), None, "bit 0 is erased");
        assert!(g.soft.erased() >= 1);
        assert!(g.soft.decided() <= 7);
        // Erased bits never count against the Hamming distance.
        assert!(g.soft.hamming_to(&w) <= 7);
        // Erased endpoints are not charged.
        assert!(meter.count() < p.len() as u64);
    }

    #[test]
    fn fully_erased_sets_decode_nothing() {
        let (p, w) = plan(vec![true; 8]);
        let sets = GappedSets::from_ranges(vec![0..0; 200], 0);
        let flow = second_flow(1);
        let mut meter = CostMeter::new();
        let g = decode_gapped(&p, &sets, &flow, &mut meter);
        assert_eq!(g.soft.decided(), 0);
        assert_eq!(g.soft.hamming_to(&w), 0);
        assert_eq!(g.slot_erasures, 200);
        assert_eq!(meter.count(), 0);
    }
}
