//! Logic-cone analysis: transitive fan-in / fan-out extraction.
//!
//! The paper's insertion discussion (Section III-D) contrasts random gate
//! selection with the community habit of targeting large output logic cones;
//! these helpers supply the cone statistics both policies need.
//!
//! All queries route through the netlist's [`AnalysisCache`]: fan-out
//! traversals reuse the incrementally-maintained [`FanoutTable`] instead of
//! rebuilding the net → consumers map per call, and key-bit dirty outputs
//! come straight from the cached [`KeyAnalysis`]. Results are sorted `Vec`s
//! so iteration order is deterministic.
//!
//! [`AnalysisCache`]: crate::analysis::AnalysisCache
//! [`FanoutTable`]: crate::analysis::FanoutTable
//! [`KeyAnalysis`]: crate::analysis::KeyAnalysis

#![deny(clippy::iter_over_hash_type)]

use crate::netlist::{GateId, NetId, Netlist};

/// The transitive fan-in cone of a net: every gate whose output can reach
/// `net` going forward (i.e. all gates `net` structurally depends on,
/// including its own driver). Sorted by gate id.
pub fn fanin_cone(nl: &Netlist, net: NetId) -> Vec<GateId> {
    let mut seen_nets = vec![false; nl.net_count()];
    let mut cone: Vec<GateId> = Vec::new();
    let mut stack = vec![net];
    while let Some(n) = stack.pop() {
        if std::mem::replace(&mut seen_nets[n.index()], true) {
            continue;
        }
        if let Some(gid) = nl.net(n).driver() {
            cone.push(gid);
            stack.extend(nl.gate(gid).inputs().iter().copied());
        }
    }
    cone.sort_unstable();
    cone
}

/// The transitive fan-out cone of a net: every gate whose output
/// structurally depends on `net`. Sorted by gate id.
pub fn fanout_cone(nl: &Netlist, net: NetId) -> Vec<GateId> {
    let fanout = nl.fanout();
    let mut seen_nets = vec![false; nl.net_count()];
    let mut in_cone = vec![false; nl.gate_arena_len()];
    let mut cone: Vec<GateId> = Vec::new();
    let mut stack = vec![net];
    while let Some(n) = stack.pop() {
        if std::mem::replace(&mut seen_nets[n.index()], true) {
            continue;
        }
        for &gid in fanout.consumers(n) {
            if !std::mem::replace(&mut in_cone[gid.index()], true) {
                cone.push(gid);
                stack.push(nl.gate(gid).output());
            }
        }
    }
    cone.sort_unstable();
    cone
}

/// Output indices (positions in [`Netlist::outputs`]) whose structural
/// support contains any of the given key-bit indices. Sorted, deduped.
pub fn dirty_outputs(nl: &Netlist, changed_bits: &[usize]) -> Vec<usize> {
    nl.key_analysis().dirty_outputs(changed_bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::c17;

    #[test]
    fn c17_cones() {
        let nl = c17();
        let g22 = nl.net_id("G22").unwrap();
        let cone = fanin_cone(&nl, g22);
        // G22 depends on G22, G10, G16, G11 drivers = 4 gates.
        assert_eq!(cone.len(), 4);

        let g23 = nl.net_id("G23").unwrap();
        let cone23 = fanin_cone(&nl, g23);
        assert_eq!(cone23.len(), 4); // G23, G16, G19, G11
    }

    #[test]
    fn fanout_cone_reaches_outputs() {
        let nl = c17();
        let g11 = nl.net_id("G11").unwrap();
        let cone = fanout_cone(&nl, g11);
        // G11 feeds G16 and G19; G16 feeds G22 and G23; G19 feeds G23 => 4 gates.
        assert_eq!(cone.len(), 4);
    }

    #[test]
    fn cones_are_sorted_and_deduped() {
        let nl = c17();
        for (_, netname) in [("a", "G11"), ("b", "G16")] {
            let id = nl.net_id(netname).unwrap();
            for cone in [fanout_cone(&nl, id), fanin_cone(&nl, id)] {
                let mut sorted = cone.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(cone, sorted);
            }
        }
    }

    #[test]
    fn input_net_has_empty_fanin_cone() {
        let nl = c17();
        let g1 = nl.net_id("G1").unwrap();
        assert!(fanin_cone(&nl, g1).is_empty());
    }

    #[test]
    fn key_analysis_cone_matches_fanout_cone() {
        let mut nl = c17();
        // Retrofit a key input feeding G10's gate.
        let k = nl.add_key_input("k0").unwrap();
        let g10 = nl.net_id("G10").unwrap();
        let driver = nl.net(g10).driver().unwrap();
        let inputs = nl.gate(driver).inputs().to_vec();
        nl.remove_gate(driver);
        let kn = nl.add_net("g10_keyed").unwrap();
        nl.add_gate(crate::gate::GateKind::Nand, &inputs, kn)
            .unwrap();
        let masked = nl.add_net("g10_mask").unwrap();
        nl.add_gate(crate::gate::GateKind::Xor, &[kn, k], masked)
            .unwrap();
        nl.redirect_consumers(g10, masked);
        assert_eq!(nl.key_analysis().cone(0), &fanout_cone(&nl, k)[..]);
        assert!(!dirty_outputs(&nl, &[0]).is_empty());
        assert!(dirty_outputs(&nl, &[]).is_empty());
    }
}
