//! Property test for [`BanyanNetwork::rail_routes`]: the constructive
//! enumeration of output-banyan keys must equal an exhaustive scan of
//! every key through [`BanyanNetwork::route`], mask for mask.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ril_core::BanyanNetwork;

/// The reference: route every key and keep those that deliver, for each
/// slot `j`, input `2j` or `2j + 1` to `ports[j]`, with the rail used.
fn scan_rail_routes(net: &BanyanNetwork, ports: &[usize]) -> Vec<(u64, u64)> {
    let nk = net.num_keys();
    let mut routes = Vec::new();
    'mask: for mask in 0u64..(1 << nk) {
        let keys: Vec<bool> = (0..nk).map(|i| (mask >> i) & 1 == 1).collect();
        let perm = net.route(&keys);
        let mut rails = 0u64;
        for (j, &port) in ports.iter().enumerate() {
            if perm[2 * j + 1] == port {
                rails |= 1 << j;
            } else if perm[2 * j] != port {
                continue 'mask;
            }
        }
        routes.push((mask, rails));
    }
    routes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Widths 2, 4 and 8, with the slot ports drawn as an `N×N×N` block
    /// draws them: a random output key, and slot `j`'s true rail wherever
    /// that key sends input `2j`.
    #[test]
    fn rail_routes_match_the_exhaustive_scan(log_width in 1u32..4, seed in any::<u64>()) {
        let net = BanyanNetwork::new(1 << log_width);
        let mut rng = StdRng::seed_from_u64(seed);
        let key: Vec<bool> = (0..net.num_keys()).map(|_| rng.gen()).collect();
        let perm = net.route(&key);
        let ports: Vec<usize> = (0..net.width() / 2).map(|j| perm[2 * j]).collect();
        let routes = net.rail_routes(&ports);
        prop_assert_eq!(&routes, &scan_rail_routes(&net, &ports));
        let key_mask = key
            .iter()
            .enumerate()
            .fold(0u64, |m, (i, &b)| m | (u64::from(b) << i));
        prop_assert!(routes.contains(&(key_mask, 0)));
        // Routable true rails make every rail choice routable.
        let mut rails: Vec<u64> = routes.iter().map(|&(_, r)| r).collect();
        rails.sort_unstable();
        rails.dedup();
        prop_assert_eq!(rails.len(), 1 << ports.len());
    }

    /// Ports drawn as any distinct lines, which often no key routes even
    /// on the true rails: rail choices whose paths ask a shared box for
    /// both settings must drop out.
    #[test]
    fn rail_routes_match_the_scan_on_arbitrary_ports(log_width in 1u32..4, seed in any::<u64>()) {
        let net = BanyanNetwork::new(1 << log_width);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lines: Vec<usize> = (0..net.width()).collect();
        for i in (1..lines.len()).rev() {
            lines.swap(i, rng.gen_range(0..=i));
        }
        let ports = &lines[..net.width() / 2];
        prop_assert_eq!(net.rail_routes(ports), scan_rail_routes(&net, ports));
    }
}
