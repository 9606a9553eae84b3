//! Percentile placement: a reported percentile is only steady when it
//! lands well inside one op class. If the ranks around it mix classes,
//! run-to-run jitter in the class shares moves the percentile from one
//! class's latency to another's.

use crate::measure::OpRecord;

/// A tail percentile needs at least ten samples beyond it.
pub const MIN_OPS_FOR_P99: usize = 1000;
/// Half-width, in rank share, of the window checked around the median.
pub const P50_WINDOW: f64 = 0.05;
/// Half-width, in rank share, of the window checked around the p99.
pub const P99_WINDOW: f64 = 0.005;
/// Share of the window that must come from the percentile's own class.
pub const MIN_PURITY: f64 = 0.8;

/// Where one percentile landed.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Class that holds most of the ranks around the percentile.
    pub class: usize,
    /// That class's share of those ranks.
    pub purity: f64,
}

/// Placement of the nearest-rank percentile `q`: the dominant class of
/// the ops whose latency rank lies within `window` of `q`.
pub fn place(records: &[OpRecord], q: f64, window: f64) -> Placement {
    let mut sorted: Vec<&OpRecord> = records.iter().collect();
    sorted.sort_by(|a, b| a.latency_s.total_cmp(&b.latency_s));
    let n = sorted.len() as f64;
    let lo = (((q - window) * n).floor().max(0.0)) as usize;
    let hi = (((q + window) * n).ceil() as usize).clamp(lo + 1, sorted.len().max(1));
    let slice = &sorted[lo.min(sorted.len())..hi.min(sorted.len())];
    let classes = records.iter().map(|r| r.class).max().map_or(0, |m| m + 1);
    let mut counts = vec![0usize; classes];
    for r in slice {
        counts[r.class] += 1;
    }
    let (class, top) = counts
        .iter()
        .enumerate()
        .max_by_key(|(_, c)| **c)
        .map_or((0, 0), |(i, c)| (i, *c));
    Placement {
        class,
        purity: if slice.is_empty() {
            0.0
        } else {
            top as f64 / slice.len() as f64
        },
    }
}

/// Checks a run's percentiles: the median and (when the run claims one)
/// the p99 must each sit well inside one class, and a p99 needs at least
/// [`MIN_OPS_FOR_P99`] ops. Returns one line per problem.
pub fn check(records: &[OpRecord], names: &[&str], claims_p99: bool) -> Vec<String> {
    let mut problems = Vec::new();
    let name = |c: usize| names.get(c).copied().unwrap_or("?");
    let p50 = place(records, 0.5, P50_WINDOW);
    if p50.purity < MIN_PURITY {
        problems.push(format!(
            "latency_p50_ms sits near a class boundary ({} holds {:.0}% of nearby ranks)",
            name(p50.class),
            p50.purity * 100.0
        ));
    }
    if claims_p99 {
        if records.len() < MIN_OPS_FOR_P99 {
            problems.push(format!(
                "latency_p99_ms from {} ops (needs {MIN_OPS_FOR_P99})",
                records.len()
            ));
        } else {
            let p99 = place(records, 0.99, P99_WINDOW);
            if p99.purity < MIN_PURITY {
                problems.push(format!(
                    "latency_p99_ms sits near a class boundary ({} holds {:.0}% of nearby ranks)",
                    name(p99.class),
                    p99.purity * 100.0
                ));
            }
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi3d_telemetry::rng::SplitMix64;

    /// `n` ops drawn from classes with the given shares and latency
    /// ranges (ms), deterministic in `seed`.
    fn mix(n: usize, classes: &[(f64, f64, f64)], seed: u64) -> Vec<OpRecord> {
        let mut rng = SplitMix64::new(seed);
        (0..n as u64)
            .map(|index| {
                let mut u = rng.next_f64();
                let mut class = classes.len() - 1;
                for (i, &(share, _, _)) in classes.iter().enumerate() {
                    if u < share {
                        class = i;
                        break;
                    }
                    u -= share;
                }
                let (_, lo, hi) = classes[class];
                OpRecord {
                    index,
                    class,
                    latency_s: rng.range_f64(lo, hi) / 1e3,
                    ok: true,
                }
            })
            .collect()
    }

    #[test]
    fn percentile_at_a_class_boundary_fails() {
        // Two equal, disjoint classes: the median sits on their boundary.
        let records = mix(4000, &[(0.5, 1.0, 2.0), (0.5, 3.0, 4.0)], 1);
        let problems = check(&records, &["a", "b"], false);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("p50"));
    }

    #[test]
    fn p99_near_the_tail_class_boundary_fails() {
        // The slow class holds exactly 1%: the p99 rank is its edge.
        let records = mix(20_000, &[(0.99, 1.0, 2.0), (0.01, 5.0, 6.0)], 2);
        let problems = check(&records, &["fast", "slow"], true);
        assert!(problems.iter().any(|p| p.contains("p99")), "{problems:?}");
    }

    #[test]
    fn p99_from_too_few_ops_fails() {
        let records = mix(999, &[(1.0, 1.0, 2.0)], 3);
        let problems = check(&records, &["only"], true);
        assert!(
            problems.iter().any(|p| p.contains("999 ops")),
            "{problems:?}"
        );
        assert!(check(&records, &["only"], false).is_empty());
    }

    #[test]
    fn policy_sim_shares_place_both_percentiles_inside_one_class() {
        // Class latencies of policy-sim measured on a 2-core host: dense
        // ops 18-31 ms (p5-p95), sparse ops 4.5-10 ms.
        let s = crate::policy::CLASS_SHARES;
        let classes = [(s[0], 18.0, 31.0), (s[1], 4.5, 10.0)];
        for seed in 0..5 {
            let records = mix(2000, &classes, seed);
            let problems = check(&records, &crate::policy::CLASS_NAMES, true);
            assert!(problems.is_empty(), "seed {seed}: {problems:?}");
        }
    }

    #[test]
    fn serve_mix_shares_place_both_percentiles_inside_one_class() {
        // Class latencies of serve-mix measured on a 2-core host
        // (warm solve ~11 ms, warm simulate ~5.5 ms, cold solve ~16 ms),
        // widened by +-15%, mixed at the workload's configured shares.
        let s = crate::serve::CLASS_SHARES;
        let classes = [
            (s[0], 11.0 * 0.85, 11.0 * 1.15),
            (s[1], 5.5 * 0.85, 5.5 * 1.15),
            (s[2], 16.0 * 0.85, 16.0 * 1.15),
        ];
        for seed in 0..5 {
            let records = mix(3000, &classes, seed);
            let problems = check(&records, &crate::serve::CLASS_NAMES, true);
            assert!(problems.is_empty(), "seed {seed}: {problems:?}");
        }
    }
}
