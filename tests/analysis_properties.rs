//! Property tests of the sweep analysis invariants, driven by
//! proptest-generated scenario spaces evaluated through the real engine
//! (not synthetic record clouds):
//!
//! * the Pareto frontier is **mutually non-dominated** and **complete** —
//!   every valid record that no other record dominates appears in the
//!   frontier (up to exact `(cost, speedup)` duplicates, of which the
//!   frontier keeps one);
//! * `top_k` is a **sorted prefix of the full ranking**: extending `k` never
//!   reorders earlier entries, and the ranking is speedup-descending with
//!   deterministic tie-breaks;
//! * both return exactly what a **full sort** of the valid records returns
//!   ([`oracle`]), ties included, on synthetic record clouds dense with
//!   duplicate costs and speedups, signed zeros and NaNs.

use merging_phases::dse::prelude::*;
use merging_phases::prelude::*;
use proptest::prelude::*;

fn arb_space() -> impl Strategy<Value = ScenarioSpace> {
    (
        proptest::collection::vec((0.9f64..=0.9999, 0.1f64..=0.9, 0.0f64..=2.0), 1..4),
        1usize..40,
        prop_oneof![Just(64.0f64), Just(256.0), Just(1024.0)],
        prop_oneof![
            Just(vec![GrowthFunction::Linear]),
            Just(vec![GrowthFunction::Linear, GrowthFunction::Logarithmic]),
            Just(vec![GrowthFunction::Superlinear(1.55)]),
        ],
    )
        .prop_map(|(app_params, sym_designs, budget, growths)| {
            let apps: Vec<AppParams> = app_params
                .into_iter()
                .enumerate()
                .map(|(i, (f, fcon, fored))| {
                    AppParams::new(format!("app{i}"), f, fcon, fored, 0.0).unwrap()
                })
                .collect();
            // A mix of fitting and non-fitting designs, so invalid (NaN)
            // records flow through the analyses too.
            ScenarioSpace::new()
                .with_apps(apps)
                .with_budgets(vec![budget])
                .clear_designs()
                .add_symmetric_grid((0..sym_designs).map(|i| 1.0 + i as f64 * 7.0))
                .add_asymmetric_grid([1.0, 4.0], [4.0, 64.0, 512.0])
                .with_growths(growths)
        })
}

/// The full-sort definitions of the two rankings, kept as references for
/// the selection-based implementations.
mod oracle {
    use super::*;

    pub fn top_k(records: &[EvalRecord], k: usize) -> Vec<EvalRecord> {
        let mut valid: Vec<EvalRecord> = records.iter().filter(|r| r.is_valid()).copied().collect();
        valid.sort_by(|a, b| {
            b.speedup
                .partial_cmp(&a.speedup)
                .unwrap()
                .then(a.cores.partial_cmp(&b.cores).unwrap())
                .then(a.index.cmp(&b.index))
        });
        valid.truncate(k);
        valid
    }

    pub fn pareto_frontier(records: &[EvalRecord], cost: CostAxis) -> Vec<EvalRecord> {
        let mut valid: Vec<EvalRecord> = records.iter().filter(|r| r.is_valid()).copied().collect();
        valid.sort_by(|a, b| {
            cost.cost(a)
                .partial_cmp(&cost.cost(b))
                .unwrap()
                .then(b.speedup.partial_cmp(&a.speedup).unwrap())
                .then(a.index.cmp(&b.index))
        });
        let mut frontier: Vec<EvalRecord> = Vec::new();
        for record in valid {
            match frontier.last() {
                Some(last) if record.speedup <= last.speedup => {}
                _ => frontier.push(record),
            }
        }
        frontier
    }
}

/// Speedups drawn from a small pool, so ties are common; NaN marks invalid
/// records, and `-0.0` / `0.0` are distinct bits that compare equal.
const SPEEDUPS: &[f64] = &[f64::NAN, -0.0, 0.0, 1.0, 2.5, 2.5, 7.0, 7.0, 31.0, f64::NAN];

/// Costs (cores or area) from a small pool, so equal costs are common.
const COSTS: &[f64] = &[-0.0, 0.0, 1.0, 4.0, 4.0, 16.0, 64.0, 256.0];

/// Record clouds of up to 300 records with distinct indices in shuffled
/// order (as a sweep's records are), pool-drawn fields, and a `k`.
fn arb_records() -> impl Strategy<Value = (Vec<EvalRecord>, usize)> {
    (
        proptest::collection::vec(
            (0u64..u64::MAX, 0usize..SPEEDUPS.len(), 0usize..COSTS.len(), 0usize..COSTS.len()),
            0..300,
        ),
        0usize..320,
    )
        .prop_map(|(mut draws, k)| {
            draws.sort_by_key(|&(order, ..)| order);
            let records = draws
                .iter()
                .enumerate()
                .map(|(position, &(order, speedup, cores, area))| EvalRecord {
                    // Distinct indices, not in position order.
                    index: (order as usize % 4) * 1000 + position,
                    speedup: SPEEDUPS[speedup],
                    cores: COSTS[cores],
                    area: COSTS[area],
                })
                .collect();
            (records, k)
        })
}

fn sweep(space: &ScenarioSpace) -> Vec<EvalRecord> {
    Engine::new(1).sweep(space, &AnalyticBackend, &SweepConfig::default()).records
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Pareto: mutual non-domination plus completeness, on both cost axes.
    #[test]
    fn pareto_front_is_mutually_nondominated_and_complete(space in arb_space()) {
        let records = sweep(&space);
        for cost in [CostAxis::Cores, CostAxis::Area] {
            let frontier = pareto_frontier(&records, cost);
            // Mutually non-dominated (and all valid).
            for a in &frontier {
                prop_assert!(a.is_valid());
                for b in &frontier {
                    if a.index != b.index {
                        prop_assert!(
                            !dominates(a, b, cost),
                            "frontier point {} dominates {} on {}", a.index, b.index, cost.name()
                        );
                    }
                }
            }
            // Complete: every valid record no other valid record dominates is
            // on the frontier, up to exact (cost, speedup) duplicates.
            let valid: Vec<&EvalRecord> = records.iter().filter(|r| r.is_valid()).collect();
            for record in &valid {
                let dominated = valid
                    .iter()
                    .any(|other| other.index != record.index && dominates(other, record, cost));
                if !dominated {
                    prop_assert!(
                        frontier.iter().any(|f| {
                            f.speedup.to_bits() == record.speedup.to_bits()
                                && cost.cost(f).to_bits() == cost.cost(record).to_bits()
                        }),
                        "non-dominated record {} (speedup {}, {} {}) missing from the {} frontier",
                        record.index, record.speedup, cost.name(), cost.cost(record), cost.name()
                    );
                }
            }
            // And conversely the frontier only contains non-dominated records.
            for f in &frontier {
                prop_assert!(
                    !valid.iter().any(|other| other.index != f.index && dominates(other, f, cost)),
                    "frontier point {} is dominated", f.index
                );
            }
        }
    }

    /// top-k: a sorted prefix of the full ranking, for every k.
    #[test]
    fn top_k_is_a_sorted_prefix_of_the_full_ranking(space in arb_space()) {
        let records = sweep(&space);
        let valid = records.iter().filter(|r| r.is_valid()).count();
        let ranking = top_k(&records, usize::MAX);
        // The full ranking holds every valid record.
        prop_assert_eq!(ranking.len(), valid);
        // Sorted: speedup descending, ties toward fewer cores then lower index.
        for pair in ranking.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            prop_assert!(
                a.speedup > b.speedup
                    || (a.speedup == b.speedup
                        && (a.cores < b.cores || (a.cores == b.cores && a.index < b.index))),
                "ranking misordered at indices {} / {}", a.index, b.index
            );
        }
        // Prefix: every k returns exactly the first k entries of the ranking.
        for k in [0usize, 1, 2, 5, valid / 2, valid, valid + 7] {
            let top = top_k(&records, k);
            prop_assert_eq!(&top[..], &ranking[..k.min(valid)]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Selection-based top-k and per-cost Pareto reduction return exactly
    /// the full-sort results, bit for bit and tie for tie.
    #[test]
    fn rankings_match_the_full_sort_oracles(case in arb_records()) {
        let (records, k) = case;
        let bits = |records: &[EvalRecord]| {
            records
                .iter()
                .map(|r| (r.index, r.speedup.to_bits(), r.cores.to_bits(), r.area.to_bits()))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(bits(&top_k(&records, k)), bits(&oracle::top_k(&records, k)));
        prop_assert_eq!(
            bits(&top_k(&records, usize::MAX)),
            bits(&oracle::top_k(&records, usize::MAX))
        );
        for cost in [CostAxis::Cores, CostAxis::Area] {
            prop_assert_eq!(
                bits(&pareto_frontier(&records, cost)),
                bits(&oracle::pareto_frontier(&records, cost))
            );
        }
    }
}
