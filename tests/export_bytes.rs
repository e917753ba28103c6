//! Byte-identity tests of the sweep export (`write_json` / `write_csv`):
//!
//! * a **golden** test pins the FNV-1a digests and lengths of both exports
//!   of the quick `repro dse` sweep, so any change to a single byte of the
//!   persisted formats fails loudly;
//! * a **differential** property test compares both writers against
//!   [`oracle`], a straightforward per-record formatter of the same formats,
//!   on spaces with hostile application names (delimiters, quotes, line
//!   breaks, control and non-ASCII characters), unfit designs (NaN
//!   speedups), asymmetric designs, measured growth and parameterised perf
//!   labels, several reductions and topologies, arbitrary non-finite,
//!   signed-zero, subnormal and huge field values, and empty record slices.

use merging_phases::dse::prelude::*;
use merging_phases::par::ReductionStrategy;
use merging_phases::prelude::*;
use proptest::prelude::*;

/// The reference formatter: one `String` per field, one `format!` per row.
/// It defines the export formats the streaming writers must reproduce.
mod oracle {
    use super::*;

    struct RecordFields {
        app: String,
        budget: f64,
        kind: &'static str,
        r: f64,
        rl: f64,
        growth: String,
        perf: String,
        reduction: String,
        topology: String,
    }

    fn fields(space: &ScenarioSpace, record: &EvalRecord) -> RecordFields {
        let scenario = space.scenario(record.index);
        let (kind, r, rl) = match scenario.design {
            ChipSpec::Symmetric { r } => ("symmetric", r, f64::NAN),
            ChipSpec::Asymmetric { r, rl } => ("asymmetric", r, rl),
        };
        RecordFields {
            app: scenario.app.name.clone(),
            budget: scenario.budget.total_bce(),
            kind,
            r,
            rl,
            growth: scenario.growth.label(),
            perf: scenario.perf.label(),
            reduction: scenario.reduction.name().to_string(),
            topology: format!("{:?}", scenario.topology),
        }
    }

    fn float(value: f64) -> String {
        if value.is_finite() {
            format!("{value}")
        } else {
            String::new()
        }
    }

    fn json_float(value: f64) -> String {
        if value.is_finite() {
            format!("{value}")
        } else {
            "null".to_string()
        }
    }

    fn csv_escape(field: &str) -> String {
        if field.contains(',')
            || field.contains('"')
            || field.contains('\n')
            || field.contains('\r')
        {
            format!("\"{}\"", field.replace('"', "\"\""))
        } else {
            field.to_string()
        }
    }

    pub fn csv(space: &ScenarioSpace, records: &[EvalRecord]) -> Vec<u8> {
        let mut out =
            "index,app,budget_bce,design,r,rl,cores,area,growth,perf,reduction,topology,speedup\n"
                .to_string();
        for record in records {
            let f = fields(space, record);
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                record.index,
                csv_escape(&f.app),
                float(f.budget),
                f.kind,
                float(f.r),
                float(f.rl),
                float(record.cores),
                float(record.area),
                f.growth,
                f.perf,
                f.reduction,
                f.topology,
                float(record.speedup),
            ));
        }
        out.into_bytes()
    }

    pub fn json(space: &ScenarioSpace, records: &[EvalRecord], stats: &SweepStats) -> Vec<u8> {
        let mut out =
            format!("{{\"stats\":{},\"records\":[", serde_json::to_string(stats).unwrap());
        for (i, record) in records.iter().enumerate() {
            let f = fields(space, record);
            out.push_str(&format!(
                "{}\n{{\"index\":{},\"app\":{},\"budget_bce\":{},\"design\":\"{}\",\"r\":{},\"rl\":{},\"cores\":{},\"area\":{},\"growth\":\"{}\",\"perf\":\"{}\",\"reduction\":\"{}\",\"topology\":\"{}\",\"speedup\":{}}}",
                if i == 0 { "" } else { "," },
                record.index,
                serde_json::to_string(&f.app).unwrap(),
                f.budget,
                f.kind,
                json_float(f.r),
                json_float(f.rl),
                json_float(record.cores),
                json_float(record.area),
                f.growth,
                f.perf,
                f.reduction,
                f.topology,
                json_float(record.speedup),
            ));
        }
        out.push_str("\n]}\n");
        out.into_bytes()
    }
}

/// FNV-1a, 64 bit.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |state, &b| {
        (state ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

fn exports(
    space: &ScenarioSpace,
    records: &[EvalRecord],
    stats: &SweepStats,
) -> (Vec<u8>, Vec<u8>) {
    let mut json = Vec::new();
    write_json(&mut json, space, records, stats).unwrap();
    let mut csv = Vec::new();
    write_csv(&mut csv, space, records).unwrap();
    (json, csv)
}

/// Stats with the run-dependent fields pinned, so the JSON header is stable.
fn pinned_stats(records: &[EvalRecord]) -> SweepStats {
    SweepStats {
        scenarios: records.len(),
        valid: records.iter().filter(|r| r.is_valid()).count(),
        cache_hits: 0,
        cache_misses: records.len() as u64,
        warm_entries: 0,
        threads: 1,
        coalesced: false,
        elapsed_seconds: 0.25,
    }
}

/// Length and FNV-1a digest of the quick sweep's `(sweep.json, sweep.csv)`
/// exports (with [`pinned_stats`]), as the reference formatter [`oracle`]
/// writes them. The quick space's log-spaced design grid comes from `powf`,
/// which optimised builds evaluate differently in the last bit, so each
/// build profile pins its own pair.
const DIGESTS: [(usize, u64); 2] = if cfg!(debug_assertions) {
    [(2_660_451, 3_592_918_210_655_400_733), (1_374_691, 5_292_937_171_473_130_266)]
} else {
    [(2_660_481, 5_684_668_249_105_373_778), (1_374_721, 15_676_263_460_072_395_403)]
};

#[test]
fn quick_sweep_exports_match_pinned_digests() {
    let space = mp_bench::dse_cmd::experiment_space(true);
    let records = Engine::new(1).sweep(&space, &AnalyticBackend, &SweepConfig::default()).records;
    let (json, csv) = exports(&space, &records, &pinned_stats(&records));
    assert_eq!((json.len(), fnv64(&json)), DIGESTS[0], "sweep.json bytes changed");
    assert_eq!((csv.len(), fnv64(&csv)), DIGESTS[1], "sweep.csv bytes changed");
}

/// Application names that exercise every escaping rule of both formats.
const NAMES: &[&str] = &[
    "kmeans",
    "a,b",
    "say \"hi\"",
    "line\nbreak",
    "carriage\rreturn",
    "tab\tbell\u{7}nul\u{0}",
    "\u{1}\u{1f}\u{7f}",
    "back\\slash /",
    "ünïcødé ✓ 漢字 🦀",
    "",
];

/// Field values that exercise every float formatting branch.
const SPECIAL: &[f64] = &[
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    0.0,
    -0.0,
    1.0,
    -2.5,
    0.1,
    1e-7,
    5e-324,
    1e15,
    1e16,
    1e21,
    1e300,
    -1e300,
    123_456_789.0,
    9_007_199_254_740_992.0,
    9_007_199_254_740_993.0,
    f64::MAX,
    f64::MIN_POSITIVE,
];

fn arb_space() -> impl Strategy<Value = ScenarioSpace> {
    (
        (
            proptest::collection::vec(0usize..NAMES.len(), 1..4),
            prop_oneof![Just(vec![64.0f64]), Just(vec![256.0, 100.5]), Just(vec![1.0, 1024.0])],
            1usize..6,
        ),
        (
            proptest::collection::vec(0usize..5, 1..4),
            proptest::collection::vec(0usize..5, 1..3),
            1usize..4,
            proptest::collection::vec(0usize..5, 1..3),
        ),
    )
        .prop_map(|((names, budgets, sym), (growths, perfs, reductions, topologies))| {
            let apps = names
                .iter()
                .map(|&i| AppParams::table2_kmeans().with_name(NAMES[i]))
                .collect::<Vec<_>>();
            let growths = growths
                .iter()
                .map(|&i| match i {
                    0 => GrowthFunction::Constant,
                    1 => GrowthFunction::Linear,
                    2 => GrowthFunction::Logarithmic,
                    3 => GrowthFunction::Superlinear(1.55),
                    _ => GrowthFunction::Measured(vec![(1.0, 0.0), (4.0, 2.5), (16.0, 40.125)]),
                })
                .collect();
            let perfs = perfs
                .iter()
                .map(|&i| match i {
                    0 => PerfModel::Pollack,
                    1 => PerfModel::Linear,
                    2 => PerfModel::Power(0.75),
                    3 => PerfModel::Logarithmic(0.5),
                    _ => PerfModel::Power(1.0 / 3.0),
                })
                .collect();
            let topologies = topologies
                .iter()
                .map(|&i| {
                    [
                        Topology::Mesh2D,
                        Topology::Torus2D,
                        Topology::Ring,
                        Topology::Crossbar,
                        Topology::Ideal,
                    ][i]
                })
                .collect();
            // Fractional, fitting and unfit (r > budget: NaN speedup)
            // symmetric designs, plus asymmetric ones with rl != r.
            ScenarioSpace::new()
                .with_apps(apps)
                .with_budgets(budgets)
                .clear_designs()
                .add_symmetric_grid((0..sym).map(|i| 1.0 + i as f64 * 37.3))
                .add_asymmetric_grid([1.0, 2.0], [4.0, 48.0, 2048.0])
                .with_growths(growths)
                .with_perfs(perfs)
                .with_reductions(ReductionStrategy::all()[..reductions].to_vec())
                .with_topologies(topologies)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Both writers reproduce the reference formatter byte for byte, on real
    /// sweep records, on arbitrary subsets in arbitrary order, and with
    /// arbitrary special field values patched in.
    #[test]
    fn writers_match_the_reference_formatter(
        space in arb_space(),
        picks in proptest::collection::vec((0u64..u64::MAX, 0usize..SPECIAL.len(), 0usize..4), 0..40),
    ) {
        let swept = Engine::new(1).sweep(&space, &AnalyticBackend, &SweepConfig::default());
        let stats = swept.stats;
        let mut cases = vec![swept.records.clone(), Vec::new()];
        let mut patched = Vec::new();
        for &(pick, special, field) in &picks {
            let mut record = swept.records[(pick % swept.records.len() as u64) as usize];
            let value = SPECIAL[special];
            match field {
                0 => record.speedup = value,
                1 => record.cores = value,
                2 => record.area = value,
                _ => {}
            }
            patched.push(record);
        }
        cases.push(patched);
        for records in &cases {
            let (json, csv) = exports(&space, records, &stats);
            prop_assert!(
                csv == oracle::csv(&space, records),
                "CSV differs:\n{}\n---\n{}",
                String::from_utf8_lossy(&csv),
                String::from_utf8_lossy(&oracle::csv(&space, records))
            );
            prop_assert!(
                json == oracle::json(&space, records, &stats),
                "JSON differs:\n{}\n---\n{}",
                String::from_utf8_lossy(&json),
                String::from_utf8_lossy(&oracle::json(&space, records, &stats))
            );
        }
    }
}
