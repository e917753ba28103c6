//! Streaming JSON / CSV export of sweep results.
//!
//! Every text field of a record except its index and its three measured
//! numbers (`cores`, `area`, `speedup`) depends on one axis value of the
//! scenario space alone. So each writer first formats those fields once per
//! axis value into label tables. A record row is then its decoded axis
//! indices, seven table slices, the index and three float formats, appended
//! to one reusable row buffer that goes to the sink every 64 KiB. No text the
//! size of the sweep is ever built: exporting a million-scenario sweep costs
//! O(1) memory beyond the records themselves and one label per axis value.
//! The emitted field order and float formatting are deterministic, so
//! byte-identical sweeps export byte-identical files.

use std::io::{self, Write};

use crate::engine::{EvalRecord, SweepStats};
use crate::scenario::{ChipSpec, ScenarioSpace};

/// Row-buffer size at which a writer hands its rows to the sink.
const FLUSH_BYTES: usize = 64 * 1024;

/// The two export formats. Both emit the same fields in the same order;
/// they differ in the text around each field.
#[derive(Clone, Copy)]
enum Format {
    Csv,
    Json,
}

impl Format {
    /// Text between two records.
    fn separator(self) -> &'static [u8] {
        match self {
            Format::Csv => b"",
            Format::Json => b",",
        }
    }

    /// Text that opens a record, ahead of its index.
    fn open(self) -> &'static [u8] {
        match self {
            Format::Csv => b"",
            Format::Json => b"\n{\"index\":",
        }
    }

    /// Text that closes a record.
    fn close(self) -> &'static [u8] {
        match self {
            Format::Csv => b"\n",
            Format::Json => b"}",
        }
    }

    /// Start field `name` after an earlier one: a comma in CSV, `,"name":`
    /// in JSON.
    fn key(self, out: &mut Vec<u8>, name: &str) {
        match self {
            Format::Csv => out.push(b','),
            Format::Json => {
                out.extend_from_slice(b",\"");
                out.extend_from_slice(name.as_bytes());
                out.extend_from_slice(b"\":");
            }
        }
    }

    /// Field `name` holding a fixed identifier, which never needs escaping.
    fn ident(self, out: &mut Vec<u8>, name: &str, value: &str) {
        self.key(out, name);
        match self {
            Format::Csv => out.extend_from_slice(value.as_bytes()),
            Format::Json => {
                out.push(b'"');
                out.extend_from_slice(value.as_bytes());
                out.push(b'"');
            }
        }
    }

    /// Field `name` holding a number: its shortest round-trip decimal, or an
    /// empty cell (CSV) / `null` (JSON has no NaN) when it is not finite.
    fn number(self, out: &mut Vec<u8>, name: &str, value: f64) {
        self.key(out, name);
        if value.is_finite() {
            write!(out, "{value}").expect("writing to a Vec cannot fail");
        } else if let Format::Json = self {
            out.extend_from_slice(b"null");
        }
    }

    /// Field `name` holding a free-form application name: RFC-4180 quoting
    /// in CSV, a JSON string literal in JSON.
    fn free_text(self, out: &mut Vec<u8>, name: &str, value: &str) {
        self.key(out, name);
        match self {
            Format::Csv if value.contains(&[',', '"', '\n', '\r'][..]) => {
                out.push(b'"');
                out.extend_from_slice(value.replace('"', "\"\"").as_bytes());
                out.push(b'"');
            }
            Format::Csv => out.extend_from_slice(value.as_bytes()),
            Format::Json => out.extend_from_slice(
                serde_json::to_string(value).expect("strings serialise").as_bytes(),
            ),
        }
    }
}

/// One format's text for every value of one axis, stored back to back.
struct Labels {
    text: Vec<u8>,
    ends: Vec<usize>,
}

impl Labels {
    fn new<T>(values: &[T], mut label: impl FnMut(&mut Vec<u8>, &T)) -> Labels {
        let mut text = Vec::new();
        let ends = values
            .iter()
            .map(|value| {
                label(&mut text, value);
                text.len()
            })
            .collect();
        Labels { text, ends }
    }

    fn get(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.text[start..self.ends[i]]
    }
}

/// Stream the records' rows in `format`, without header or trailer.
fn write_rows<W: Write>(
    out: &mut W,
    space: &ScenarioSpace,
    records: &[EvalRecord],
    format: Format,
) -> io::Result<()> {
    let app = Labels::new(space.apps(), |row, app| format.free_text(row, "app", &app.name));
    let budget = Labels::new(space.budgets(), |row, &bce| format.number(row, "budget_bce", bce));
    let design = Labels::new(space.designs(), |row, design| {
        let (kind, r, rl) = match *design {
            ChipSpec::Symmetric { r } => ("symmetric", r, f64::NAN),
            ChipSpec::Asymmetric { r, rl } => ("asymmetric", r, rl),
        };
        format.ident(row, "design", kind);
        format.number(row, "r", r);
        format.number(row, "rl", rl);
    });
    let growth = Labels::new(space.growths(), |row, g| format.ident(row, "growth", &g.label()));
    let perf = Labels::new(space.perfs(), |row, p| format.ident(row, "perf", &p.label()));
    let reduction =
        Labels::new(space.reductions(), |row, r| format.ident(row, "reduction", r.name()));
    let topology =
        Labels::new(space.topologies(), |row, t| format.ident(row, "topology", &format!("{t:?}")));

    let mut row = Vec::with_capacity(FLUSH_BYTES + 1024);
    for (i, record) in records.iter().enumerate() {
        let ix = space.decode(record.index);
        if i > 0 {
            row.extend_from_slice(format.separator());
        }
        row.extend_from_slice(format.open());
        write!(row, "{}", record.index).expect("writing to a Vec cannot fail");
        row.extend_from_slice(app.get(ix.app));
        row.extend_from_slice(budget.get(ix.budget));
        row.extend_from_slice(design.get(ix.design));
        format.number(&mut row, "cores", record.cores);
        format.number(&mut row, "area", record.area);
        row.extend_from_slice(growth.get(ix.growth));
        row.extend_from_slice(perf.get(ix.perf));
        row.extend_from_slice(reduction.get(ix.reduction));
        row.extend_from_slice(topology.get(ix.topology));
        format.number(&mut row, "speedup", record.speedup);
        row.extend_from_slice(format.close());
        if row.len() >= FLUSH_BYTES {
            out.write_all(&row)?;
            row.clear();
        }
    }
    out.write_all(&row)
}

/// Stream the records as CSV (header + one row per record; invalid scenarios
/// get an empty speedup column).
pub fn write_csv<W: Write>(
    out: &mut W,
    space: &ScenarioSpace,
    records: &[EvalRecord],
) -> io::Result<()> {
    writeln!(
        out,
        "index,app,budget_bce,design,r,rl,cores,area,growth,perf,reduction,topology,speedup"
    )?;
    write_rows(out, space, records, Format::Csv)
}

/// Stream the sweep as a JSON document: stats header plus a records array,
/// one object per line. Invalid speedups are emitted as `null` (JSON has no
/// NaN).
pub fn write_json<W: Write>(
    out: &mut W,
    space: &ScenarioSpace,
    records: &[EvalRecord],
    stats: &SweepStats,
) -> io::Result<()> {
    write!(
        out,
        "{{\"stats\":{},\"records\":[",
        serde_json::to_string(stats).expect("stats always serialise")
    )?;
    write_rows(out, space, records, Format::Json)?;
    writeln!(out, "\n]}}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::AnalyticBackend;
    use crate::engine::{Engine, SweepConfig};

    fn sweep() -> (ScenarioSpace, Vec<EvalRecord>, SweepStats) {
        let space = ScenarioSpace::new()
            .clear_designs()
            .add_symmetric_grid([1.0, 4.0, 512.0])
            .add_asymmetric_grid([1.0], [16.0]);
        let engine = Engine::new(1);
        let result = engine.sweep(&space, &AnalyticBackend, &SweepConfig::default());
        (space, result.records, result.stats)
    }

    #[test]
    fn csv_has_header_and_one_row_per_record() {
        let (space, records, _) = sweep();
        let mut buf = Vec::new();
        write_csv(&mut buf, &space, &records).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + records.len());
        assert!(lines[0].starts_with("index,app,"));
        // The unfit r = 512 design exports an empty speedup cell.
        assert!(lines[3].ends_with(','));
        // The asymmetric design carries an rl value.
        assert!(lines[4].contains("asymmetric"));
    }

    #[test]
    fn json_parses_back_and_nan_becomes_null() {
        let (space, records, stats) = sweep();
        let mut buf = Vec::new();
        write_json(&mut buf, &space, &records, &stats).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let value = serde_json::parse(&text).unwrap();
        let map = value.as_map().unwrap();
        let parsed_records =
            map.iter().find(|(k, _)| k == "records").and_then(|(_, v)| v.as_arr()).unwrap();
        assert_eq!(parsed_records.len(), records.len());
        let unfit = parsed_records[2].as_map().unwrap();
        assert!(unfit.iter().find(|(k, _)| k == "speedup").unwrap().1.is_null());
    }

    #[test]
    fn exports_are_deterministic() {
        let (space, records, stats) = sweep();
        let mut a = Vec::new();
        let mut b = Vec::new();
        write_csv(&mut a, &space, &records).unwrap();
        write_csv(&mut b, &space, &records).unwrap();
        assert_eq!(a, b);
        let mut c = Vec::new();
        let mut d = Vec::new();
        write_json(&mut c, &space, &records, &stats).unwrap();
        write_json(&mut d, &space, &records, &stats).unwrap();
        assert_eq!(c, d);
    }

    #[test]
    fn csv_quotes_app_names_containing_delimiters() {
        use mp_model::params::AppParams;
        let space = ScenarioSpace::new()
            .with_apps(vec![AppParams::table2_kmeans().with_name("kmeans, \"tuned\"")]);
        let engine = Engine::new(1);
        let result = engine.sweep(&space, &AnalyticBackend, &SweepConfig::default());
        let mut buf = Vec::new();
        write_csv(&mut buf, &space, &result.records).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let row = text.lines().nth(1).unwrap();
        assert!(row.contains("\"kmeans, \"\"tuned\"\"\""), "row: {row}");
        // The one embedded comma sits inside the quoted field, so a naive
        // split sees exactly one extra column and an RFC-4180 reader sees the
        // correct count.
        let header_cols = text.lines().next().unwrap().split(',').count();
        let naive_cols = row.split(',').count();
        assert_eq!(naive_cols, header_cols + 1, "row: {row}");
    }
}
