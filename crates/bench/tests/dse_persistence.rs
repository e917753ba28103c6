//! Cache persistence of the real `repro dse` binary (quick space): a warm
//! restart reads the segment the cold run wrote and leaves it untouched;
//! a torn, flipped or stale segment, or a leftover JSON cache from an older
//! build, starts the run cold with the same exports as a clean run.

use std::path::{Path, PathBuf};
use std::process::Command;

use mp_dse::prelude::*;

const SEGMENT: &str = "cache-analytic.seg";

/// A fresh, empty directory private to one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mp-dse-persist-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// What one `repro dse --quick --json` run into `dir` reported.
#[derive(Debug)]
struct Run {
    summary: String,
    stderr: String,
}

impl Run {
    /// The raw value of one summary field (`"name":value`).
    fn field(&self, name: &str) -> &str {
        let key = format!("\"{name}\":");
        let start =
            self.summary.find(&key).unwrap_or_else(|| panic!("no {name}: {self:?}")) + key.len();
        let rest = &self.summary[start..];
        &rest[..rest.find([',', '}']).unwrap()]
    }
}

fn dse(dir: &Path) -> Run {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["dse", "--quick", "--json", "--threads", "2", "--out"])
        .arg(dir)
        .output()
        .expect("repro binary runs");
    let run = Run {
        summary: String::from_utf8_lossy(&output.stdout).lines().last().unwrap_or("").to_string(),
        stderr: String::from_utf8_lossy(&output.stderr).into_owned(),
    };
    assert!(output.status.success(), "repro dse failed: {run:?}");
    assert_eq!(run.field("identical"), "true", "{run:?}");
    run
}

/// `sweep.csv`, and `sweep.json` after its first (run-dependent stats) line.
fn exports(dir: &Path) -> (Vec<u8>, Vec<u8>) {
    let json = std::fs::read(dir.join("sweep.json")).unwrap();
    let body = json.iter().position(|&b| b == b'\n').map_or(&json[..], |nl| &json[nl + 1..]);
    (std::fs::read(dir.join("sweep.csv")).unwrap(), body.to_vec())
}

/// A clean cold run: its exports and the segment it wrote.
fn clean_run(name: &str) -> ((Vec<u8>, Vec<u8>), Vec<u8>) {
    let dir = scratch(name);
    let run = dse(&dir);
    assert_eq!(run.field("warm_entries"), "0", "{run:?}");
    let result = (exports(&dir), std::fs::read(dir.join(SEGMENT)).unwrap());
    std::fs::remove_dir_all(&dir).unwrap();
    result
}

#[test]
fn warm_restart_reads_every_entry_and_leaves_the_segment_untouched() {
    let dir = scratch("warm");
    let cold = dse(&dir);
    assert_eq!(cold.field("warm_entries"), "0", "{cold:?}");
    let segment = std::fs::read(dir.join(SEGMENT)).expect("the cold run persists a segment");
    let written = std::fs::metadata(dir.join(SEGMENT)).unwrap().modified().unwrap();
    let cold_exports = exports(&dir);

    let warm = dse(&dir);
    assert_eq!(warm.field("warm_entries"), warm.field("scenarios"), "{warm:?}");
    assert!(warm.stderr.is_empty(), "{warm:?}");
    assert!(std::fs::read(dir.join(SEGMENT)).unwrap() == segment, "warm run changed the segment");
    // Not even rewritten with the same bytes: the cache gained no entries.
    let after = std::fs::metadata(dir.join(SEGMENT)).unwrap().modified().unwrap();
    assert_eq!(after, written, "warm run rewrote an unchanged segment");
    assert!(exports(&dir) == cold_exports, "warm exports differ from the cold run's");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_flipped_and_stale_segments_start_cold_with_the_same_exports() {
    let (clean_exports, segment) = clean_run("clean");

    // The version string sits after the 8-byte magic and its u32 length.
    let version = EvalCache::format_version();
    assert_eq!(&segment[12..12 + version.len()], version.as_bytes());
    let mut stale = segment.clone();
    let last = 12 + version.len() - 1;
    stale[last] = if stale[last] == b'9' { b'8' } else { b'9' };
    // Re-seal it, so the file is a well-formed segment of another build
    // rather than a corrupt one.
    let body = stale.len() - 4;
    let crc = mp_dse::cache::crc32(&stale[..body]);
    stale[body..].copy_from_slice(&crc.to_le_bytes());

    let mut flipped = segment.clone();
    let middle = flipped.len() / 2;
    flipped[middle] ^= 0x01;
    let torn = segment[..segment.len() - 7].to_vec();

    for (name, bad) in [("torn", torn), ("flipped", flipped), ("stale", stale)] {
        let dir = scratch(name);
        std::fs::write(dir.join(SEGMENT), &bad).unwrap();
        let run = dse(&dir);
        assert_eq!(run.field("warm_entries"), "0", "{name}: {run:?}");
        assert!(run.stderr.contains("ignoring stale cache"), "{name}: {run:?}");
        assert!(exports(&dir) == clean_exports, "{name}: exports differ from a clean run's");
        // The refused file is replaced by this run's own, sound segment.
        assert!(std::fs::read(dir.join(SEGMENT)).unwrap() == segment, "{name}: segment");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn a_leftover_json_cache_is_ignored() {
    let (clean_exports, segment) = clean_run("legacy-clean");
    // A complete, valid JSON cache of the same space, as older builds
    // persisted it: reading it would warm-start the run.
    let space = mp_bench::dse_cmd::experiment_space(true);
    let engine = Engine::new(1);
    engine.sweep(&space, &AnalyticBackend, &SweepConfig::default());
    let legacy = engine.cache().save_json();

    let dir = scratch("legacy");
    std::fs::write(dir.join("cache-analytic.json"), &legacy).unwrap();
    let run = dse(&dir);
    assert_eq!(run.field("warm_entries"), "0", "{run:?}");
    assert!(run.stderr.is_empty(), "{run:?}");
    assert!(exports(&dir) == clean_exports, "exports differ from a clean run's");
    assert!(std::fs::read(dir.join(SEGMENT)).unwrap() == segment);
    assert_eq!(std::fs::read_to_string(dir.join("cache-analytic.json")).unwrap(), legacy);
    std::fs::remove_dir_all(&dir).unwrap();
}
