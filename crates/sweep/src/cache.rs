//! The content-addressed result cache: a directory of one-line JSON
//! blobs, one per *successful* run, named by the run's [`RunKey`]. It is
//! the sweep's only persistence: rerunning a killed or failed sweep with
//! the same cache directory simulates only the points that have no blob.
//!
//! ## Blob layout
//!
//! `<dir>/<16 hex digits>.json` holds one line plus a trailing newline:
//!
//! ```text
//! {"index": 3, "key": "<16 hex>", "status": "ok", "committed": ..., <metrics>}
//! ```
//!
//! Floats are rendered in their shortest form that parses back to the
//! same bits, so a cached record reconstructs bit-identically, and a blob
//! is self-describing enough to `cat`. Floats below 2^53 and the report's
//! u64 counters round-trip through the shared f64-based JSON reader
//! exactly; sweep metrics are far below that bound (simulated times are
//! ~1e11 fs at the default budget).
//!
//! ## Semantics
//!
//! * **Atomic writes.** A blob is written to a temporary name in the same
//!   directory and renamed into place, so a killed sweep can never leave
//!   a half-written blob under a valid key. A stray temporary file is
//!   never read.
//! * **Corruption is a miss, never an error.** Anything unreadable,
//!   unparsable, truncated, or carrying the wrong embedded key counts as
//!   `corrupt` in [`CacheStats`] and simply re-simulates. The only loud
//!   cache failures are *write* failures — silently dropping results
//!   would defeat the cache without telling anyone.
//! * **Only `ok` records are stored.** A failed run (panic or deadlock)
//!   must re-run, so a rerun on the same cache retries exactly the failed
//!   points.
//!
//! Keys already include the report schema version, so a schema bump
//! simply misses against old blobs rather than misreading them. The
//! directory is unbounded (a blob is about half a kilobyte, so the
//! 116-point paper matrix takes about 60 KB); `rm -r` clears it — it
//! holds nothing else.

use std::fs;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use gals_analysis::finding::json_escape;

use crate::matrix_file::{u64_field, Json, Parser};
use crate::{RunKey, RunRecord, RunSpec, RunStatus};

/// Cache-traffic counters for one sweep (a snapshot of [`ResultCache`]'s
/// internal counters; all-zero when no cache is configured).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct CacheStats {
    /// Lookups served from a blob.
    pub hits: u64,
    /// Lookups that found no usable blob (includes `corrupt`).
    pub misses: u64,
    /// Blobs written.
    pub stores: u64,
    /// Misses caused by an unreadable or invalid blob.
    pub corrupt: u64,
}

/// A handle on one cache directory, shared by a sweep's workers. Every
/// store is a single filesystem action — an atomic rename — so no
/// internal lock is needed beyond the atomic counters, and a peer handle
/// (same process or another) racing on the same directory is always
/// safe: a blob deleted under us is a miss on load.
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    corrupt: AtomicU64,
    tmp_seq: AtomicU64,
}

impl ResultCache {
    /// Opens (creating if needed) the cache directory.
    ///
    /// # Errors
    ///
    /// The directory cannot be created.
    pub fn open(dir: &Path) -> Result<ResultCache, String> {
        fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create cache directory {}: {e}", dir.display()))?;
        Ok(ResultCache {
            dir: dir.to_path_buf(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            tmp_seq: AtomicU64::new(0),
        })
    }

    fn blob_name(key: RunKey) -> String {
        format!("{}.json", key.to_hex())
    }

    /// Looks `key` up, reconstructing the record for `spec`. Any defect in
    /// the blob — unreadable, truncated, wrong embedded key, a non-`ok`
    /// status — is a miss (counted `corrupt` where the blob existed but
    /// was unusable), never an error: the point simply re-simulates.
    pub fn load(&self, key: RunKey, spec: &RunSpec) -> Option<RunRecord> {
        let path = self.dir.join(Self::blob_name(key));
        let record = match fs::read_to_string(&path) {
            Ok(text) => parse_blob(&text, spec, key).ok().flatten(),
            Err(e) if e.kind() == ErrorKind::NotFound => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            Err(_) => None,
        };
        if record.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.corrupt.fetch_add(1, Ordering::Relaxed);
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        record
    }

    /// Stores a *successful* record under `key` (atomically: temp file in
    /// the cache directory, then rename). Non-`ok` records are ignored —
    /// failures must re-run.
    ///
    /// # Errors
    ///
    /// Write failures are loud (a cache that silently drops results is
    /// worse than no cache); the sweep returns them as its error.
    pub fn store(&self, record: &RunRecord, key: RunKey) -> Result<(), String> {
        if !record.status.is_ok() {
            return Ok(());
        }
        let name = Self::blob_name(key);
        let tmp = self.dir.join(format!(
            "{name}.tmp-{}-{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        let mut line = entry_line(record, key);
        line.push('\n');
        fs::write(&tmp, line.as_bytes())
            .map_err(|e| format!("cannot write cache blob {}: {e}", tmp.display()))?;
        fs::rename(&tmp, self.dir.join(&name))
            .map_err(|e| format!("cannot commit cache blob {name}: {e}"))?;
        self.stores.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// A snapshot of this handle's traffic counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
        }
    }
}

/// Shortest f64 representation that parses back to the same bits (Rust's
/// `{:?}` float formatting); non-finite values — which the report layer
/// never produces — degrade to 0 rather than poisoning the JSON.
fn fmt_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".into()
    }
}

/// Renders one blob line (without the trailing newline).
fn entry_line(record: &RunRecord, key: RunKey) -> String {
    let head = format!(
        "{{\"index\": {}, \"key\": \"{}\", \"status\": \"{}\"",
        record.spec.index,
        key.to_hex(),
        record.status.label()
    );
    match &record.status {
        RunStatus::Ok => format!(
            "{head}, \"committed\": {}, \"fetched\": {}, \"wrong_path_fetched\": {}, \
             \"exec_time_fs\": {}, \"insts_per_ns\": {}, \"mean_slip_fs\": {}, \
             \"fifo_slip_fraction\": {}, \"misspeculation_rate\": {}, \
             \"channel_ops\": {}, \"total_stretches\": {}, \"stretch_time_fs\": {}, \
             \"rendezvous_block_cycles\": {}, \"min_effective_ghz\": {}, \
             \"total_energy\": {}, \"average_power\": {}}}",
            record.committed,
            record.fetched,
            record.wrong_path_fetched,
            record.exec_time_fs,
            fmt_f64(record.insts_per_ns),
            record.mean_slip_fs,
            fmt_f64(record.fifo_slip_fraction),
            fmt_f64(record.misspeculation_rate),
            record.channel_ops,
            record.total_stretches,
            record.stretch_time_fs,
            record.rendezvous_block_cycles,
            fmt_f64(record.min_effective_ghz),
            fmt_f64(record.total_energy),
            fmt_f64(record.average_power),
        ),
        RunStatus::Panicked { msg } => {
            format!("{head}, \"panic_msg\": \"{}\"}}", json_escape(msg))
        }
        RunStatus::Deadlocked { .. } => format!("{head}}}"),
    }
}

fn parse_u64(v: &Json, key: &str) -> Result<u64, String> {
    u64_field(v, key)?.ok_or_else(|| format!("blob: missing {key:?}"))
}

fn parse_f64(v: &Json, key: &str) -> Result<f64, String> {
    match v.get(key) {
        Some(Json::Num(f)) => Ok(*f),
        Some(other) => Err(format!(
            "blob: {key} must be a number, got {}",
            other.type_name()
        )),
        None => Err(format!("blob: missing {key:?}")),
    }
}

fn parse_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    match v.get(key) {
        Some(Json::Str(s)) => Ok(s),
        Some(other) => Err(format!(
            "blob: {key} must be a string, got {}",
            other.type_name()
        )),
        None => Err(format!("blob: missing {key:?}")),
    }
}

/// Reconstructs the [`RunRecord`] of an `"ok"` blob from its parsed JSON
/// object.
fn parse_ok_record(entry: &Json, spec: &RunSpec) -> Result<RunRecord, String> {
    Ok(RunRecord {
        spec: spec.clone(),
        status: RunStatus::Ok,
        // Not stored: a pure function of the spec, recomputed so the
        // cached record is bit-identical to a fresh run's.
        analysis: spec.static_findings(),
        committed: parse_u64(entry, "committed")?,
        fetched: parse_u64(entry, "fetched")?,
        wrong_path_fetched: parse_u64(entry, "wrong_path_fetched")?,
        exec_time_fs: parse_u64(entry, "exec_time_fs")?,
        insts_per_ns: parse_f64(entry, "insts_per_ns")?,
        mean_slip_fs: parse_u64(entry, "mean_slip_fs")?,
        fifo_slip_fraction: parse_f64(entry, "fifo_slip_fraction")?,
        misspeculation_rate: parse_f64(entry, "misspeculation_rate")?,
        channel_ops: parse_u64(entry, "channel_ops")?,
        total_stretches: parse_u64(entry, "total_stretches")?,
        stretch_time_fs: parse_u64(entry, "stretch_time_fs")?,
        rendezvous_block_cycles: parse_u64(entry, "rendezvous_block_cycles")?,
        min_effective_ghz: parse_f64(entry, "min_effective_ghz")?,
        total_energy: parse_f64(entry, "total_energy")?,
        average_power: parse_f64(entry, "average_power")?,
    })
}

/// Parses one blob (a single [`entry_line`] rendering) for `spec`,
/// verifying its `key` field against the expected [`RunKey`].
///
/// Returns `Ok(Some(record))` for a well-formed `"ok"` entry,
/// `Ok(None)` for a well-formed non-ok entry (a failed run must never be
/// served from cache), and `Err` for anything malformed — the cache
/// treats both as a corrupt blob, i.e. a miss.
fn parse_blob(text: &str, spec: &RunSpec, key: RunKey) -> Result<Option<RunRecord>, String> {
    let line = text.lines().next().ok_or("empty blob")?;
    let entry = Parser::new(line)
        .value()
        .map_err(|e| format!("blob: {e}"))?;
    let got = parse_str(&entry, "key")?;
    if got != key.to_hex() {
        return Err(format!("blob key {got} does not match {}", key.to_hex()));
    }
    if parse_str(&entry, "status")? != "ok" {
        return Ok(None);
    }
    Ok(Some(parse_ok_record(&entry, spec)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DvfsPoint, ModePoint, SweepMatrix, WORKLOAD_SEED};
    use gals_workload::{Benchmark, Workload};

    fn specs() -> Vec<crate::RunSpec> {
        SweepMatrix {
            benchmarks: vec![Workload::Profile(Benchmark::Adpcm)],
            modes: vec![
                ModePoint::Synchronous,
                ModePoint::Gals {
                    wakeup_filter: false,
                },
            ],
            dvfs: vec![DvfsPoint::nominal()],
            phase_seeds: vec![1],
            workload_seed: WORKLOAD_SEED,
            budget: 400,
        }
        .expand()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::AtomicUsize;
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        std::env::temp_dir().join(format!(
            "gals-sweep-cache-{}-{}-{tag}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn panicked(spec: &RunSpec) -> RunRecord {
        RunRecord::failed(spec, RunStatus::Panicked { msg: "boom".into() })
    }

    #[test]
    fn store_then_load_round_trips_and_counts() {
        let dir = temp_dir("round-trip");
        let cache = ResultCache::open(&dir).expect("open");
        let specs = specs();
        let record = specs[0].run();
        let key = RunKey::of(&specs[0]);
        assert_eq!(cache.load(key, &specs[0]), None, "cold miss");
        cache.store(&record, key).expect("store");
        assert_eq!(cache.load(key, &specs[0]), Some(record), "warm hit");
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                stores: 1,
                corrupt: 0,
            }
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn ok_entries_round_trip_through_the_line_format() {
        let specs = specs();
        for spec in &specs {
            let record = spec.run();
            assert!(record.status.is_ok());
            let key = RunKey::of(spec);
            let blob = format!("{}\n", entry_line(&record, key));
            let parsed = parse_blob(&blob, spec, key).expect("valid blob");
            assert_eq!(parsed, Some(record), "exact metric round-trip");
        }
    }

    #[test]
    fn blobs_round_trip_and_reject_mismatched_keys_and_failed_runs() {
        let specs = specs();
        let record = specs[0].run();
        let key = RunKey::of(&specs[0]);
        let blob = format!("{}\n", entry_line(&record, key));
        assert_eq!(
            parse_blob(&blob, &specs[0], key).expect("valid blob"),
            Some(record)
        );
        // A blob stored under one key never deserialises for another.
        let other = RunKey::of(&specs[1]);
        assert!(parse_blob(&blob, &specs[1], other).is_err());
        // Failed outcomes are well-formed but never served from cache.
        let blob = format!("{}\n", entry_line(&panicked(&specs[0]), key));
        assert_eq!(
            parse_blob(&blob, &specs[0], key).expect("well-formed"),
            None
        );
        // Truncation is an error (which the cache treats as a miss).
        assert!(parse_blob("", &specs[0], key).is_err());
        assert!(parse_blob("{\"ind", &specs[0], key).is_err());
    }

    #[test]
    fn corrupt_blobs_are_misses_never_errors() {
        let dir = temp_dir("corrupt");
        let cache = ResultCache::open(&dir).expect("open");
        let specs = specs();
        let record = specs[0].run();
        let key = RunKey::of(&specs[0]);
        cache.store(&record, key).expect("store");
        let blob = dir.join(ResultCache::blob_name(key));

        // Truncated mid-line.
        let text = fs::read_to_string(&blob).expect("blob");
        fs::write(&blob, &text[..text.len() / 2]).expect("truncate");
        assert_eq!(cache.load(key, &specs[0]), None);
        // Not JSON at all.
        fs::write(&blob, "not json\n").expect("garbage");
        assert_eq!(cache.load(key, &specs[0]), None);
        // A valid blob filed under the wrong name.
        let other = RunKey::of(&specs[1]);
        fs::write(&blob, entry_line(&specs[1].run(), other) + "\n").expect("mismatched");
        assert_eq!(cache.load(key, &specs[0]), None);
        assert_eq!(cache.stats().corrupt, 3);
        assert_eq!(cache.stats().hits, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_records_are_never_stored() {
        let dir = temp_dir("failed");
        let cache = ResultCache::open(&dir).expect("open");
        let specs = specs();
        let key = RunKey::of(&specs[0]);
        cache.store(&panicked(&specs[0]), key).expect("no-op store");
        assert_eq!(cache.stats().stores, 0);
        assert_eq!(cache.load(key, &specs[0]), None);
        let _ = fs::remove_dir_all(&dir);
    }
}
