//! Content-addressed on-disk result cache for sweep cells.
//!
//! A figure sweep is a grid of deterministic simulations: the same
//! `(workload, policy selection, run options, GpuConfig, engine build)`
//! cell always produces the same [`Stats`]. Re-running a 45-minute
//! paper-scale sweep because one workload row changed is pure waste, so
//! the runner consults this cache before spawning cells.
//!
//! **Key derivation.** A cell's cache key is an FNV-1a digest over one
//! text that names every input that can influence its result:
//!
//! * the derived `Debug` of the `Workload` — every field of the spec;
//! * the `PolicySelection`'s registry name (`avatar`), which fixes
//!   everything assembly does;
//! * the derived `Debug` of the `RunOptions` — scale, seed, geometry,
//!   codec — with the trace destination cleared (an observer, not an
//!   input);
//! * the derived `Debug` of the post-tweak `GpuConfig` — the full
//!   hardware model configuration, after ablation tweaks;
//! * the **engine fingerprint** — a build-time FNV digest over the
//!   source trees of every result-affecting crate (`avatar-sim`,
//!   `avatar-core`, `avatar-workloads`, `avatar-bpc`,
//!   `avatar-baselines`; see [`avatar_sim::engine_fingerprint`]), so
//!   any change to code that can influence a cell's `Stats` — engine,
//!   CAST policy, content model, codec, or baseline TLB — invalidates
//!   every prior entry even if it would happen to keep results stable.
//!
//! A derived `Debug` prints every field, so a new field joins the key
//! with no code to update. Every keyed type lives in a fingerprinted
//! crate, so a change to how one prints changes the fingerprint too: a
//! gap in the key can cost a spurious miss, never a wrong hit. The
//! policy is keyed by name because the derived `Debug` of its
//! `PolicyDef` prints `fn`-pointer addresses, which differ between
//! processes.
//!
//! **Entry format.** One JSON file per key (`<dir>/<key:016x>.json`),
//! schema-versioned (`avatar-cache/4`), holding the recorded engine
//! fingerprint, the cell's `Stats::digest()`, its wall time, and the
//! `Stats` payload: [`Stats::to_words`], 16 hex digits per word.
//! Writes go through a temp file + atomic rename so concurrent sweeps
//! sharing a cache directory never observe a torn entry.
//!
//! **Trust model.** A replayed entry is *re-verified*: the decoded
//! `Stats::digest()` must equal the recorded digest, and both must be
//! internally consistent. A mismatch is a hard `DETERMINISM` error —
//! never a silent fallback to the cached value, never a silent re-run —
//! because a mangled cache that still parses is exactly how a stale
//! result sneaks into a paper table. A *fingerprint* mismatch, by
//! contrast, is an ordinary miss: the entry was recorded by a different
//! engine build and simply no longer applies.

use crate::json::Json;
use crate::obj;
use avatar_core::policy::PolicySelection;
use avatar_core::system::RunOptions;
use avatar_sim::config::GpuConfig;
use avatar_sim::invariant::Fnv64;
use avatar_sim::Stats;
use avatar_workloads::Workload;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Entry schema identifier; bump on any layout change. A file with a
/// different schema is treated as a miss (old format, not corruption).
pub const SCHEMA: &str = "avatar-cache/4";

/// Default cache directory when neither `--cache` nor `AVATAR_CACHE`
/// names one.
pub const DEFAULT_DIR: &str = "target/avatar-cache";

/// Computes the content-address of one sweep cell. `cfg` must be the
/// *post-tweak* config — the one the engine is actually assembled from.
pub fn cell_key(
    workload: &Workload,
    policy: PolicySelection,
    opts: &RunOptions,
    cfg: &GpuConfig,
) -> u64 {
    cell_key_with_fingerprint(workload, policy, opts, cfg, avatar_sim::engine_fingerprint())
}

/// [`cell_key`] with an explicit engine fingerprint (stale-cache tests).
pub fn cell_key_with_fingerprint(
    workload: &Workload,
    policy: PolicySelection,
    opts: &RunOptions,
    cfg: &GpuConfig,
    fingerprint: &str,
) -> u64 {
    let opts = RunOptions { trace_out: None, trace_tag: None, ..opts.clone() };
    let text = format!("{fingerprint}\n{workload:?}\n{}\n{opts:?}\n{cfg:?}", policy.name());
    let mut h = Fnv64::new();
    for b in text.bytes() {
        h.write_u64(u64::from(b));
    }
    h.finish()
}

/// A successfully replayed cache entry.
#[derive(Debug, Clone)]
pub struct CachedCell {
    /// The recorded simulation statistics, digest-re-verified.
    pub stats: Stats,
    /// Wall time the original run took (the time the replay saved).
    pub wall_s: f64,
}

/// A content-addressed result cache rooted at one directory.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
    fingerprint: String,
}

impl ResultCache {
    /// A cache rooted at `dir`, keyed by this build's engine fingerprint.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self::with_fingerprint(dir, avatar_sim::engine_fingerprint())
    }

    /// A cache with an explicit fingerprint — test hook for proving that
    /// entries recorded by a different engine build are misses.
    pub fn with_fingerprint(dir: impl Into<PathBuf>, fingerprint: &str) -> Self {
        Self { dir: dir.into(), fingerprint: fingerprint.to_string() }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The entry file for a key.
    pub fn entry_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.json"))
    }

    /// Looks up a cell. `Ok(None)` is a miss (no entry, old schema, or
    /// an entry recorded under a different engine fingerprint).
    /// `Err` is a hard error: the entry exists, claims to match, and
    /// fails verification — corruption or a determinism violation.
    pub fn load(&self, key: u64) -> Result<Option<CachedCell>, String> {
        let path = self.entry_path(key);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("cache entry {} unreadable: {e}", path.display())),
        };
        let doc = Json::parse(&text)
            .map_err(|e| format!("cache entry {} is malformed JSON: {e}", path.display()))?;
        if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Ok(None); // older/newer format: a miss, not corruption
        }
        match doc.get("engine_fingerprint").and_then(Json::as_str) {
            Some(fp) if fp == self.fingerprint => {}
            Some(_) => return Ok(None), // recorded by a different engine build
            None => {
                return Err(format!(
                    "cache entry {} has no engine fingerprint",
                    path.display()
                ));
            }
        }
        let field_str = |name: &str| -> Result<&str, String> {
            doc.get(name).and_then(Json::as_str).ok_or_else(|| {
                format!("cache entry {} is missing \"{name}\"", path.display())
            })
        };
        let recorded_key = u64::from_str_radix(field_str("key")?, 16)
            .map_err(|e| format!("cache entry {} has a bad key: {e}", path.display()))?;
        if recorded_key != key {
            return Err(format!(
                "cache entry {} records key {recorded_key:016x} but was addressed as \
                 {key:016x}: the store is corrupt",
                path.display()
            ));
        }
        let recorded_digest = u64::from_str_radix(field_str("stats_digest")?, 16)
            .map_err(|e| format!("cache entry {} has a bad digest: {e}", path.display()))?;
        let wall_s = doc
            .get("wall_s")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("cache entry {} is missing \"wall_s\"", path.display()))?;
        let stats = decode_words(field_str("stats_hex")?)
            .and_then(|words| Stats::from_words(&words))
            .map_err(|e| format!("cache entry {} stats payload: {e}", path.display()))?;
        // The re-verification the whole design hinges on: the decoded
        // statistics must reproduce the digest recorded at store time.
        let digest = stats.digest();
        if digest != recorded_digest {
            return Err(format!(
                "DETERMINISM: cache entry {} decodes to stats digest {digest:#018x} but \
                 records {recorded_digest:#018x}; refusing to replay",
                path.display()
            ));
        }
        Ok(Some(CachedCell { stats, wall_s }))
    }

    /// Records a cell's result. Write errors are returned, not fatal —
    /// a read-only cache directory degrades to a no-op cache.
    pub fn store(&self, key: u64, stats: &Stats, wall_s: f64) -> Result<(), String> {
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| format!("cache dir {}: {e}", self.dir.display()))?;
        let entry = obj! {
            "schema": SCHEMA,
            "engine_fingerprint": self.fingerprint.as_str(),
            "key": format!("{key:016x}"),
            "stats_digest": format!("{:016x}", stats.digest()),
            "wall_s": wall_s,
            "stats_hex": encode_words(&stats.to_words()),
        };
        let path = self.entry_path(key);
        // Temp + rename: concurrent sweeps sharing the directory either
        // see the old entry or the complete new one, never a torn write.
        let tmp = self.dir.join(format!(".{key:016x}.tmp.{}", std::process::id()));
        std::fs::write(&tmp, entry.pretty())
            .map_err(|e| format!("cache write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            format!("cache rename {}: {e}", path.display())
        })
    }
}

fn encode_words(words: &[u64]) -> String {
    words.iter().map(|w| format!("{w:016x}")).collect()
}

fn decode_words(text: &str) -> Result<Vec<u64>, String> {
    if !text.len().is_multiple_of(16) {
        return Err(format!("{} hex digits are not a whole number of words", text.len()));
    }
    text.as_bytes()
        .chunks_exact(16)
        .map(|word| {
            let hex = std::str::from_utf8(word).map_err(|_| "non-ASCII hex payload".to_string())?;
            u64::from_str_radix(hex, 16).map_err(|e| format!("bad hex word '{hex}': {e}"))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Process-global cache handle + hit/miss tallies.
// ---------------------------------------------------------------------------

/// The process-wide cache, set once by [`configure`]. `None` inside the
/// option means "explicitly disabled"; an unset lock means the harness
/// never configured caching (tests, direct library use) — both disable.
static GLOBAL: OnceLock<Option<ResultCache>> = OnceLock::new();

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static MEMOIZED: AtomicU64 = AtomicU64::new(0);
static SKIPPED_WALL_US: AtomicU64 = AtomicU64::new(0);

/// Installs the process-global cache (first caller wins; later calls are
/// no-ops returning `false`). `HarnessArgs::parse_with` calls this from
/// the resolved `--cache`/`--no-cache`/`AVATAR_CACHE` knobs; a harness
/// that must never replay (the throughput timing bin) calls
/// `configure(None)` *before* parsing to pin the cache off.
pub fn configure(cache: Option<ResultCache>) -> bool {
    GLOBAL.set(cache).is_ok()
}

/// The process-global cache, if configured and enabled.
pub fn global() -> Option<&'static ResultCache> {
    GLOBAL.get().and_then(|c| c.as_ref())
}

/// Records a disk hit that skipped `wall_s` seconds of simulation.
pub fn note_hit(wall_s: f64) {
    HITS.fetch_add(1, Ordering::Relaxed);
    note_skipped(wall_s);
}

/// Records a disk miss (the cell will run and be stored).
pub fn note_miss() {
    MISSES.fetch_add(1, Ordering::Relaxed);
}

/// Records an in-process memoized replay (duplicate cell in one sweep)
/// that skipped `wall_s` seconds of simulation.
pub fn note_memoized(wall_s: f64) {
    MEMOIZED.fetch_add(1, Ordering::Relaxed);
    note_skipped(wall_s);
}

fn note_skipped(wall_s: f64) {
    // Microsecond integer ticks: u64 atomics exist everywhere, f64
    // atomics don't, and sweep wall times don't need sub-µs resolution.
    let us = (wall_s * 1e6).max(0.0).min(u64::MAX as f64) as u64;
    SKIPPED_WALL_US.fetch_add(us, Ordering::Relaxed);
}

/// Snapshot of the process-wide cache counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheTally {
    /// Cells replayed from disk.
    pub hits: u64,
    /// Cells that ran because no valid entry existed.
    pub misses: u64,
    /// Cells replayed from an identical cell earlier in the same sweep.
    pub memoized: u64,
    /// Total simulation wall time the replays skipped, in seconds.
    pub skipped_wall_s: f64,
}

/// Reads the current cache counters (cumulative for the process).
pub fn tally() -> CacheTally {
    CacheTally {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        memoized: MEMOIZED.load(Ordering::Relaxed),
        skipped_wall_s: SKIPPED_WALL_US.load(Ordering::Relaxed) as f64 / 1e6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    /// A fresh scratch directory per test; `std::env::temp_dir` + pid +
    /// counter keeps parallel test threads and parallel CI jobs apart
    /// without wall-clock or OS entropy.
    fn scratch_dir() -> PathBuf {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("avatar-cache-test-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_stats() -> Stats {
        Stats { loads: 1234, cycles: 98765, l1_tlb_hits: 42, ..Stats::default() }
    }

    #[test]
    fn store_then_load_round_trips() {
        let dir = scratch_dir();
        let cache = ResultCache::with_fingerprint(&dir, "deadbeefdeadbeef");
        let stats = sample_stats();
        cache.store(7, &stats, 1.25).expect("store succeeds");
        let cell = cache.load(7).expect("load succeeds").expect("entry present");
        assert_eq!(cell.stats.digest(), stats.digest());
        assert_eq!(cell.stats.loads, stats.loads);
        assert_eq!(cell.wall_s, 1.25);
        // No temp litter after a successful store.
        let names: Vec<String> = std::fs::read_dir(&dir)
            .expect("cache dir listable")
            .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["0000000000000007.json".to_string()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_entry_is_a_miss() {
        let dir = scratch_dir();
        let cache = ResultCache::with_fingerprint(&dir, "deadbeefdeadbeef");
        assert!(cache.load(99).expect("clean miss").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn different_engine_fingerprint_is_a_miss_not_an_error() {
        // The stale-cache negative test: an entry recorded by engine
        // build A must be a miss for engine build B, never a replay.
        let dir = scratch_dir();
        let old_engine = ResultCache::with_fingerprint(&dir, "aaaaaaaaaaaaaaaa");
        old_engine.store(7, &sample_stats(), 0.5).expect("store succeeds");
        let new_engine = ResultCache::with_fingerprint(&dir, "bbbbbbbbbbbbbbbb");
        assert!(
            new_engine.load(7).expect("fingerprint mismatch is a clean miss").is_none(),
            "entry from another engine build must not replay"
        );
        // The original build still hits.
        assert!(old_engine.load(7).expect("load succeeds").is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tampered_stats_payload_is_a_hard_error() {
        let dir = scratch_dir();
        let cache = ResultCache::with_fingerprint(&dir, "deadbeefdeadbeef");
        cache.store(7, &sample_stats(), 0.5).expect("store succeeds");
        // Flip the top digit of the first word (`cycles`): the decoded
        // stats no longer reproduce the recorded digest.
        let path = cache.entry_path(7);
        let text = std::fs::read_to_string(&path).expect("entry readable");
        let tampered = text.replacen("\"stats_hex\": \"0", "\"stats_hex\": \"f", 1);
        assert_ne!(text, tampered, "tamper must change the payload");
        std::fs::write(&path, tampered).expect("tamper write");
        let err = cache.load(7).expect_err("tampered payload must be a hard error");
        assert!(err.contains("DETERMINISM") && err.contains("cache entry"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tampered_digest_is_a_determinism_error() {
        let dir = scratch_dir();
        let cache = ResultCache::with_fingerprint(&dir, "deadbeefdeadbeef");
        let stats = sample_stats();
        cache.store(7, &stats, 0.5).expect("store succeeds");
        let path = cache.entry_path(7);
        let text = std::fs::read_to_string(&path).expect("entry readable");
        let recorded = format!("{:016x}", stats.digest());
        let forged = format!("{:016x}", stats.digest() ^ 1);
        let tampered = text.replacen(&recorded, &forged, 1);
        assert_ne!(text, tampered);
        std::fs::write(&path, tampered).expect("tamper write");
        let err = cache.load(7).expect_err("forged digest must be a hard error");
        assert!(err.contains("DETERMINISM"), "error is a determinism violation: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_schema_is_a_miss() {
        let dir = scratch_dir();
        let cache = ResultCache::with_fingerprint(&dir, "deadbeefdeadbeef");
        cache.store(7, &sample_stats(), 0.5).expect("store succeeds");
        let path = cache.entry_path(7);
        let text = std::fs::read_to_string(&path).expect("entry readable");
        std::fs::write(&path, text.replace(SCHEMA, "avatar-cache/0")).expect("rewrite");
        assert!(cache.load(7).expect("old schema is a clean miss").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_is_address_checked() {
        // An entry copied to the wrong address is corruption, not a hit.
        let dir = scratch_dir();
        let cache = ResultCache::with_fingerprint(&dir, "deadbeefdeadbeef");
        cache.store(7, &sample_stats(), 0.5).expect("store succeeds");
        std::fs::copy(cache.entry_path(7), cache.entry_path(8)).expect("copy entry");
        assert!(cache.load(8).is_err(), "mis-addressed entry must hard-error");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn payload_one_word_short_is_a_hard_error() {
        let dir = scratch_dir();
        let cache = ResultCache::with_fingerprint(&dir, "deadbeefdeadbeef");
        cache.store(7, &sample_stats(), 0.5).expect("store succeeds");
        let path = cache.entry_path(7);
        let text = std::fs::read_to_string(&path).expect("entry readable");
        let head = "\"stats_hex\": \"";
        let at = text.find(head).expect("entry has a payload") + head.len();
        let short = format!("{}{}", &text[..at], &text[at + 16..]);
        std::fs::write(&path, short).expect("tamper write");
        let err = cache.load(7).expect_err("a short payload must be a hard error");
        assert!(err.contains("cache entry") && err.contains("words"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn word_codec_round_trips() {
        let words = [0, 1, 0xdead_beef, u64::MAX];
        assert_eq!(decode_words(&encode_words(&words)).expect("valid hex"), words);
        assert!(decode_words("abc").is_err(), "partial word rejected");
        assert!(decode_words(&"z".repeat(16)).is_err(), "non-hex rejected");
    }

    #[test]
    fn cell_key_separates_inputs() {
        use avatar_core::policy::AVATAR;
        use avatar_sim::config::{BasePage, CacheArrangement};
        let gemm = Workload::by_abbr("GEMM").expect("workload table contains GEMM");
        let avatar = PolicySelection::from(AVATAR);
        let opts = RunOptions::default();
        let cfg = GpuConfig::rtx3070();
        let base = cell_key_with_fingerprint(&gemm, avatar, &opts, &cfg, "fp");
        assert_eq!(base, cell_key_with_fingerprint(&gemm, avatar, &opts, &cfg, "fp"), "stable");
        let parsed = PolicySelection::parse("avatar").expect("registry name");
        assert_eq!(base, cell_key_with_fingerprint(&gemm, parsed, &opts, &cfg, "fp"));
        // The trace destination is an observer, not an input.
        let traced = RunOptions {
            trace_out: Some(PathBuf::from("t.json")),
            trace_tag: Some("GEMM Avatar".into()),
            ..opts.clone()
        };
        assert_eq!(base, cell_key_with_fingerprint(&gemm, avatar, &traced, &cfg, "fp"));

        // Each row changes one input of the base cell; no two rows may
        // share a key.
        let mut rows = vec![("base cell".to_string(), base)];
        let mut more_rounds = gemm.clone();
        more_rounds.rounds += 1;
        let workloads = Workload::all().into_iter().chain(Workload::ml_suite());
        for w in workloads.filter(|w| w.abbr != gemm.abbr).chain([more_rounds]) {
            let key = cell_key_with_fingerprint(&w, avatar, &opts, &cfg, "fp");
            rows.push((format!("workload {} ({} rounds)", w.abbr, w.rounds), key));
        }
        for sel in PolicySelection::all_base().filter(|&sel| sel != avatar) {
            let key = cell_key_with_fingerprint(&gemm, sel, &opts, &cfg, "fp");
            rows.push((format!("policy {}", sel.name()), key));
        }
        let edit_cfg = |edit: fn(&mut GpuConfig)| {
            let mut c = cfg.clone();
            edit(&mut c);
            c
        };
        let cfgs = [
            ("num_sms", edit_cfg(|c| c.num_sms += 1)),
            ("l2_tlb.mshr_entries", edit_cfg(|c| c.l2_tlb.mshr_entries += 1)),
            ("l1_arrangement", edit_cfg(|c| c.l1_arrangement = CacheArrangement::Pipt)),
            ("uvm.fragmentation", edit_cfg(|c| c.uvm.fragmentation += 0.25)),
            ("ideal_tlb", edit_cfg(|c| c.ideal_tlb = !c.ideal_tlb)),
            ("seed", edit_cfg(|c| c.seed += 1)),
        ];
        for (field, c) in &cfgs {
            let key = cell_key_with_fingerprint(&gemm, avatar, &opts, c, "fp");
            rows.push((format!("GpuConfig {field}"), key));
        }
        let edit_opts = |edit: fn(&mut RunOptions)| {
            let mut o = opts.clone();
            edit(&mut o);
            o
        };
        let run_opts = [
            ("scale", edit_opts(|o| o.scale = 0.5)),
            ("seed", edit_opts(|o| o.seed += 1)),
            ("oversubscription", edit_opts(|o| o.oversubscription = Some(1.3))),
            ("base_page", edit_opts(|o| o.base_page = BasePage::Size64K)),
            ("tenants", edit_opts(|o| o.tenants = 2)),
            ("codec", edit_opts(|o| o.codec = avatar_bpc::Codec::Fpc)),
            ("sms", edit_opts(|o| o.sms = Some(4))),
            ("warps", edit_opts(|o| o.warps = Some(8))),
        ];
        for (field, o) in &run_opts {
            let key = cell_key_with_fingerprint(&gemm, avatar, o, &cfg, "fp");
            rows.push((format!("RunOptions {field}"), key));
        }
        rows.push((
            "fingerprint".to_string(),
            cell_key_with_fingerprint(&gemm, avatar, &opts, &cfg, "fp2"),
        ));

        let mut seen = std::collections::BTreeMap::new();
        for (label, key) in &rows {
            if let Some(prev) = seen.insert(*key, label) {
                panic!("{label} keys the same as {prev}");
            }
        }
    }
}
