//! Build script: computes the engine-version fingerprint.
//!
//! The fingerprint is an FNV-1a digest over the source trees of every
//! workspace crate that can influence a simulation's `Stats` — the
//! engine itself plus the policy layer (`avatar-core`: CAST, the
//! MOD/VPN tables, system assembly), the workload generators
//! (`avatar-workloads`: traces and the content model), the compression
//! codecs (`avatar-bpc`, selected via `RunOptions::codec`), and the
//! baseline TLBs (`avatar-baselines`, assembled by the CoLT and
//! SnakeByte registry policies). File names and contents are folded in sorted
//! path order; the digest is baked into the library via the
//! `AVATAR_ENGINE_FINGERPRINT` environment variable and becomes part of
//! every result-cache key: any change to result-affecting source — even
//! one that happens to keep digests stable — invalidates previously
//! cached sweep results, so a stale cache can never masquerade as a
//! fresh run of a modified engine.
//!
//! The sibling crates are not `cargo` dependencies of `avatar-sim`
//! (most depend on it, not the reverse), so the build script reaches
//! them by workspace-relative path. That makes this crate unpackagable
//! in isolation — acceptable for a research workspace, and the walk
//! panics loudly if a tree is missing rather than fingerprinting a
//! partial source set.

use std::fs;
use std::path::{Path, PathBuf};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Source trees whose contents can change simulation results, relative
/// to this crate's manifest directory. The harness crate
/// (`avatar-bench`) is deliberately absent: every input it feeds the
/// engine — workload spec, `PolicySelection`, `RunOptions`, post-tweak
/// `GpuConfig` — is folded into the cache key separately, so bench-side
/// edits must not invalidate the cache. Keep in sync with DESIGN.md §12.
const RESULT_AFFECTING_SRC: &[&str] = &[
    "src",              // avatar-sim: the engine itself
    "../core/src",      // avatar-core: CAST policy, MOD/VPN tables, system assembly
    "../workloads/src", // avatar-workloads: trace generators + content model
    "../bpc/src",       // avatar-bpc: compression codecs
    "../baselines/src", // avatar-baselines: COLT / SnakeByte baseline TLBs
];

fn fold(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    // Every visited directory is a rerun dependency: a new file added in
    // a nested subdirectory only bumps its immediate parent's mtime, so
    // watching the top-level src/ alone would leave the baked
    // fingerprint stale.
    println!("cargo:rerun-if-changed={}", dir.display());
    let entries = fs::read_dir(dir).unwrap_or_else(|e| {
        panic!("engine fingerprint: cannot read source dir {}: {e}", dir.display())
    });
    for entry in entries {
        let entry = entry.unwrap_or_else(|e| {
            panic!("engine fingerprint: cannot list {}: {e}", dir.display())
        });
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn main() {
    let manifest =
        PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for tree in RESULT_AFFECTING_SRC {
        collect_sources(&manifest.join(tree), &mut files);
    }
    files.push(manifest.join("build.rs"));
    files.sort();

    let mut h = FNV_OFFSET;
    for path in &files {
        // Fold the manifest-relative name (`../core/src/cast.rs`), not
        // the absolute path, so the digest is checkout-location stable.
        let rel = path.strip_prefix(&manifest).unwrap_or(path);
        fold(&mut h, rel.to_string_lossy().as_bytes());
        fold(&mut h, &[0]);
        // An unreadable source file must fail the build: hashing it as
        // empty would mint a fingerprint for sources that were never seen.
        let contents = fs::read(path).unwrap_or_else(|e| {
            panic!("engine fingerprint: cannot read {}: {e}", path.display())
        });
        fold(&mut h, &(contents.len() as u64).to_le_bytes());
        fold(&mut h, &contents);
        println!("cargo:rerun-if-changed={}", path.display());
    }
    println!("cargo:rustc-env=AVATAR_ENGINE_FINGERPRINT={h:016x}");
}
