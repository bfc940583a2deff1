//! Disk persistence for the realization caches.
//!
//! The cache file is a versioned binary snapshot of every per-configuration
//! cache the daemon holds. Entries are only reusable under the exact
//! configuration fingerprint they were computed with ([`CacheKey`]), so the
//! file stores one *section* per fingerprint and a loader only feeds each
//! section to the cache created for that same fingerprint.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic      8 bytes   b"TELSRC\0\0"
//! version    u32       bumped whenever the layout or entry semantics change
//! sections   u32
//! per section:
//!   fingerprint  5 × u64   CacheKey::encode()
//!   entries      u64
//!   per entry:
//!     key_words  u32
//!     key        key_words × u64
//!     tag        u8          0 = not a threshold function, 1 = realization
//!     if tag == 1:
//!       weights  u32, then that many i64
//!       threshold i64
//! ```
//!
//! A key is a canonical signature (`key[0]` is its support size, at most
//! 64), and a realization carries exactly `key[0]` weights. A file with
//! the wrong magic, an unknown version, a truncated body, or an entry that
//! breaks those invariants is *rejected* with a descriptive
//! [`PersistError`] — never a panic and never a partial load. Files of
//! earlier versions are rejected too (not migrated): the caches are a pure
//! performance artifact, so "delete and start fresh" is always safe. Saves
//! go through a temp file + rename so a crash mid-save (or a concurrent
//! reader) never observes a half-written file.

use std::fs;
use std::io::{self, Write};
use std::path::Path;

use tels_core::{CacheKey, CanonicalRealization, RealizationCache};

/// File signature.
pub const MAGIC: &[u8; 8] = b"TELSRC\0\0";

/// Current layout version. Bumped 1 → 2 when sections gained a tier-0.5
/// negative-cache entry list, and 2 → 3 when that list was dropped again.
pub const VERSION: u32 = 3;

/// Why a cache file could not be loaded.
#[derive(Debug)]
pub enum PersistError {
    /// The file could not be read or written.
    Io(io::Error),
    /// The file does not start with [`MAGIC`] — not a cache file.
    BadMagic,
    /// The file is a cache file from an incompatible layout version.
    BadVersion {
        /// Version found in the file header.
        found: u32,
    },
    /// The body is truncated or internally inconsistent.
    Corrupt(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "cache file i/o error: {e}"),
            PersistError::BadMagic => write!(f, "not a tels cache file (bad magic)"),
            PersistError::BadVersion { found } => write!(
                f,
                "cache file version {found} is not supported (expected {VERSION}); \
                 delete the file to start fresh"
            ),
            PersistError::Corrupt(what) => write!(f, "cache file is corrupt: {what}"),
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> PersistError {
        PersistError::Io(e)
    }
}

/// One persisted section: a configuration fingerprint and its realization
/// entries.
pub type Section = (CacheKey, Vec<(Vec<u64>, Option<CanonicalRealization>)>);

/// Serializes cache sections to `path` atomically (temp file + rename).
/// Returns the total number of entries written. Snapshots are taken here,
/// so callers may keep inserting into the caches concurrently.
pub fn save(path: &Path, sections: &[(CacheKey, &RealizationCache)]) -> io::Result<usize> {
    let mut body: Vec<u8> = Vec::new();
    body.extend_from_slice(MAGIC);
    body.extend_from_slice(&VERSION.to_le_bytes());
    body.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    let mut total = 0usize;
    for (fingerprint, cache) in sections {
        for word in fingerprint.encode() {
            body.extend_from_slice(&word.to_le_bytes());
        }
        let entries = cache.snapshot();
        body.extend_from_slice(&(entries.len() as u64).to_le_bytes());
        total += entries.len();
        for (key, value) in entries {
            body.extend_from_slice(&(key.len() as u32).to_le_bytes());
            for word in &key {
                body.extend_from_slice(&word.to_le_bytes());
            }
            match value {
                None => body.push(0),
                Some(real) => {
                    body.push(1);
                    body.extend_from_slice(&(real.weights.len() as u32).to_le_bytes());
                    for w in &real.weights {
                        body.extend_from_slice(&w.to_le_bytes());
                    }
                    body.extend_from_slice(&real.threshold.to_le_bytes());
                }
            }
        }
    }
    // Atomic replace: a crash mid-write leaves the old file intact, and a
    // concurrent load never sees a torn body.
    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&body)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    Ok(total)
}

/// Smallest encoded section: a 5-word fingerprint plus the entry count,
/// all 8 bytes wide.
const MIN_SECTION_BYTES: usize = 6 * 8;

/// Widest support a canonical signature can describe (one bit per
/// variable in each 64-bit cube word).
const MAX_SUPPORT: u64 = 64;

/// Largest element count any `Vec` is preallocated for while loading.
/// Counts are bounded by the file size first, but a large file can still
/// claim far more elements than it will turn out to hold, so vectors grow
/// past this only as their elements actually parse.
const PREALLOC_CAP: usize = 1 << 16;

/// A bounds-checked little-endian cursor over the file body.
struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], PersistError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.data.len())
            .ok_or_else(|| PersistError::Corrupt(format!("truncated while reading {what}")))?;
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self, what: &str) -> Result<u8, PersistError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &str) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn i64(&mut self, what: &str) -> Result<i64, PersistError> {
        Ok(i64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }
}

/// Loads a cache file, validating magic, version, and body integrity.
pub fn load(path: &Path) -> Result<Vec<Section>, PersistError> {
    let data = fs::read(path)?;
    let mut c = Cursor {
        data: &data,
        pos: 0,
    };
    if c.take(MAGIC.len(), "magic")? != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = c.u32("version")?;
    if version != VERSION {
        return Err(PersistError::BadVersion { found: version });
    }
    let sections = c.u32("section count")? as usize;
    if sections > (data.len() - c.pos) / MIN_SECTION_BYTES {
        return Err(PersistError::Corrupt(format!(
            "section count {sections} exceeds file size"
        )));
    }
    let mut out: Vec<Section> = Vec::with_capacity(sections.min(PREALLOC_CAP));
    for _ in 0..sections {
        let mut words = [0u64; 5];
        for w in &mut words {
            *w = c.u64("fingerprint")?;
        }
        let fingerprint = CacheKey::decode(words);
        let count = c.u64("entry count")?;
        // Each entry is at least key_words(4) + tag(1) bytes; reject counts
        // the remaining body cannot possibly hold before allocating.
        if count > (data.len() - c.pos) as u64 {
            return Err(PersistError::Corrupt(format!(
                "entry count {count} exceeds file size"
            )));
        }
        let mut entries = Vec::with_capacity((count as usize).min(PREALLOC_CAP));
        for _ in 0..count {
            let key_words = c.u32("key length")? as usize;
            let mut key = Vec::with_capacity(key_words.min(PREALLOC_CAP));
            for _ in 0..key_words {
                key.push(c.u64("key word")?);
            }
            let support = match key.first() {
                Some(&k) if k <= MAX_SUPPORT => k,
                Some(&k) => {
                    return Err(PersistError::Corrupt(format!(
                        "key support {k} exceeds {MAX_SUPPORT}"
                    )));
                }
                None => return Err(PersistError::Corrupt("empty entry key".into())),
            };
            let value = match c.u8("entry tag")? {
                0 => None,
                1 => {
                    let n = c.u32("weight count")? as usize;
                    if n as u64 != support {
                        return Err(PersistError::Corrupt(format!(
                            "{n} weights for a support-{support} key"
                        )));
                    }
                    let mut weights = Vec::with_capacity(n.min(PREALLOC_CAP));
                    for _ in 0..n {
                        weights.push(c.i64("weight")?);
                    }
                    let threshold = c.i64("threshold")?;
                    Some(CanonicalRealization { weights, threshold })
                }
                tag => {
                    return Err(PersistError::Corrupt(format!("unknown entry tag {tag}")));
                }
            };
            entries.push((key, value));
        }
        out.push((fingerprint, entries));
    }
    if c.pos != data.len() {
        return Err(PersistError::Corrupt(format!(
            "{} trailing bytes after last section",
            data.len() - c.pos
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tels_core::TelsConfig;

    fn sample_cache() -> RealizationCache {
        let cache = RealizationCache::new();
        cache.insert(
            vec![2, 0b01, 0b10],
            Some(CanonicalRealization {
                weights: vec![1, 1],
                threshold: 1,
            }),
        );
        cache.insert(vec![3, 0b001, 0b010, 0b100], None);
        cache.insert(
            vec![1, 0b1],
            Some(CanonicalRealization {
                weights: vec![1],
                threshold: 1,
            }),
        );
        cache
    }

    fn tmp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("tels-persist-{name}-{}", std::process::id()))
    }

    #[test]
    fn roundtrip_preserves_entries() {
        let cache = sample_cache();
        let key = TelsConfig::default().cache_key();
        let path = tmp_path("roundtrip");
        save(&path, &[(key, &cache)]).unwrap();
        let sections = load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(sections.len(), 1);
        assert_eq!(sections[0].0, key);
        assert_eq!(sections[0].1, cache.snapshot());
    }

    #[test]
    fn wrong_magic_rejected() {
        let path = tmp_path("magic");
        std::fs::write(&path, b"NOTACACHEFILE").unwrap();
        let err = load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, PersistError::BadMagic), "{err}");
    }

    #[test]
    fn wrong_version_rejected() {
        let cache = sample_cache();
        let key = TelsConfig::default().cache_key();
        let path = tmp_path("version");
        save(&path, &[(key, &cache)]).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&(VERSION + 7).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(
            matches!(err, PersistError::BadVersion { found } if found == VERSION + 7),
            "{err}"
        );
    }

    #[test]
    fn version_one_files_rejected() {
        // Version-1 sections lack the negative entry list that version-2
        // sections carry and version 3 dropped again; the loader must
        // refuse both outright rather than misparse the body.
        let cache = sample_cache();
        let key = TelsConfig::default().cache_key();
        let path = tmp_path("v1");
        save(&path, &[(key, &cache)]).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        for old in [1u32, 2] {
            bytes[8..12].copy_from_slice(&old.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            let err = load(&path).unwrap_err();
            assert!(
                matches!(err, PersistError::BadVersion { found } if found == old),
                "{err}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn entries_breaking_key_invariants_rejected() {
        // Each file is well-formed byte for byte, but one entry could not
        // have come from a canonical signature. The zero-weight realization
        // once loaded and then panicked the daemon's first matching query.
        let bad_entries = [
            (
                vec![2, 0b01, 0b10],
                Some(CanonicalRealization {
                    weights: vec![],
                    threshold: 1,
                }),
            ),
            (vec![], None),
            (vec![65, 1], None),
        ];
        let key = TelsConfig::default().cache_key();
        let path = tmp_path("invariants");
        for (entry_key, value) in bad_entries {
            let cache = sample_cache();
            cache.insert(entry_key.clone(), value);
            save(&path, &[(key, &cache)]).unwrap();
            let err = load(&path).unwrap_err();
            assert!(
                matches!(err, PersistError::Corrupt(_)),
                "{entry_key:?}: {err}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_body_rejected() {
        let cache = sample_cache();
        let key = TelsConfig::default().cache_key();
        let path = tmp_path("trunc");
        save(&path, &[(key, &cache)]).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for cut in [bytes.len() - 1, bytes.len() / 2, 13] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(
                matches!(load(&path), Err(PersistError::Corrupt(_))),
                "cut at {cut} must be rejected as corrupt"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn huge_section_count_rejected_without_allocating() {
        // Magic, version, then a section count of u32::MAX: 16 bytes that
        // once made the loader preallocate hundreds of gigabytes and abort.
        let path = tmp_path("sections");
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, PersistError::Corrupt(_)), "{err}");
    }

    #[test]
    fn trailing_garbage_rejected() {
        let cache = sample_cache();
        let key = TelsConfig::default().cache_key();
        let path = tmp_path("trailing");
        save(&path, &[(key, &cache)]).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"extra");
        std::fs::write(&path, &bytes).unwrap();
        let err = load(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, PersistError::Corrupt(_)), "{err}");
    }
}
