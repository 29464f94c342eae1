//! The crash-safe persistent schedule store.
//!
//! One file per compile key: `<key:016x>.rec`, holding
//! `[magic "SWST"][version u8][key u64 LE][payload length u32 LE]
//! [payload][FNV-1a of payload, u64 LE]` where the payload is the
//! standalone [`LoopOk`] encoding from the wire protocol (the shared
//! [`showdown::codec`] format) and the key is [`showdown::cache_key_with`].
//!
//! Crash safety is the classic temp-file-plus-rename protocol: a record
//! is written to a uniquely named `.tmp` file in the same directory and
//! renamed into place, so a reader can never observe a half-written
//! record under its final name. A crash mid-persist leaves only a stray
//! `.tmp`, which [`DiskStore::open`] sweeps on the next start. Whatever
//! still goes wrong on disk — truncation, bit rot, a hostile edit — is
//! caught by the magic/key/length/checksum gauntlet in
//! [`DiskStore::load`], reported as [`Lookup::Corrupt`], deleted, and
//! silently recompiled; a corrupt store entry costs one compile, never
//! an incident.
//!
//! The store reads through a memory map: a record that passed the
//! gauntlet is kept, so each record file is read and checked at most
//! once per process and every later lookup of its key is a map probe.
//! Records are immutable under their key (results are deterministic), so
//! the copy can never go stale; a file deleted or damaged after its read
//! goes on being answered from memory, exactly as the bytes were when
//! they were checked. A record this instance persists is not added: the
//! server persists only what it just compiled, and that result already
//! sits in its memory cache.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::proto::{decode_result, encode_result, LoopOk};
use showdown::codec::{fnv1a, Dec, Sink};

/// Record magic.
pub const STORE_MAGIC: [u8; 4] = *b"SWST";

/// Record format version. Version 2 keys come from the shared codec; a
/// version-1 record fails validation, so it is recompiled, never misread.
pub const STORE_VERSION: u8 = 2;

/// Process-wide counter that keeps temp names unique even when several
/// writers (or stores) target one directory.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Write `bytes` to `path` atomically: temp file in the same directory,
/// then rename. Readers of `path` see either the old content or the new,
/// never a torn write. Used by the store and by every JSON artifact the
/// experiments driver emits.
///
/// # Errors
///
/// Any underlying filesystem error; the temp file is removed best-effort
/// on failure.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_sibling(path);
    fs::write(&tmp, bytes)?;
    match fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = fs::remove_file(&tmp);
            Err(e)
        }
    }
}

fn tmp_sibling(path: &Path) -> PathBuf {
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let file = path
        .file_name()
        .map(|f| f.to_string_lossy())
        .unwrap_or_default();
    path.with_file_name(format!(".{file}.{}.{seq}.tmp", std::process::id()))
}

/// Outcome of a store lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lookup {
    /// A valid record was found.
    Hit(LoopOk),
    /// No record under this key.
    Miss,
    /// A record existed but failed validation; it has been removed and
    /// the caller recompiles.
    Corrupt,
}

/// Counters a store accumulates over its lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Lookups answered by a valid record, from its file or from memory.
    pub hits: u64,
    /// Record files read from disk (an unreadable one counts too). Each
    /// read ends as a hit or a corrupt recovery; the other hits came
    /// from memory ([`Self::memory_hits`]).
    pub reads: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Lookups that found garbage and recovered by deletion.
    pub corrupt_recovered: u64,
    /// Records persisted by this store instance.
    pub persisted: u64,
}

impl StoreStats {
    /// Hits answered from the read-through memory map, without a file
    /// read.
    pub fn memory_hits(&self) -> u64 {
        self.hits
            .saturating_sub(self.reads.saturating_sub(self.corrupt_recovered))
    }
}

/// A content-addressed on-disk result store keyed by the schedule
/// cache's compile key. All methods take `&self`; concurrent use from
/// many handler threads is safe because every write is atomic and every
/// read validates.
pub struct DiskStore {
    dir: PathBuf,
    /// Records already read and validated, by key.
    read: Mutex<HashMap<u64, LoopOk>>,
    hits: AtomicU64,
    reads: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
    persisted: AtomicU64,
    /// Chaos hook: when set, `persist` writes the temp file and then
    /// fails *without renaming* — the observable effect of a process
    /// crash between the two steps.
    pub fail_persist_after_tmp: AtomicBool,
}

impl DiskStore {
    /// Open (creating if needed) a store rooted at `dir`, sweeping any
    /// temp files a crashed predecessor left behind.
    ///
    /// # Errors
    ///
    /// Any underlying filesystem error.
    pub fn open(dir: &Path) -> io::Result<DiskStore> {
        fs::create_dir_all(dir)?;
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            if entry.file_name().to_string_lossy().ends_with(".tmp") {
                let _ = fs::remove_file(entry.path());
            }
        }
        Ok(DiskStore {
            dir: dir.to_owned(),
            read: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            persisted: AtomicU64::new(0),
            fail_persist_after_tmp: AtomicBool::new(false),
        })
    }

    /// Root directory of the store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the record for `key`.
    pub fn record_path(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.rec"))
    }

    /// Look up `key`: from memory if its record was read before, else
    /// from its file, which is then kept in memory if valid. Corrupt
    /// records are deleted on the spot (so the next lookup is a plain
    /// miss) and counted both locally and on the ambient telemetry
    /// collector.
    pub fn load(&self, key: u64) -> Lookup {
        let kept = self.read.lock().expect("store map").get(&key).cloned();
        let ok = match kept {
            Some(ok) => ok,
            None => {
                let path = self.record_path(key);
                let read = fs::read(&path);
                if matches!(&read, Err(e) if e.kind() == io::ErrorKind::NotFound) {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    return Lookup::Miss;
                }
                self.reads.fetch_add(1, Ordering::Relaxed);
                // Unreadable is indistinguishable from corrupt for our
                // purposes: recompile.
                let Some(ok) = read.ok().and_then(|b| parse_record(&b, key)) else {
                    return self.corrupt(&path);
                };
                self.read.lock().expect("store map").insert(key, ok.clone());
                ok
            }
        };
        self.hits.fetch_add(1, Ordering::Relaxed);
        swp_obs::count(swp_obs::Counter::ServeStoreHits, 1);
        Lookup::Hit(ok)
    }

    fn corrupt(&self, path: &Path) -> Lookup {
        let _ = fs::remove_file(path);
        self.corrupt.fetch_add(1, Ordering::Relaxed);
        swp_obs::count(swp_obs::Counter::ServeStoreCorruptRecovered, 1);
        Lookup::Corrupt
    }

    /// Persist `ok` under `key`. Last writer wins; concurrent writers of
    /// the same key write identical content (results are deterministic),
    /// so the race is harmless.
    ///
    /// # Errors
    ///
    /// Any underlying filesystem error — including the simulated crash
    /// when [`Self::fail_persist_after_tmp`] is set. Persist errors are
    /// non-fatal to the service: the reply was already computed.
    pub fn persist(&self, key: u64, ok: &LoopOk) -> io::Result<()> {
        let payload = encode_result(ok);
        let mut record = record_header(key);
        record.u32(payload.len() as u32);
        record.put(&payload);
        record.u64(fnv1a(&payload));
        let path = self.record_path(key);
        if self.fail_persist_after_tmp.load(Ordering::Relaxed) {
            // Simulated crash between the write and the rename: the temp
            // file exists, the record name does not.
            fs::write(tmp_sibling(&path), &record)?;
            return Err(io::Error::other("chaos: crashed before rename"));
        }
        write_atomic(&path, &record)?;
        self.persisted.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Whether a record file exists for `key` (no validation).
    pub fn contains(&self, key: u64) -> bool {
        self.record_path(key).exists()
    }

    /// Number of record files currently on disk.
    pub fn len(&self) -> usize {
        fs::read_dir(&self.dir)
            .map(|rd| {
                rd.filter_map(Result::ok)
                    .filter(|e| e.file_name().to_string_lossy().ends_with(".rec"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            corrupt_recovered: self.corrupt.load(Ordering::Relaxed),
            persisted: self.persisted.load(Ordering::Relaxed),
        }
    }
}

/// A record's fixed prefix: magic, version and key.
fn record_header(key: u64) -> Vec<u8> {
    let mut header = STORE_MAGIC.to_vec();
    header.u8(STORE_VERSION);
    header.u64(key);
    header
}

/// Validate and decode one record. `None` means corrupt — any framing,
/// key, length, checksum, or payload defect.
fn parse_record(bytes: &[u8], key: u64) -> Option<LoopOk> {
    let mut d = Dec::new(bytes.strip_prefix(record_header(key).as_slice())?);
    let len = d.u32("len").ok()? as usize;
    let payload = d.take(len, "payload").ok()?;
    let sum = d.u64("sum").ok()?;
    d.finish().ok()?;
    (fnv1a(payload) == sum).then(|| decode_result(payload).ok())?
}
