//! Persistent content-addressed evaluation store.
//!
//! The bottom tier of the driver's cache hierarchy (see [`crate::driver`]):
//! a directory of append-only segment files whose records are keyed by a
//! 128-bit FNV-1a hash over the *serialized content* of everything an
//! evaluation depends on — the IR module, both cost models, the
//! [`CompilerConfig`](crate::CompilerConfig), and [`STORE_FORMAT_VERSION`].
//! Because the key commits to the inputs rather than to names or paths, a
//! store can never serve a stale result: any change to the module, the
//! cost models, or the on-disk format lands on a different key and reads
//! as a cold miss. Infeasible configurations are persisted too (as
//! explicit `null` evaluations), so a warm process does not re-discover
//! known-bad genomes. The design is Bitcask's (Sheehy & Smith, Basho
//! 2010) over a segmented log as in LFS (Rosenblum & Ousterhout, SOSP
//! 1991).
//!
//! # Layout: checksummed records in append-only segments
//!
//! ```text
//! <root>/{time:016x}-{pid:08x}-{n}.seg   one segment: records back to back
//! record = checksum u64 | kind u8 | key u128 | length u32 | payload   (little-endian)
//! ```
//!
//! A record is an evaluation manifest, a leakage score, a compiled
//! function blob or a globals blob; its payload is that entry's compact
//! JSON and its checksum a 64-bit hash of everything after the checksum.
//! Distinct configurations mostly compile byte-identical functions (a
//! camera-pill + SpaceWire store references 315 distinct functions 10,030
//! times), so an evaluation manifest holds only the [`ModuleMetrics`], the
//! globals blob's hash and the `(function name, blob hash)` list; the
//! program text lives in blobs keyed by the FNV-1a-128 of their own
//! payload and shared by every manifest that uses them.
//!
//! # Reading: an index of headers, a manifest per probe, blobs on demand
//!
//! [`DiskStore::open`] reads the header of every record into an in-memory
//! index from `(kind, key)` to each copy's segment, offset and length; it
//! keeps no payload. A segment's scan stops at a record cut short (the
//! torn tail a crash leaves). Reading an entry is one positioned read of
//! its manifest, a checksum and a decode with the vendored `serde`
//! reader, which builds no intermediate tree and gives up past 128
//! nested containers; each blob the manifest names must be in the index,
//! a lookup rather than a read. That gives the metrics, which is all a
//! search's objectives need. Assembling the program reads the blobs, and
//! happens only when something asks for it: a warm search assembles the
//! programs of its front variants and no other. [`DiskStore::load`] does
//! both steps in turn.
//!
//! A copy that fails its checksum or does not decode — for a manifest,
//! also one naming a blob the index lacks — is dropped from the handle's
//! index and the next copy is tried, so a damaged record never shadows a
//! good copy appended later. With no copy left the read is a cold miss:
//! never a wrong program, never a crash. A program whose blob has no good
//! copy left fails to assemble, and its entry counts as a corrupt miss.
//! Each handle memoizes the blobs it has decoded, so one handle parses
//! each distinct function once, however many programs it assembles.
//!
//! # Writing: one segment per handle, blobs before the manifest
//!
//! A handle creates its segment on its first write (a warm run that only
//! reads creates none) under a name nothing else uses, and holds an
//! exclusive lock on it while it lives. Each record lands with one
//! `write_all`, so a handle opened afterwards sees every whole record.
//! A write appends each blob its index lacks *before* the manifest and
//! skips the manifest when a blob append failed, so a manifest only
//! names blobs that were in the log when it landed. Each blob comes with
//! a cell for its name: an [`EvalCache`](crate::EvalCache) passes its
//! compile memo's, so it serializes each distinct function once (again
//! only if the index drops the blob as damaged), and
//! [`DiskStore::store`] passes fresh ones. All disk traffic is
//! best-effort: a failed append is counted and cut back off the segment,
//! and a segment that cannot be cut back is abandoned for a new one.
//! Handles and processes never share a segment; the worst outcome of a
//! race is a redundant compile and a duplicate record.
//!
//! # Compaction
//!
//! A segment is sealed once no live handle holds its lock. When `open`
//! finds the sealed segments over their byte budget (256 MiB), or more
//! than 64 of them (each handle keeps one descriptor per segment), it
//! copies the first good copy of every record still wanted into a fresh
//! file, renames that over the oldest sealed segment and deletes the
//! others. Duplicates, damaged records and blobs no manifest names are
//! left behind, and so, past half the budget, are the oldest manifests
//! and scores, with the blobs only they named. A segment that a live
//! handle holds is never touched.

use crate::compile_memo::FxHasher;
use crate::driver::{CachedEval, ModuleMetrics};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fs::{self, File, OpenOptions};
use std::hash::Hasher;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};
use teamplay_isa::{Function, Program};

/// Version stamp mixed into every store key. Bump when the serialized
/// entry layout (or the meaning of any hashed input) changes: old
/// entries then simply stop matching instead of deserializing wrongly.
///
/// Version history: 1 — evaluation entries only; 2 — the secure search
/// added leakage-score entries ([`DiskStore::store_score`]) and stored
/// evals can now originate from ladderised IR, so every key moved;
/// 3 — codegen gained copy coalescing and value-graph loop bounds, and
/// the genome grew `gvn`/`load_fwd` genes, so cached metrics for equal
/// keys would no longer match what the compiler now produces;
/// 4 — evaluation entries became manifests over content-addressed
/// function and globals blobs; 5 — entries and blobs moved from a file
/// each into checksummed records of append-only segments (payloads
/// unchanged; directories of earlier versions are not read).
pub const STORE_FORMAT_VERSION: u32 = 5;

/// FNV-1a 128-bit offset basis.
const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// FNV-1a 128-bit prime.
const FNV_PRIME: u128 = 0x0000000001000000000000000000013B;

/// Fold `bytes` into a running FNV-1a-128 hash. Seed the first call
/// with [`fnv_offset`]; chain later calls from the previous result so
/// compound keys (model prefix, then per-config suffix) need not
/// re-serialize their shared prefix.
pub(crate) fn fnv1a128(mut hash: u128, bytes: &[u8]) -> u128 {
    for &b in bytes {
        hash ^= u128::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The FNV-1a-128 offset basis (the seed for a fresh hash chain).
pub(crate) fn fnv_offset() -> u128 {
    FNV_OFFSET
}

/// Hash a serializable value into a running FNV-1a-128 chain via its
/// compact JSON rendering. The vendored serde writes hash maps in key
/// order and floats in shortest round-trip form, so equal values hash
/// equally across processes.
pub(crate) fn hash_json<T: Serialize>(hash: u128, value: &T) -> u128 {
    let text = serde_json::to_string(value).expect("serializable value");
    fnv1a128(hash, text.as_bytes())
}

/// A program's initialised globals, stored as one blob.
pub(crate) type Globals = BTreeMap<String, Vec<i32>>;

/// On-disk evaluation manifest. `eval: None` records an infeasible
/// configuration (codegen or analysis failed) — serving it from disk
/// skips the whole compile-and-fail path.
#[derive(Serialize, Deserialize)]
struct Manifest {
    eval: Option<ManifestEval>,
}

/// A feasible evaluation: its metrics plus the blobs its program is
/// assembled from. Hashes are 32-digit lowercase hex.
#[derive(Serialize, Deserialize)]
struct ManifestEval {
    metrics: ModuleMetrics,
    globals: String,
    functions: Vec<(String, String)>,
}

/// The blobs a feasible entry's program is assembled from
/// ([`DiskStore::assemble`]), each in the handle's index when its
/// manifest was read.
#[derive(Debug)]
pub(crate) struct ProgramBlobs {
    globals: u128,
    functions: Vec<(String, u128)>,
}

impl ManifestEval {
    /// The blobs this evaluation names (hashes that are not hex name none).
    fn blobs(&self) -> impl Iterator<Item = Slot> + '_ {
        let globals = std::iter::once((Kind::Globals, &self.globals));
        let functions = self
            .functions
            .iter()
            .map(|(_, hash)| (Kind::Function, hash));
        globals
            .chain(functions)
            .filter_map(|(kind, hash)| Some((kind, u128::from_str_radix(hash, 16).ok()?)))
    }
}

/// On-disk entry: one memoized leakage score of the secure search.
/// `score: None` records a variant whose measurement rig trapped —
/// persisted so a warm process skips the failing simulation too.
#[derive(Serialize, Deserialize)]
struct StoredScore {
    score: Option<f64>,
}

/// Sealed-segment bytes past which `open` compacts; a compaction keeps
/// at most half as many.
const SEGMENT_BUDGET: u64 = 256 << 20;
/// Sealed segments past which `open` compacts whatever their size.
const SEALED_SEGMENTS_MAX: usize = 64;
/// Extension of segment files.
const SEGMENT_EXT: &str = "seg";
/// Extension of a compaction's output until it is renamed into place.
const COMPACTING_EXT: &str = "tmp";

/// What a record holds; its discriminant is the kind byte on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Kind {
    Manifest = 1,
    Score = 2,
    Function = 3,
    Globals = 4,
}

/// A record's identity: its kind and its key (a blob's content hash).
type Slot = (Kind, u128);

/// Bytes of a record header: checksum, kind, key and payload length.
const HEADER: usize = 8 + 1 + 16 + 4;

/// `payload` framed as a record of `slot`; `None` when it is too long
/// for the length field.
fn record((kind, key): Slot, payload: &[u8]) -> Option<Vec<u8>> {
    let len = u32::try_from(payload.len()).ok()?;
    let mut bytes = Vec::with_capacity(HEADER + payload.len());
    bytes.extend_from_slice(&[0; 8]);
    bytes.push(kind as u8);
    bytes.extend_from_slice(&key.to_le_bytes());
    bytes.extend_from_slice(&len.to_le_bytes());
    bytes.extend_from_slice(payload);
    let sum = checksum(&bytes[8..]);
    bytes[..8].copy_from_slice(&sum.to_le_bytes());
    Some(bytes)
}

/// The slot and payload length a header names; `None` when its kind
/// byte names no kind.
fn header(head: &[u8; HEADER]) -> Option<(Slot, u32)> {
    let kinds = [Kind::Manifest, Kind::Score, Kind::Function, Kind::Globals];
    let kind = kinds.into_iter().find(|&kind| kind as u8 == head[8])?;
    let key = u128::from_le_bytes(head[9..25].try_into().expect("sixteen bytes"));
    let len = u32::from_le_bytes(head[25..].try_into().expect("four bytes"));
    Some(((kind, key), len))
}

/// A record's checksum: the crate's word-at-a-time [`FxHasher`] over
/// everything after the checksum field. Each step is a bijection of the
/// 64-bit state, so damage confined to one aligned eight-byte word is
/// always caught, and wider damage slips through with odds near 2^-64.
fn checksum(bytes: &[u8]) -> u64 {
    let mut hasher = FxHasher::default();
    hasher.write(bytes);
    hasher.finish()
}

/// Whether `record` is a whole record whose checksum holds.
fn intact(record: &[u8]) -> bool {
    record.len() >= HEADER && checksum(&record[8..]).to_le_bytes() == record[..8]
}

/// Where one copy of a record lies: an index into its log's segment
/// files, its offset and its length, header included.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Loc {
    segment: usize,
    offset: u64,
    len: u64,
}

/// Segment files and the index of the records in them.
#[derive(Debug, Default)]
struct Log {
    files: Vec<File>,
    /// Every known copy of each record, in scan and append order.
    index: HashMap<Slot, Vec<Loc>>,
    /// This handle's own segment (an index into `files`) and the end of
    /// its last whole record.
    writer: Option<(usize, u64)>,
    /// Records found cut short at a segment's end.
    torn: u64,
}

impl Log {
    /// The log of every segment under `root`.
    fn scan(root: &Path) -> Log {
        let mut log = Log::default();
        for path in segment_paths(root) {
            // A compaction may have deleted it since the listing.
            if let Ok(file) = File::open(&path) {
                log.add(file);
            }
        }
        log
    }

    /// Index the records of `file` up to the first one cut short; keep
    /// the file when it holds any.
    fn add(&mut self, file: File) {
        let segment = self.files.len();
        let end = file.metadata().map_or(0, |m| m.len());
        let mut reader = BufReader::with_capacity(1 << 16, &file);
        let mut offset = 0;
        while offset < end {
            let mut head = [0; HEADER];
            let whole = reader
                .read_exact(&mut head)
                .ok()
                .and_then(|()| header(&head))
                .filter(|&(_, len)| HEADER as u64 + u64::from(len) <= end - offset);
            let Some((slot, len)) = whole else {
                self.torn += 1;
                break;
            };
            if reader.seek_relative(i64::from(len)).is_err() {
                break;
            }
            let len = HEADER as u64 + u64::from(len);
            let copy = Loc {
                segment,
                offset,
                len,
            };
            self.index.entry(slot).or_default().push(copy);
            offset += len;
        }
        if offset > 0 {
            self.files.push(file);
        }
    }

    /// The copy at `loc` when it reads whole and its checksum holds.
    fn read(&self, loc: &Loc) -> Option<Vec<u8>> {
        let mut file = &self.files[loc.segment];
        let mut record = vec![0; usize::try_from(loc.len).ok()?];
        file.seek(SeekFrom::Start(loc.offset)).ok()?;
        file.read_exact(&mut record).ok()?;
        intact(&record).then_some(record)
    }

    /// The first copy of `slot` that reads whole and passes its checksum.
    fn first_good(&self, slot: &Slot) -> Option<Vec<u8>> {
        self.index.get(slot)?.iter().find_map(|loc| self.read(loc))
    }

    /// Append `record` under `slot` to this handle's segment, created
    /// under `root` on first use, through `write`. A failed write is cut
    /// back off the segment; a segment that cannot be cut back is
    /// abandoned, so the next append starts a new one.
    fn append(
        &mut self,
        root: &Path,
        slot: Slot,
        record: &[u8],
        write: impl FnOnce(&File, &[u8]) -> io::Result<()>,
    ) -> io::Result<()> {
        let (segment, end) = match self.writer {
            Some(writer) => writer,
            None => {
                self.files.push(new_segment(root)?);
                (self.files.len() - 1, 0)
            }
        };
        let file = &self.files[segment];
        if let Err(e) = write(file, record) {
            self.writer = file.set_len(end).is_ok().then_some((segment, end));
            return Err(e);
        }
        let len = record.len() as u64;
        self.writer = Some((segment, end + len));
        let copy = Loc {
            segment,
            offset: end,
            len,
        };
        self.index.entry(slot).or_default().push(copy);
        Ok(())
    }
}

/// The segment files under `root`, oldest name first.
fn segment_paths(root: &Path) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = fs::read_dir(root)
        .into_iter()
        .flatten()
        .filter_map(|entry| Some(entry.ok()?.path()))
        .filter(|path| path.extension().and_then(|x| x.to_str()) == Some(SEGMENT_EXT))
        .collect();
    paths.sort();
    paths
}

/// Create a file under `root` with extension `ext` and a name nothing
/// else uses (creation time, process id and a collision count), open to
/// read and append.
fn fresh_file(root: &Path, ext: &str) -> io::Result<(PathBuf, File)> {
    let time = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |t| u64::try_from(t.as_nanos()).unwrap_or(u64::MAX));
    let mut attempt = 0u32;
    loop {
        let name = format!("{time:016x}-{:08x}-{attempt}.{ext}", std::process::id());
        let path = root.join(name);
        match OpenOptions::new()
            .read(true)
            .append(true)
            .create_new(true)
            .open(&path)
        {
            Ok(file) => return Ok((path, file)),
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => attempt += 1,
            Err(e) => return Err(e),
        }
    }
}

/// A new segment, locked for the handle's lifetime. A compaction
/// skips empty segments, so it never takes one between its creation and
/// this lock.
fn new_segment(root: &Path) -> io::Result<File> {
    let (_, file) = fresh_file(root, SEGMENT_EXT)?;
    file.lock()?;
    Ok(file)
}

/// Compact the sealed segments under `root` when they hold more than
/// `budget` bytes or number more than `SEALED_SEGMENTS_MAX` (see the
/// module docs). Returns whether it compacted.
fn compact(root: &Path, budget: u64) -> io::Result<bool> {
    // Every sealed segment stays locked until the compaction ends, so no
    // other compaction takes it; a segment a live handle holds fails
    // `try_lock` and is left alone.
    let mut sealed = Vec::new();
    for path in segment_paths(root) {
        let Ok(file) = File::open(&path) else {
            continue;
        };
        let len = file.metadata()?.len();
        if len > 0 && file.try_lock().is_ok() {
            sealed.push((path, file, len));
        }
    }
    let bytes: u64 = sealed.iter().map(|&(_, _, len)| len).sum();
    if bytes <= budget && sealed.len() <= SEALED_SEGMENTS_MAX {
        return Ok(false);
    }
    let mut log = Log::default();
    let mut paths = Vec::new();
    for (path, file, _) in sealed {
        log.add(file);
        paths.push(path);
    }

    // Entries newest first, each with the blobs it names that are not
    // kept yet, while they fit in half the budget.
    let mut order: Vec<(Loc, Slot)> = log
        .index
        .iter()
        .map(|(slot, copies)| (copies[0], *slot))
        .collect();
    order.sort_by_key(|(loc, _)| (loc.segment, loc.offset));
    let mut kept = HashSet::new();
    let mut room = budget / 2;
    for (loc, slot) in order.iter().rev() {
        let named: Vec<Slot> = match slot.0 {
            Kind::Function | Kind::Globals => continue,
            Kind::Score => Vec::new(),
            Kind::Manifest => {
                let manifest = log
                    .first_good(slot)
                    .and_then(|record| parse::<Manifest>(&record[HEADER..]));
                let Some(manifest) = manifest else {
                    continue;
                };
                manifest.eval.iter().flat_map(ManifestEval::blobs).collect()
            }
        };
        let blobs: HashSet<Slot> = named
            .into_iter()
            .filter(|blob| log.index.contains_key(blob) && !kept.contains(blob))
            .collect();
        let cost = loc.len + blobs.iter().map(|blob| log.index[blob][0].len).sum::<u64>();
        if cost > room {
            break;
        }
        room -= cost;
        kept.insert(*slot);
        kept.extend(blobs);
    }

    // The output replaces the oldest sealed segment; with nothing kept
    // there is no output, and every sealed segment goes.
    let mut stale = &paths[..];
    if !kept.is_empty() {
        let (tmp, out) = fresh_file(root, COMPACTING_EXT)?;
        let landed =
            write_kept(&log, &order, &kept, &out).and_then(|()| fs::rename(&tmp, &paths[0]));
        if let Err(e) = landed {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        stale = &paths[1..];
    }
    for path in stale {
        let _ = fs::remove_file(path);
    }
    // Make the rename and the deletions durable.
    if let Ok(dir) = File::open(root) {
        let _ = dir.sync_all();
    }
    Ok(true)
}

/// Write the first good copy of every `kept` record, in log order, to
/// `out`, and sync it.
fn write_kept(
    log: &Log,
    order: &[(Loc, Slot)],
    kept: &HashSet<Slot>,
    out: &File,
) -> io::Result<()> {
    let mut writer = BufWriter::new(out);
    for (_, slot) in order.iter().filter(|(_, slot)| kept.contains(slot)) {
        if let Some(record) = log.first_good(slot) {
            writer.write_all(&record)?;
        }
    }
    writer.flush()?;
    out.sync_all()
}

/// Traffic counters of one [`DiskStore`] handle (see
/// [`DiskStore::stats`]). Loads count evaluation and score probes alike.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Entry probes: manifests and scores looked up.
    pub loads: u64,
    /// Probes answered from disk (feasible, infeasible or a score). A
    /// feasible entry whose program later fails to assemble moves from
    /// here to `corrupt_misses`.
    pub hits: u64,
    /// Probes that found an entry but missed because it failed its
    /// checksum, did not decode or named a blob missing from the index,
    /// and entries whose program failed to assemble because a blob
    /// failed its checksum or did not decode. Absent entries are
    /// `loads - hits - corrupt_misses`.
    pub corrupt_misses: u64,
    /// Record bytes (headers included) read from segments: manifests,
    /// scores and the blobs of assembled programs.
    pub bytes_read: u64,
    /// Record bytes (headers included) appended to segments.
    pub bytes_written: u64,
    /// Blob records read, checked and parsed (only when a program is
    /// assembled).
    pub blobs_decoded: u64,
    /// Blob references of assembled programs served from the handle's
    /// decoded-blob memo.
    pub blob_memo_hits: u64,
    /// Programs assembled from their blobs. A warm search assembles only
    /// the programs of its front variants: the metrics of every other
    /// entry come from its manifest alone.
    pub programs_assembled: u64,
    /// Appends that failed (and were cut back off their segment).
    pub write_failures: u64,
    /// Records found cut short at a segment's end when the handle
    /// opened, or failing their checksum when read.
    pub torn_records: u64,
    /// Compactions the handle ran when it opened (0 or 1).
    pub compactions: u64,
}

/// What a store occupies on disk (a diagnostic directory scan).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreFootprint {
    /// Evaluation and score entries with a whole record.
    pub entries: usize,
    /// Function and globals blobs with a whole record.
    pub blobs: usize,
    /// Segment files.
    pub segments: usize,
    /// Bytes of all segment files.
    pub bytes: u64,
}

/// Blobs of one kind decoded from disk, by content hash.
type Decoded<T> = Mutex<HashMap<u128, Arc<T>>>;

/// A blob to write: the cell holding its name once known, and its value.
pub(crate) type Blob<'e, T> = (&'e OnceLock<u128>, &'e T);

/// A feasible evaluation to write: its metrics, its globals and its
/// functions by name, in program order.
pub(crate) type Entry<'e> = (
    &'e ModuleMetrics,
    Blob<'e, Globals>,
    Vec<(&'e str, Blob<'e, Function>)>,
);

/// A content-addressed log of evaluation results shared across
/// processes. See the module docs for the layout, keying and corruption
/// semantics.
#[derive(Debug)]
pub struct DiskStore {
    root: PathBuf,
    log: Mutex<Log>,
    functions: Decoded<Function>,
    globals: Decoded<Globals>,
    stats: Mutex<StoreStats>,
}

impl DiskStore {
    /// Open (creating if needed) a store rooted at `path`, compacting
    /// its sealed segments first when they are over budget.
    ///
    /// # Errors
    /// Propagates the I/O error when the directory cannot be created.
    pub fn open(path: impl AsRef<Path>) -> io::Result<DiskStore> {
        DiskStore::with_budget(path, SEGMENT_BUDGET)
    }

    /// [`DiskStore::open`] with a compaction budget of `budget` bytes.
    pub(crate) fn with_budget(path: impl AsRef<Path>, budget: u64) -> io::Result<DiskStore> {
        let root = path.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        // Best effort, like every write: a failed compaction removes its
        // own output and leaves the segments as they were.
        let compacted = compact(&root, budget).unwrap_or(false);
        let log = Log::scan(&root);
        let stats = StoreStats {
            torn_records: log.torn,
            compactions: u64::from(compacted),
            ..StoreStats::default()
        };
        Ok(DiskStore {
            root,
            log: Mutex::new(log),
            functions: Mutex::default(),
            globals: Mutex::default(),
            stats: Mutex::new(stats),
        })
    }

    /// The store's root directory.
    pub fn path(&self) -> &Path {
        &self.root
    }

    /// Number of evaluation and score entries on disk (a diagnostic,
    /// not a fast path; blobs are not entries).
    pub fn entries(&self) -> usize {
        self.footprint().entries
    }

    /// Entries, blobs, segments and bytes on disk (a diagnostic rescan
    /// of every segment's headers).
    pub fn footprint(&self) -> StoreFootprint {
        let mut footprint = StoreFootprint::default();
        let mut log = Log::default();
        for path in segment_paths(&self.root) {
            let Ok(file) = File::open(&path) else {
                continue;
            };
            footprint.segments += 1;
            footprint.bytes += file.metadata().map_or(0, |m| m.len());
            log.add(file);
        }
        for (kind, _) in log.index.keys() {
            match kind {
                Kind::Manifest | Kind::Score => footprint.entries += 1,
                Kind::Function | Kind::Globals => footprint.blobs += 1,
            }
        }
        footprint
    }

    /// This handle's traffic counters so far.
    pub fn stats(&self) -> StoreStats {
        *self.stats.lock().expect("store stats lock")
    }

    fn bump(&self, update: impl FnOnce(&mut StoreStats)) {
        update(&mut self.stats.lock().expect("store stats lock"));
    }

    /// Load the entry for `key` with its program: read and check the
    /// manifest, then assemble the program from its blobs (the two steps
    /// an [`EvalCache`](crate::EvalCache) disk hit takes apart). Outer
    /// `None` means absent (or damaged, or naming a missing or damaged
    /// blob — all behave as a cold miss); inner `None` is a *recorded*
    /// infeasible configuration.
    pub fn load(&self, key: u128) -> Option<Option<CachedEval>> {
        match self.read_entry(key)? {
            None => Some(None),
            Some((metrics, blobs)) => {
                let program = self.assemble(&blobs)?;
                Some(Some((Arc::new(program), metrics)))
            }
        }
    }

    /// Read, check and parse the manifest for `key`: the metrics and the
    /// blobs of the program, without reading a blob (each need only be
    /// in the index). Outer `None` means absent or damaged (a manifest
    /// naming an unknown blob included); inner `None` is a *recorded*
    /// infeasible configuration.
    pub(crate) fn read_entry(&self, key: u128) -> Option<Option<(ModuleMetrics, ProgramBlobs)>> {
        self.bump(|s| s.loads += 1);
        let loaded = self.read((Kind::Manifest, key), |payload| {
            parse::<Manifest>(payload).and_then(|manifest| match manifest.eval {
                None => Some(None),
                Some(eval) => self.indexed(eval).map(Some),
            })
        })?;
        self.tally(loaded.is_some());
        loaded
    }

    /// Persist the entry for `key` (best effort: write failures are
    /// counted and dropped, leaving the slot cold). Blobs land before
    /// the manifest, and a failed blob append skips the manifest. Every
    /// blob is serialized to find its name, and appended unless the
    /// index holds it: the records an [`EvalCache`](crate::EvalCache)
    /// writes for the same evaluation.
    pub fn store(&self, key: u128, eval: &Option<CachedEval>) {
        let Some((program, metrics)) = eval else {
            return self.write(key, None);
        };
        let cells: Vec<_> = (0..=program.functions.len())
            .map(|_| OnceLock::new())
            .collect();
        let functions = program.functions.iter().zip(&cells[1..]);
        let functions = functions.map(|((name, f), cell)| (name.as_str(), (cell, f)));
        let globals = (&cells[0], &program.globals);
        self.write(key, Some((metrics, globals, functions.collect())));
    }

    /// Write `eval`, or an infeasible entry when it is `None`, under
    /// `key`, as [`DiskStore::store`] does.
    pub(crate) fn write(&self, key: u128, eval: Option<Entry<'_>>) {
        let eval = match eval {
            None => None,
            Some((metrics, globals, blobs)) => {
                let Some(globals) = self.put_blob(Kind::Globals, globals) else {
                    return;
                };
                let mut functions = Vec::with_capacity(blobs.len());
                for (name, function) in blobs {
                    let Some(hash) = self.put_blob(Kind::Function, function) else {
                        return;
                    };
                    functions.push((name.to_string(), hash));
                }
                Some(ManifestEval {
                    metrics: metrics.clone(),
                    globals,
                    functions,
                })
            }
        };
        if let Ok(text) = serde_json::to_string(&Manifest { eval }) {
            self.append((Kind::Manifest, key), text.as_bytes());
        }
    }

    /// Load the leakage-score entry for `key`. Outer `None` means
    /// absent/damaged (a cold miss); inner `None` is a *recorded*
    /// measurement failure.
    pub fn load_score(&self, key: u128) -> Option<Option<f64>> {
        self.bump(|s| s.loads += 1);
        let loaded = self.read((Kind::Score, key), |payload| {
            parse::<StoredScore>(payload).map(|stored| stored.score)
        })?;
        self.tally(loaded.is_some());
        loaded
    }

    /// Persist a leakage score under `key` (best effort — same
    /// semantics as [`DiskStore::store`]).
    pub fn store_score(&self, key: u128, score: &Option<f64>) {
        if let Ok(text) = serde_json::to_string(&StoredScore { score: *score }) {
            self.append((Kind::Score, key), text.as_bytes());
        }
    }

    /// Count a found entry as a hit or, when it failed to load, as a
    /// corrupt miss.
    fn tally(&self, loaded: bool) {
        self.bump(|s| {
            if loaded {
                s.hits += 1;
            } else {
                s.corrupt_misses += 1;
            }
        });
    }

    /// The first copy of `slot` that reads whole, passes its checksum
    /// and `decode`s. A copy that fails is dropped from the index. Outer
    /// `None`: no copy; inner `None`: every copy failed.
    fn read<T>(&self, slot: Slot, decode: impl Fn(&[u8]) -> Option<T>) -> Option<Option<T>> {
        loop {
            let (loc, record) = {
                let log = self.log.lock().expect("store log lock");
                let loc = *log.index.get(&slot)?.first()?;
                (loc, log.read(&loc))
            };
            match record {
                Some(record) => {
                    self.bump(|s| s.bytes_read += loc.len);
                    if let Some(value) = decode(&record[HEADER..]) {
                        return Some(Some(value));
                    }
                }
                None => self.bump(|s| s.torn_records += 1),
            }
            let mut log = self.log.lock().expect("store log lock");
            let Some(copies) = log.index.get_mut(&slot) else {
                return Some(None);
            };
            copies.retain(|copy| *copy != loc);
            if copies.is_empty() {
                log.index.remove(&slot);
                return Some(None);
            }
        }
    }

    /// `eval`'s metrics and blobs; `None` when a blob name is not hex or
    /// names no blob in the index.
    fn indexed(&self, eval: ManifestEval) -> Option<(ModuleMetrics, ProgramBlobs)> {
        let hex = |hash: &str| u128::from_str_radix(hash, 16).ok();
        let globals = hex(&eval.globals)?;
        let functions = eval
            .functions
            .into_iter()
            .map(|(name, hash)| Some((name, hex(&hash)?)))
            .collect::<Option<Vec<_>>>()?;
        let log = self.log.lock().expect("store log lock");
        let held = |kind, hash| log.index.contains_key(&(kind, hash));
        let all_held =
            held(Kind::Globals, globals) && functions.iter().all(|(_, h)| held(Kind::Function, *h));
        all_held.then_some((eval.metrics, ProgramBlobs { globals, functions }))
    }

    /// Assemble the program of an entry [`DiskStore::read_entry`]
    /// returned from its blobs; `None` when a blob is missing or damaged,
    /// which turns the entry's hit into a corrupt miss.
    pub(crate) fn assemble(&self, blobs: &ProgramBlobs) -> Option<Program> {
        let program = (|| {
            let globals = self.blob(Kind::Globals, &self.globals, blobs.globals)?;
            let mut program = Program {
                functions: BTreeMap::new(),
                globals: Globals::clone(&globals),
            };
            for (name, hash) in &blobs.functions {
                let function = self.blob(Kind::Function, &self.functions, *hash)?;
                program
                    .functions
                    .insert(name.clone(), Function::clone(&function));
            }
            Some(program)
        })();
        self.bump(|s| match program {
            Some(_) => s.programs_assembled += 1,
            None => {
                s.hits = s.hits.saturating_sub(1);
                s.corrupt_misses += 1;
            }
        });
        program
    }

    /// The blob named `hash`, from the handle's memo or else read from
    /// its segment, checked and parsed.
    fn blob<T: Deserialize>(&self, kind: Kind, decoded: &Decoded<T>, hash: u128) -> Option<Arc<T>> {
        if let Some(found) = decoded.lock().expect("blob memo lock").get(&hash) {
            self.bump(|s| s.blob_memo_hits += 1);
            return Some(Arc::clone(found));
        }
        let value = Arc::new(self.read((kind, hash), parse::<T>)??);
        self.bump(|s| s.blobs_decoded += 1);
        decoded
            .lock()
            .expect("blob memo lock")
            .insert(hash, Arc::clone(&value));
        Some(value)
    }

    /// Append `value`'s compact JSON as a blob of `kind` unless the
    /// index holds one of that content, and fill `name` with its hash;
    /// a filled `name` whose blob the index holds skips serializing.
    /// Returns the blob's hash name, or `None` when the append failed.
    fn put_blob<T: Serialize>(&self, kind: Kind, (name, value): Blob<'_, T>) -> Option<String> {
        let held = |hash: u128| {
            let log = self.log.lock().expect("store log lock");
            log.index.contains_key(&(kind, hash))
        };
        // A blob written before leaves the index when a load finds it damaged.
        if let Some(&hash) = name.get().filter(|&&hash| held(hash)) {
            return Some(format!("{hash:032x}"));
        }
        let text = serde_json::to_string(value).ok()?;
        let hash = fnv1a128(fnv_offset(), text.as_bytes());
        if !held(hash) && !self.append((kind, hash), text.as_bytes()) {
            return None;
        }
        let _ = name.set(hash);
        Some(format!("{hash:032x}"))
    }

    /// Append a record to this handle's segment. Returns whether it
    /// landed.
    fn append(&self, slot: Slot, payload: &[u8]) -> bool {
        self.append_via(slot, payload, |mut file, bytes| file.write_all(bytes))
    }

    /// [`DiskStore::append`] through a given write of the framed record.
    fn append_via(
        &self,
        slot: Slot,
        payload: &[u8],
        write: impl FnOnce(&File, &[u8]) -> io::Result<()>,
    ) -> bool {
        let framed = record(slot, payload);
        let landed = framed.as_ref().is_some_and(|bytes| {
            let mut log = self.log.lock().expect("store log lock");
            log.append(&self.root, slot, bytes, write).is_ok()
        });
        self.bump(|s| match &framed {
            Some(bytes) if landed => s.bytes_written += bytes.len() as u64,
            _ => s.write_failures += 1,
        });
        landed
    }
}

/// `bytes` as the JSON of a `T`; `None` when they are not.
fn parse<T: Deserialize>(bytes: &[u8]) -> Option<T> {
    serde_json::from_str(std::str::from_utf8(bytes).ok()?).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{pareto_search, CompilerConfig, EvalCache, FpaConfig, ParetoFront, SearchRequest};
    use teamplay_energy::IsaEnergyModel;
    use teamplay_isa::CycleModel;
    use teamplay_minic::compile_to_ir;

    /// A two-function module with a global table: small enough that a
    /// debug-build search is quick, large enough that configurations
    /// share function blobs.
    const TASK: &str = "
        int coeff[16] = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3};
        int scale(int v) { return v * 10; }
        int filter(int x) {
            int acc = 0;
            for (int i = 0; i < 16; i = i + 1) {
                acc = acc + coeff[i] * (x + i);
            }
            return scale(acc);
        }";

    fn temp_store(tag: &str) -> DiskStore {
        let dir =
            std::env::temp_dir().join(format!("teamplay-store-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        DiskStore::open(&dir).expect("create store dir")
    }

    /// One single-thread search of `source`'s `filter` over `store`.
    fn search_source(store: &DiskStore, source: &str) -> ParetoFront {
        let ir = compile_to_ir(source).expect("front-end");
        let (cm, em) = (CycleModel::pg32(), IsaEnergyModel::pg32_datasheet());
        pareto_search(
            &minipool::Pool::new(1),
            &EvalCache::with_store(&ir, &cm, &em, store),
            &SearchRequest::new("filter", FpaConfig::tiny(), 0x5EED),
        )
    }

    /// One single-thread search of `TASK` over `store`.
    fn search(store: &DiskStore) -> ParetoFront {
        search_source(store, TASK)
    }

    fn front_bytes(front: &ParetoFront) -> String {
        serde_json::to_string(&front.variants).expect("front serializes")
    }

    /// One record on disk, found by walking its segment.
    struct Rec {
        path: PathBuf,
        offset: u64,
        slot: Slot,
        payload: Vec<u8>,
        /// Whether its checksum holds.
        intact: bool,
    }

    /// Every whole record under `dir`, in segment-name and offset order.
    fn records(dir: &Path) -> Vec<Rec> {
        let mut all = Vec::new();
        for path in segment_paths(dir) {
            let bytes = fs::read(&path).expect("segment reads");
            let mut at = 0;
            while let Some(head) = bytes.get(at..at + HEADER) {
                let (slot, len) = header(head.try_into().expect("a header")).expect("a kind");
                let end = at + HEADER + len as usize;
                all.push(Rec {
                    path: path.clone(),
                    offset: at as u64,
                    slot,
                    payload: bytes[at + HEADER..end].to_vec(),
                    intact: intact(&bytes[at..end]),
                });
                at = end;
            }
            assert_eq!(at, bytes.len(), "{path:?} ends in a torn record");
        }
        all
    }

    /// Every intact manifest record with its key, in log order.
    fn manifests(dir: &Path) -> Vec<(u128, Manifest)> {
        records(dir)
            .into_iter()
            .filter(|rec| rec.intact && rec.slot.0 == Kind::Manifest)
            .map(|rec| (rec.slot.1, parse(&rec.payload).expect("manifest parses")))
            .collect()
    }

    /// Overwrite the bytes at `offset` of `path`.
    fn patch(path: &Path, offset: u64, bytes: &[u8]) {
        let mut file = OpenOptions::new()
            .write(true)
            .open(path)
            .expect("segment opens");
        file.seek(SeekFrom::Start(offset)).expect("seek");
        file.write_all(bytes).expect("patch");
    }

    /// Replace `rec` in place by a same-sized record of `slot` whose
    /// checksum holds.
    fn rewrite(rec: &Rec, slot: Slot, payload: &[u8]) {
        assert_eq!(payload.len(), rec.payload.len(), "same size");
        patch(
            &rec.path,
            rec.offset,
            &record(slot, payload).expect("frames"),
        );
    }

    /// Bump the first digit of `rec`'s payload in place: still valid
    /// JSON, so only the checksum can catch it.
    fn edit_digit(rec: &Rec) {
        let at = rec
            .payload
            .iter()
            .position(u8::is_ascii_digit)
            .expect("a digit");
        let digit = if rec.payload[at] == b'1' { b'2' } else { b'1' };
        patch(&rec.path, rec.offset + (HEADER + at) as u64, &[digit]);
    }

    /// The store key of `TASK` under `config` on the pg32 models.
    fn key_of(config: &CompilerConfig) -> u128 {
        let ir = compile_to_ir(TASK).expect("front-end");
        let (cm, em) = (CycleModel::pg32(), IsaEnergyModel::pg32_datasheet());
        let prefix = hash_json(fnv_offset(), &(STORE_FORMAT_VERSION, &ir, &cm, &em));
        hash_json(prefix, config)
    }

    /// The manifests of `front`'s variants, in front order.
    fn front_manifests(dir: &Path, front: &ParetoFront) -> Vec<ManifestEval> {
        let mut stored: HashMap<u128, ManifestEval> = manifests(dir)
            .into_iter()
            .filter_map(|(key, m)| Some((key, m.eval?)))
            .collect();
        let entries = front
            .variants
            .iter()
            .map(|v| stored.remove(&key_of(&v.config)));
        entries
            .collect::<Option<_>>()
            .expect("every front variant is stored")
    }

    /// A new store directory tagged `tag` holding a copy of every
    /// segment under `from`.
    fn copy_store(from: &Path, tag: &str) -> PathBuf {
        let dir = temp_store(tag).path().to_path_buf();
        for path in segment_paths(from) {
            let name = path.file_name().expect("a file name");
            fs::copy(&path, dir.join(name)).expect("segment copies");
        }
        dir
    }

    /// Files under `dir` that are not segments.
    fn strays(dir: &Path) -> Vec<PathBuf> {
        let all = fs::read_dir(dir)
            .expect("store dir")
            .map(|e| e.expect("entry").path());
        all.filter(|path| path.extension().and_then(|x| x.to_str()) != Some(SEGMENT_EXT))
            .collect()
    }

    #[test]
    fn fnv_chain_matches_one_shot() {
        let one = fnv1a128(fnv_offset(), b"hello world");
        let chained = fnv1a128(fnv1a128(fnv_offset(), b"hello "), b"world");
        assert_eq!(one, chained);
        assert_ne!(one, fnv1a128(fnv_offset(), b"hello worlc"));
    }

    #[test]
    fn every_single_byte_change_fails_the_checksum() {
        let framed = record((Kind::Score, 0x1234), br#"{"score":0.5}"#).expect("frames");
        assert!(intact(&framed));
        for at in 0..framed.len() {
            for bit in 0..8 {
                let mut damaged = framed.clone();
                damaged[at] ^= 1 << bit;
                assert!(!intact(&damaged), "flip of bit {bit} of byte {at} passed");
            }
        }
        assert!(!intact(&framed[..framed.len() - 1]));
    }

    #[test]
    fn missing_and_corrupt_entries_are_misses() {
        let store = temp_store("corrupt");
        assert!(store.load(42).is_none());
        assert!(store.append((Kind::Manifest, 42), b"{not json"));
        assert!(store.load(42).is_none());
        let stats = store.stats();
        assert_eq!((stats.loads, stats.hits, stats.corrupt_misses), (2, 0, 1));
        let _ = fs::remove_dir_all(store.path());
    }

    #[test]
    fn scores_round_trip_including_recorded_failures() {
        let store = temp_store("scores");
        assert!(store.load_score(11).is_none());
        store.store_score(11, &Some(4.25));
        assert_eq!(store.load_score(11), Some(Some(4.25)));
        store.store_score(12, &None);
        assert_eq!(store.load_score(12), Some(None));
        assert_eq!(store.entries(), 2);
        let _ = fs::remove_dir_all(store.path());
    }

    #[test]
    fn infeasible_entries_round_trip() {
        let store = temp_store("infeasible");
        store.store(7, &None);
        assert_eq!(store.entries(), 1);
        // Outer Some: the entry exists; inner None: recorded failure.
        assert_eq!(store.load(7).map(|e| e.is_none()), Some(true));
        let _ = fs::remove_dir_all(store.path());
    }

    #[test]
    fn damaged_blobs_load_as_misses_and_are_rewritten() {
        let cold_dir = temp_store("damaged").path().to_path_buf();
        let cold = search(&DiskStore::open(&cold_dir).expect("store opens"));
        let cold_bytes = front_bytes(&cold);
        let unknown = "f".repeat(32);
        let (key, eval) = manifests(&cold_dir)
            .into_iter()
            .find_map(|(key, m)| m.eval.map(|eval| (key, eval)))
            .expect("a feasible entry");
        let (_, hash) = &eval.functions[0];
        assert_ne!(hash, &unknown);
        let entry = DiskStore::open(&cold_dir)
            .expect("store opens")
            .load(key)
            .expect("stored");
        let original = serde_json::to_string(&Some(&entry)).expect("serializes");
        let loads_as_original = |loaded: Option<Option<CachedEval>>, what: &str| {
            let text = serde_json::to_string(&loaded).expect("serializes");
            assert_eq!(text, original, "{what}: rewritten entry");
        };
        // A copy of the cold store with every intact copy of `slot`
        // damaged.
        let damaged_copy = |tag: &str, slot: Slot, damage: &dyn Fn(&Rec)| {
            let dir = copy_store(&cold_dir, tag);
            for rec in records(&dir).iter().filter(|r| r.intact && r.slot == slot) {
                damage(rec);
            }
            dir
        };
        let rename = |rec: &Rec| {
            let text = std::str::from_utf8(&rec.payload).expect("utf-8");
            rewrite(rec, rec.slot, text.replace(hash, &unknown).as_bytes());
        };

        // Eager loads: each damage, to the manifest of a feasible entry
        // or to the first function blob it names, loads as a miss, and
        // storing the entry again repairs it.
        let blob = (Kind::Function, u128::from_str_radix(hash, 16).expect("hex"));
        type Damage<'a> = (&'a str, Slot, &'a dyn Fn(&Rec));
        let damages: [Damage; 4] = [
            ("blob cut in half", blob, &|rec| {
                let half = rec.payload.len() / 2;
                patch(
                    &rec.path,
                    rec.offset + (HEADER + half) as u64,
                    &vec![0; half],
                );
            }),
            ("blob filed under another hash", blob, &|rec| {
                let (kind, hash) = rec.slot;
                rewrite(rec, (kind, hash ^ 1), &rec.payload);
            }),
            ("blob edited in place", blob, &edit_digit),
            (
                "manifest naming an unknown hash",
                (Kind::Manifest, key),
                &rename,
            ),
        ];
        for (i, (what, slot, damage)) in damages.into_iter().enumerate() {
            let dir = damaged_copy(&format!("damaged-{i}"), slot, damage);
            let fresh = DiskStore::open(&dir).expect("store opens");
            assert!(fresh.load(key).is_none(), "{what} must load as a miss");
            assert_eq!(fresh.stats().corrupt_misses, 1, "{what}");
            // The damaged copy shadows the rewritten one neither for the
            // handle that rewrote it nor for one opened afterwards.
            fresh.store(key, &entry);
            loads_as_original(fresh.load(key), what);
            loads_as_original(DiskStore::open(&dir).expect("store opens").load(key), what);
            let _ = fs::remove_dir_all(&dir);
        }

        // An EvalCache reads every manifest but assembles only the
        // programs of front variants.
        let front = front_manifests(&cold_dir, &cold);
        let front_blobs: HashSet<Slot> = front.iter().flat_map(ManifestEval::blobs).collect();
        let (_, front_hash) = &front[0].functions[0];
        let front_blob = (
            Kind::Function,
            u128::from_str_radix(front_hash, 16).expect("hex"),
        );

        // A checksum-damaged blob a front variant names: its program is
        // rebuilt by compiling, the front stays byte-identical, and the
        // blob is appended again ...
        let dir = damaged_copy("front-blob", front_blob, &edit_digit);
        let store = DiskStore::open(&dir).expect("store opens");
        let warm = search(&store);
        assert_eq!(
            front_bytes(&warm),
            cold_bytes,
            "front over a damaged front blob"
        );
        assert_eq!(warm.stats.disk_misses, 0, "metrics come from the manifests");
        assert_eq!(warm.stats.disk_hits, warm.stats.cache_misses);
        let stats = store.stats();
        assert_eq!((stats.corrupt_misses, stats.torn_records), (1, 1));
        assert_eq!(stats.programs_assembled as usize, warm.variants.len() - 1);
        let copies = records(&dir);
        let copies: Vec<&Rec> = copies.iter().filter(|r| r.slot == front_blob).collect();
        assert_eq!(copies.len(), 2, "the blob is appended again");
        assert!(!copies[0].intact && copies[1].intact);
        // ... after which a fresh handle assembles every front program.
        let store = DiskStore::open(&dir).expect("store opens");
        assert_eq!(front_bytes(&search(&store)), cold_bytes);
        assert_eq!(store.stats().corrupt_misses, 0);
        assert_eq!(
            store.stats().programs_assembled as usize,
            warm.variants.len()
        );
        let _ = fs::remove_dir_all(&dir);

        // A damaged blob no front variant names is never read.
        let unnamed = records(&cold_dir)
            .into_iter()
            .map(|rec| rec.slot)
            .find(|slot| slot.0 == Kind::Function && !front_blobs.contains(slot))
            .expect("a blob no front variant names");
        let dir = damaged_copy("unnamed-blob", unnamed, &edit_digit);
        let store = DiskStore::open(&dir).expect("store opens");
        assert_eq!(front_bytes(&search(&store)), cold_bytes);
        let stats = store.stats();
        assert_eq!((stats.corrupt_misses, stats.torn_records), (0, 0));
        assert_eq!(stats.blobs_decoded as usize, front_blobs.len());
        assert_eq!(stats.bytes_written, 0, "nothing is rewritten");
        let _ = fs::remove_dir_all(&dir);

        // A manifest naming an unknown hash is a miss when it is probed:
        // its configuration is compiled again and its entry rewritten.
        let dir = damaged_copy("unknown-hash", (Kind::Manifest, key), &rename);
        let store = DiskStore::open(&dir).expect("store opens");
        let warm = search(&store);
        assert_eq!(front_bytes(&warm), cold_bytes, "front over a renamed blob");
        assert_eq!(warm.stats.disk_misses, 1, "the damaged entry compiles");
        assert_eq!(warm.stats.disk_hits + 1, warm.stats.cache_misses);
        assert_eq!(store.stats().corrupt_misses, 1);
        loads_as_original(
            DiskStore::open(&dir).expect("store opens").load(key),
            "renamed",
        );
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&cold_dir);
    }

    #[test]
    fn warm_rerun_decodes_only_the_blobs_its_front_names() {
        let store = temp_store("counters");
        let cold = search(&store);
        let footprint = store.footprint();
        let written = store.stats();
        assert_eq!(written.write_failures, 0);
        assert_eq!(
            written.programs_assembled, 0,
            "a cold run assembles nothing"
        );
        // Single-threaded, each manifest and each distinct blob is
        // appended exactly once, to one segment.
        assert_eq!(written.bytes_written, footprint.bytes);
        assert_eq!(footprint.entries, cold.stats.cache_misses);
        assert_eq!(footprint.segments, 1);

        let warm_store = DiskStore::open(store.path()).expect("store reopens");
        let warm = search(&warm_store);
        assert_eq!(warm.stats.disk_misses, 0);
        assert_eq!(front_bytes(&warm), front_bytes(&cold));
        assert_eq!(
            warm_store.footprint().segments,
            1,
            "a warm run writes nothing"
        );

        // The blobs the front's entries name, and the record bytes of
        // every manifest and of those blobs.
        let front = front_manifests(store.path(), &warm);
        assert_eq!(front.len(), warm.variants.len());
        let mut references = 0;
        let mut named = HashSet::new();
        for eval in &front {
            references += 1 + eval.functions.len();
            named.extend(eval.blobs());
        }
        assert!(references > named.len(), "front variants share blobs");
        assert!(named.len() < footprint.blobs, "the front names every blob");
        let all = records(store.path());
        let bytes = |keep: &dyn Fn(&Slot) -> bool| -> u64 {
            let kept = all.iter().filter(|rec| keep(&rec.slot));
            kept.map(|rec| (HEADER + rec.payload.len()) as u64).sum()
        };
        let manifest_bytes = bytes(&|slot| slot.0 == Kind::Manifest);
        let blob_bytes = bytes(&|slot| named.contains(slot));

        let stats = warm_store.stats();
        // Each manifest is read once; each program of the front is
        // assembled once, from each distinct blob it names read once.
        assert_eq!(stats.loads as usize, footprint.entries);
        assert_eq!((stats.hits, stats.corrupt_misses), (stats.loads, 0));
        assert_eq!(stats.programs_assembled as usize, warm.variants.len());
        assert_eq!(stats.blobs_decoded as usize, named.len());
        assert_eq!(
            (stats.blobs_decoded + stats.blob_memo_hits) as usize,
            references
        );
        assert_eq!(stats.bytes_read, manifest_bytes + blob_bytes);
        assert_eq!((stats.bytes_written, stats.write_failures), (0, 0));
        assert_eq!((stats.torn_records, stats.compactions), (0, 0));
        let _ = fs::remove_dir_all(store.path());
    }

    #[test]
    fn eval_cache_and_store_write_the_same_records() {
        let filled = temp_store("writers-cache");
        search(&filled);
        // Copy every entry through the public writer.
        let copy = temp_store("writers-copy");
        let stored = manifests(filled.path());
        for (key, _) in &stored {
            copy.store(*key, &filled.load(*key).expect("stored"));
        }
        let records_of = |dir: &Path| -> (usize, HashSet<(Slot, Vec<u8>)>) {
            let all = records(dir);
            let count = all.len();
            (
                count,
                all.into_iter().map(|rec| (rec.slot, rec.payload)).collect(),
            )
        };
        let (count, filled_records) = records_of(filled.path());
        assert_eq!(
            count,
            filled_records.len(),
            "one search writes no duplicate"
        );
        assert_eq!((count, filled_records), records_of(copy.path()));

        // Storing an evaluation again appends its manifest alone.
        let (key, _) = stored
            .iter()
            .find(|(_, manifest)| manifest.eval.is_some())
            .expect("a feasible entry");
        let before = copy.stats().bytes_written;
        copy.store(*key, &filled.load(*key).expect("stored"));
        let last = records(copy.path()).pop().expect("a record");
        assert_eq!(last.slot, (Kind::Manifest, *key));
        let grown = copy.stats().bytes_written - before;
        assert_eq!(grown, (HEADER + last.payload.len()) as u64);
        let _ = fs::remove_dir_all(filled.path());
        let _ = fs::remove_dir_all(copy.path());
    }

    #[test]
    fn failed_writes_leave_no_temp_file() {
        let store = temp_store("failed-writes");
        store.store_score(1, &Some(1.0));
        // A write that fails part-way (a full disk) is cut back off the
        // segment, which takes the next record as if nothing happened.
        let torn = |mut file: &File, bytes: &[u8]| {
            file.write_all(&bytes[..bytes.len() / 2])?;
            Err(io::Error::other("disk full"))
        };
        assert!(!store.append_via((Kind::Score, 2), br#"{"score":2.0}"#, torn));
        store.store_score(3, &Some(3.0));
        let mut failures = 1;
        // A segment that takes no byte and cannot be cut back is
        // abandoned for a new one.
        #[cfg(unix)]
        if Path::new("/dev/full").exists() {
            let full = store.path().join(format!("full.{SEGMENT_EXT}"));
            std::os::unix::fs::symlink("/dev/full", &full).expect("symlink");
            let file = OpenOptions::new().read(true).append(true).open(&full);
            let mut log = store.log.lock().expect("store log lock");
            log.files.push(file.expect("/dev/full opens"));
            log.writer = Some((log.files.len() - 1, 0));
            drop(log);
            store.store_score(4, &Some(4.0));
            store.store_score(5, &Some(5.0));
            fs::remove_file(&full).expect("unlink");
            failures += 1;
        }
        let stats = store.stats();
        assert_eq!(stats.write_failures, failures);
        assert!(
            strays(store.path()).is_empty(),
            "left {:?}",
            strays(store.path())
        );

        let reopened = DiskStore::open(store.path()).expect("store reopens");
        assert_eq!(reopened.load_score(1), Some(Some(1.0)));
        assert_eq!(reopened.load_score(2), None);
        assert_eq!(reopened.load_score(3), Some(Some(3.0)));
        if failures == 2 {
            assert_eq!(reopened.load_score(4), None);
            assert_eq!(reopened.load_score(5), Some(Some(5.0)));
        }
        assert_eq!(reopened.stats().torn_records, 0);
        assert_eq!(stats.bytes_written, reopened.footprint().bytes);
        let _ = fs::remove_dir_all(store.path());
    }

    #[test]
    fn cutting_the_last_record_anywhere_loses_only_that_record() {
        let store = temp_store("crash");
        search(&store);
        let dir = store.path().to_path_buf();
        drop(store);
        let all = records(&dir);
        let last = all.last().expect("a record");
        assert_eq!(last.slot.0, Kind::Manifest, "a fill ends with a manifest");
        let earlier: Vec<u128> = all[..all.len() - 1]
            .iter()
            .filter(|rec| rec.slot.0 == Kind::Manifest)
            .map(|rec| rec.slot.1)
            .collect();
        assert!(!earlier.is_empty() && !earlier.contains(&last.slot.1));
        let bytes = fs::read(&last.path).expect("segment reads");
        let start = last.offset as usize;
        for cut in start..bytes.len() {
            fs::write(&last.path, &bytes[..cut]).expect("cut the segment");
            let store = DiskStore::open(&dir).expect("store opens");
            assert!(store.load(last.slot.1).is_none(), "cut at {cut}");
            for &key in &earlier {
                assert!(store.load(key).is_some(), "cut at {cut} lost {key:x}");
            }
            let stats = store.stats();
            assert_eq!(stats.torn_records, u64::from(cut > start), "cut at {cut}");
            assert_eq!(stats.corrupt_misses, 0, "cut at {cut}");
        }
        // A handle opened over the torn tail appends to a segment of its
        // own, so its records are not lost behind the tear.
        DiskStore::open(&dir)
            .expect("store opens")
            .store_score(1, &Some(0.5));
        let store = DiskStore::open(&dir).expect("store opens");
        assert_eq!(store.load_score(1), Some(Some(0.5)));
        assert_eq!(store.stats().torn_records, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_keeps_repeated_fills_under_the_budget() {
        // Fill `n` changes the coefficient table and `scale`'s factor:
        // new keys and blobs, but some of `filter`'s code blobs are shared
        // with every other fill.
        let source = |n: usize| {
            TASK.replace("{3, 1, 4", &format!("{{{n}, 1, 4"))
                .replace("v * 10", &format!("v * {}", 10 + n))
        };
        let probe = temp_store("budget-probe");
        search_source(&probe, &source(0));
        let budget = 3 * probe.footprint().bytes;
        let _ = fs::remove_dir_all(probe.path());

        let dir = temp_store("budget").path().to_path_buf();
        let (mut fronts, mut compactions) = (Vec::new(), 0);
        for n in 0..6 {
            let store = DiskStore::with_budget(&dir, budget).expect("store opens");
            compactions += store.stats().compactions;
            let footprint = store.footprint();
            assert!(footprint.bytes <= budget, "before fill {n}: {footprint:?}");
            fronts.push(front_bytes(&search_source(&store, &source(n))));
        }
        assert!(compactions > 0, "six fills never compacted");
        assert!(strays(&dir).is_empty(), "left {:?}", strays(&dir));
        assert!(records(&dir).iter().all(|rec| rec.intact));

        // The newest fill survives compaction whole ...
        let store = DiskStore::with_budget(&dir, budget).expect("store opens");
        assert!(store.footprint().bytes <= budget);
        let warm = search_source(&store, &source(5));
        assert_eq!(warm.stats.disk_misses, 0, "warm rerun after compaction");
        assert_eq!(warm.stats.disk_hits, warm.stats.cache_misses);
        assert_eq!(front_bytes(&warm), fronts[5]);
        // ... while the oldest was evicted.
        let old = search_source(&store, &source(0));
        assert!(old.stats.disk_misses > 0, "the oldest fill was kept");
        assert_eq!(front_bytes(&old), fronts[0]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_leaves_the_segments_of_live_handles_alone() {
        let dir = temp_store("live").path().to_path_buf();
        let live = DiskStore::with_budget(&dir, 1).expect("store opens");
        live.store_score(1, &Some(1.0));
        let sealed = DiskStore::with_budget(&dir, 1).expect("store opens");
        sealed.store_score(2, &Some(2.0));
        drop(sealed);
        let live_segment = records(&dir)
            .into_iter()
            .find(|rec| rec.slot == (Kind::Score, 1))
            .expect("the live handle's record")
            .path;
        // Over a one-byte budget every sealed record is evicted, and the
        // live handle's segment is left as it is.
        let compacting = DiskStore::with_budget(&dir, 1).expect("store opens");
        assert_eq!(compacting.stats().compactions, 1);
        assert_eq!(compacting.load_score(2), None);
        assert!(live_segment.exists());
        assert_eq!(compacting.footprint().segments, 1, "only the live segment");
        live.store_score(3, &Some(3.0));
        drop(live);
        let reopened = DiskStore::open(&dir).expect("store opens");
        assert_eq!(reopened.load_score(1), Some(Some(1.0)));
        assert_eq!(reopened.load_score(3), Some(Some(3.0)));
        assert!(strays(&dir).is_empty(), "left {:?}", strays(&dir));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn nesting_past_the_reader_limit_loads_as_a_miss() {
        let store = temp_store("deep");
        let deep = "[".repeat(20_000);
        // A damaged manifest that is nothing but brackets, and a valid
        // manifest carrying a deep value in a field it does not know.
        assert!(store.append((Kind::Manifest, 1), deep.as_bytes()));
        let hidden = format!(r#"{{"eval":null,"junk":{deep}0{}}}"#, "]".repeat(20_000));
        assert!(store.append((Kind::Manifest, 2), hidden.as_bytes()));
        store.store(3, &None);
        // Half the default stack, which recursing once per bracket would
        // overflow.
        let loaded = std::thread::scope(|scope| {
            std::thread::Builder::new()
                .stack_size(1024 * 1024)
                .spawn_scoped(scope, || [1, 2, 3].map(|key| store.load(key).is_some()))
                .expect("spawn loader")
                .join()
                .expect("loader finishes")
        });
        assert_eq!(loaded, [false, false, true]);
        let stats = store.stats();
        assert_eq!((stats.loads, stats.hits, stats.corrupt_misses), (3, 1, 2));
        let _ = fs::remove_dir_all(store.path());
    }

    #[test]
    fn every_file_decodes_and_reserializes_to_its_bytes() {
        let store = temp_store("bytes");
        search(&store);
        fn same<T: Serialize + Deserialize>(payload: &[u8]) {
            let text = std::str::from_utf8(payload).expect("utf-8");
            let value: T = serde_json::from_str(text).expect("record decodes");
            assert_eq!(serde_json::to_string(&value).expect("serializes"), text);
        }
        let mut kinds = HashSet::new();
        for rec in records(store.path()) {
            assert!(rec.intact, "checksum of {:?} at {}", rec.path, rec.offset);
            let (kind, key) = rec.slot;
            match kind {
                Kind::Function => same::<Function>(&rec.payload),
                Kind::Globals => same::<Globals>(&rec.payload),
                Kind::Manifest => same::<Manifest>(&rec.payload),
                Kind::Score => same::<StoredScore>(&rec.payload),
            }
            if matches!(kind, Kind::Function | Kind::Globals) {
                let hash = fnv1a128(fnv_offset(), &rec.payload);
                assert_eq!(hash, key, "blob does not hash to its name");
            }
            kinds.insert(kind);
        }
        assert!([Kind::Function, Kind::Globals, Kind::Manifest]
            .iter()
            .all(|kind| kinds.contains(kind)));
        assert!(
            strays(store.path()).is_empty(),
            "left {:?}",
            strays(store.path())
        );
        let _ = fs::remove_dir_all(store.path());
    }
}
