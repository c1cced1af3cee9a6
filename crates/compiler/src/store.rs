//! Persistent content-addressed evaluation store.
//!
//! The bottom tier of the driver's cache hierarchy (see [`crate::driver`]):
//! a directory of JSON files keyed by a 128-bit FNV-1a hash over the
//! *serialized content* of everything an evaluation depends on — the IR
//! module, both cost models, the [`CompilerConfig`](crate::CompilerConfig),
//! and [`STORE_FORMAT_VERSION`]. Because the key commits to the inputs
//! rather than to names or paths, a store can never serve a stale result:
//! any change to the module, the cost models, or the on-disk format lands
//! on a different key and reads as a cold miss. Infeasible configurations
//! are persisted too (as explicit `null` evaluations), so a warm process
//! does not re-discover known-bad genomes.
//!
//! # Layout: manifests over shared blobs
//!
//! ```text
//! <root>/{key:032x}.json              one entry: an evaluation manifest or a leakage score
//! <root>/functions/{hash:032x}.json   one compiled Function, compact JSON
//! <root>/globals/{hash:032x}.json     one globals table, compact JSON
//! ```
//!
//! Distinct configurations mostly compile byte-identical functions (a
//! camera-pill + SpaceWire store references 315 distinct functions
//! 10,030 times), so an evaluation manifest holds only the
//! [`ModuleMetrics`], the globals blob's hash and
//! the `(function name, blob hash)` list; the program text lives in
//! blobs named by the FNV-1a-128 of their own bytes and shared by every
//! manifest that uses them.
//!
//! # Loading: hash check and per-handle memo
//!
//! Manifests and blobs are decoded straight from their JSON text by the
//! vendored `serde` reader, which builds no intermediate tree and gives
//! up past 128 nested containers. A manifest or blob that is not valid
//! JSON of its type, nests too deep or fails its hash check turns the
//! whole load into a cold miss — never into a wrong program, and never
//! into a crash. [`DiskStore::load`] re-hashes every blob it reads from
//! disk, and a damaged blob is removed so the recompile's write lands a
//! good copy in its place. Each handle memoizes the blobs it has
//! decoded, so one handle parses each distinct function once and clones
//! it into every program that uses it. The memo is per handle: a new
//! process or workflow run reads and checks everything from disk again.
//!
//! # Writing: blobs before the manifest
//!
//! All disk traffic is best-effort: failed writes are counted and
//! dropped. Every file lands atomically (temp file + rename, the temp
//! file removed on any failure). [`DiskStore::store`] writes each blob
//! that is not already present *before* the manifest and skips the
//! manifest when a blob write failed, so a committed manifest only names
//! blobs that were on disk when it landed. Each handle also remembers
//! the blobs it has written, by value, so storing a function again skips
//! re-serializing it. The store is safe to share between concurrent
//! handles and processes: the worst outcome of a race is a redundant
//! compile.

use crate::driver::{CachedEval, ModuleMetrics};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::hash::Hash;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
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
/// function and globals blobs.
pub const STORE_FORMAT_VERSION: u32 = 4;

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
type Globals = BTreeMap<String, Vec<i32>>;

/// On-disk evaluation manifest. `eval: None` records an infeasible
/// configuration (codegen or analysis failed) — serving it from disk
/// skips the whole compile-and-fail path.
#[derive(Serialize, Deserialize)]
struct Manifest {
    eval: Option<ManifestEval>,
}

/// A feasible evaluation: its metrics plus the blobs its program is
/// assembled from. Hashes are 32-digit lowercase hex, as in blob names.
#[derive(Serialize, Deserialize)]
struct ManifestEval {
    metrics: ModuleMetrics,
    globals: String,
    functions: Vec<(String, String)>,
}

/// On-disk entry: one memoized leakage score of the secure search.
/// `score: None` records a variant whose measurement rig trapped —
/// persisted so a warm process skips the failing simulation too.
#[derive(Serialize, Deserialize)]
struct StoredScore {
    score: Option<f64>,
}

/// Extension of committed files (temp files of in-flight writes end in
/// their sequence number instead).
const ENTRY_EXT: &str = "json";
/// Blob subdirectory of compiled functions.
const FUNCTION_BLOBS: &str = "functions";
/// Blob subdirectory of globals tables.
const GLOBALS_BLOBS: &str = "globals";

/// Monotonic suffix keeping concurrent in-process writers' temp files
/// distinct (the process id distinguishes concurrent processes).
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Traffic counters of one [`DiskStore`] handle (see
/// [`DiskStore::stats`]). Loads count evaluation and score probes alike.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Entry probes ([`DiskStore::load`] and [`DiskStore::load_score`]).
    pub loads: u64,
    /// Probes answered from disk (feasible, infeasible or a score).
    pub hits: u64,
    /// Probes that found an entry but missed because it, or a blob it
    /// names, was unreadable, corrupt, hash-mismatched or missing.
    /// Absent entries are `loads - hits - corrupt_misses`.
    pub corrupt_misses: u64,
    /// Bytes read from manifests and blobs.
    pub bytes_read: u64,
    /// Bytes committed to manifests and blobs.
    pub bytes_written: u64,
    /// Blobs read, hash-checked and parsed from disk.
    pub blobs_decoded: u64,
    /// Blob references served from the handle's decoded-blob memo.
    pub blob_memo_hits: u64,
    /// Manifest or blob writes that failed (and left nothing behind).
    pub write_failures: u64,
}

/// What a store occupies on disk (a diagnostic directory scan).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreFootprint {
    /// Committed evaluation and score manifests.
    pub entries: usize,
    /// Committed function and globals blobs.
    pub blobs: usize,
    /// Bytes of all committed manifests and blobs.
    pub bytes: u64,
}

/// One kind of blob: its subdirectory and this handle's memos of it.
#[derive(Debug)]
struct Blobs<T> {
    dir: &'static str,
    /// Blobs decoded from disk, by content hash.
    decoded: Mutex<HashMap<u128, Arc<T>>>,
    /// Blobs committed or found present, by value: storing a repeat
    /// skips serializing it, the dominant cost of a write.
    written: Mutex<HashMap<T, u128>>,
}

impl<T> Blobs<T> {
    fn new(dir: &'static str) -> Blobs<T> {
        Blobs {
            dir,
            decoded: Mutex::new(HashMap::new()),
            written: Mutex::new(HashMap::new()),
        }
    }
}

/// A content-addressed directory of evaluation results shared across
/// processes. See the module docs for the layout, keying and corruption
/// semantics.
#[derive(Debug)]
pub struct DiskStore {
    root: PathBuf,
    functions: Blobs<Function>,
    globals: Blobs<Globals>,
    stats: Mutex<StoreStats>,
}

impl DiskStore {
    /// Open (creating if needed) a store rooted at `path`.
    ///
    /// # Errors
    /// Propagates the I/O error when a directory cannot be created.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<DiskStore> {
        let root = path.as_ref().to_path_buf();
        for dir in [FUNCTION_BLOBS, GLOBALS_BLOBS] {
            fs::create_dir_all(root.join(dir))?;
        }
        Ok(DiskStore {
            root,
            functions: Blobs::new(FUNCTION_BLOBS),
            globals: Blobs::new(GLOBALS_BLOBS),
            stats: Mutex::new(StoreStats::default()),
        })
    }

    /// The store's root directory.
    pub fn path(&self) -> &Path {
        &self.root
    }

    /// Number of committed evaluation and score entries (a diagnostic,
    /// not a fast path; blobs are not entries).
    pub fn entries(&self) -> usize {
        committed(&self.root).count()
    }

    /// Entries, blobs and bytes on disk (a diagnostic directory scan).
    pub fn footprint(&self) -> StoreFootprint {
        let size = |e: &fs::DirEntry| e.metadata().map_or(0, |m| m.len());
        let mut footprint = StoreFootprint::default();
        for e in committed(&self.root) {
            footprint.entries += 1;
            footprint.bytes += size(&e);
        }
        for dir in [FUNCTION_BLOBS, GLOBALS_BLOBS] {
            for e in committed(&self.root.join(dir)) {
                footprint.blobs += 1;
                footprint.bytes += size(&e);
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

    fn entry_path(&self, key: u128) -> PathBuf {
        self.root.join(format!("{key:032x}.{ENTRY_EXT}"))
    }

    fn blob_path(&self, dir: &str, hash: u128) -> PathBuf {
        self.root.join(dir).join(format!("{hash:032x}.{ENTRY_EXT}"))
    }

    /// Load the entry for `key`. Outer `None` means absent (or
    /// unreadable/corrupt, or naming a missing or damaged blob — all
    /// behave as a cold miss); inner `None` is a *recorded* infeasible
    /// configuration.
    pub fn load(&self, key: u128) -> Option<Option<CachedEval>> {
        self.bump(|s| s.loads += 1);
        let bytes = self.read(&self.entry_path(key))?;
        let loaded = parse::<Manifest>(&bytes).and_then(|manifest| match manifest.eval {
            None => Some(None),
            Some(eval) => self.assemble(eval).map(Some),
        });
        self.tally(loaded.is_some());
        loaded
    }

    /// Persist the entry for `key` (best effort: write failures are
    /// counted and dropped, leaving the slot cold). Blobs land before
    /// the manifest, and a failed blob write skips the manifest.
    pub fn store(&self, key: u128, eval: &Option<CachedEval>) {
        let eval = match eval {
            None => None,
            Some((program, metrics)) => {
                let Some(globals) = self.put_blob(&self.globals, &program.globals) else {
                    return;
                };
                let mut functions = Vec::with_capacity(program.functions.len());
                for (name, function) in &program.functions {
                    let Some(hash) = self.put_blob(&self.functions, function) else {
                        return;
                    };
                    functions.push((name.clone(), hash));
                }
                Some(ManifestEval {
                    metrics: metrics.clone(),
                    globals,
                    functions,
                })
            }
        };
        if let Ok(text) = serde_json::to_string(&Manifest { eval }) {
            self.commit(&self.entry_path(key), &text);
        }
    }

    /// Load the leakage-score entry for `key`. Outer `None` means
    /// absent/corrupt (a cold miss); inner `None` is a *recorded*
    /// measurement failure.
    pub fn load_score(&self, key: u128) -> Option<Option<f64>> {
        self.bump(|s| s.loads += 1);
        let bytes = self.read(&self.entry_path(key))?;
        let loaded = parse::<StoredScore>(&bytes).map(|stored| stored.score);
        self.tally(loaded.is_some());
        loaded
    }

    /// Persist a leakage score under `key` (best effort, atomic — same
    /// semantics as [`DiskStore::store`]). Score keys must chain in a
    /// discriminator distinct from evaluation keys so the two entry
    /// kinds can never collide on one slot.
    pub fn store_score(&self, key: u128, score: &Option<f64>) {
        if let Ok(text) = serde_json::to_string(&StoredScore { score: *score }) {
            self.commit(&self.entry_path(key), &text);
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

    fn read(&self, path: &Path) -> Option<Vec<u8>> {
        let bytes = fs::read(path).ok()?;
        self.bump(|s| s.bytes_read += bytes.len() as u64);
        Some(bytes)
    }

    /// Rebuild a manifest's program from its blobs; `None` when any blob
    /// is missing or damaged.
    fn assemble(&self, eval: ManifestEval) -> Option<CachedEval> {
        let globals = self.blob(&self.globals, &eval.globals)?;
        let mut program = Program {
            functions: BTreeMap::new(),
            globals: Globals::clone(&globals),
        };
        for (name, hash) in eval.functions {
            let function = self.blob(&self.functions, &hash)?;
            program.functions.insert(name, Function::clone(&function));
        }
        Some((Arc::new(program), eval.metrics))
    }

    /// The blob named `hash`, from the handle's memo or else read from
    /// disk, checked against its name and parsed.
    fn blob<T: Deserialize>(&self, blobs: &Blobs<T>, hash: &str) -> Option<Arc<T>> {
        let hash = u128::from_str_radix(hash, 16).ok()?;
        if let Some(found) = blobs.decoded.lock().expect("blob memo lock").get(&hash) {
            self.bump(|s| s.blob_memo_hits += 1);
            return Some(Arc::clone(found));
        }
        let path = self.blob_path(blobs.dir, hash);
        let bytes = self.read(&path)?;
        let decoded = if fnv1a128(fnv_offset(), &bytes) == hash {
            parse::<T>(&bytes)
        } else {
            None
        };
        let Some(value) = decoded else {
            // `store` skips blobs that exist, so a damaged one would keep
            // every manifest naming it cold for good: drop it and let the
            // recompile's write replace it.
            let _ = fs::remove_file(&path);
            return None;
        };
        self.bump(|s| s.blobs_decoded += 1);
        let value = Arc::new(value);
        blobs
            .decoded
            .lock()
            .expect("blob memo lock")
            .insert(hash, Arc::clone(&value));
        Some(value)
    }

    /// Commit `value`'s compact JSON as a blob unless one of that content
    /// already exists. Returns the blob's hash name, or `None` when the
    /// write failed.
    fn put_blob<T: Serialize + Hash + Eq + Clone>(
        &self,
        blobs: &Blobs<T>,
        value: &T,
    ) -> Option<String> {
        let known = blobs
            .written
            .lock()
            .expect("blob memo lock")
            .get(value)
            .copied();
        if let Some(hash) = known.filter(|&hash| self.blob_path(blobs.dir, hash).exists()) {
            return Some(format!("{hash:032x}"));
        }
        let text = serde_json::to_string(value).ok()?;
        let hash = fnv1a128(fnv_offset(), text.as_bytes());
        let path = self.blob_path(blobs.dir, hash);
        if !path.exists() && !self.commit(&path, &text) {
            return None;
        }
        blobs
            .written
            .lock()
            .expect("blob memo lock")
            .insert(value.clone(), hash);
        Some(format!("{hash:032x}"))
    }

    /// Land `text` at `path` atomically via a uniquely named temp file
    /// beside it, so concurrent readers never observe a half-written
    /// file. Returns whether it landed.
    fn commit(&self, path: &Path, text: &str) -> bool {
        let tmp = path.with_extension(format!(
            "tmp.{}.{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        self.commit_via(&tmp, path, text)
    }

    /// [`DiskStore::commit`] through a given temp path. On any failure —
    /// a failed or partial write (a full disk) as much as a failed
    /// rename — the temp file is removed and the failure counted.
    fn commit_via(&self, tmp: &Path, path: &Path, text: &str) -> bool {
        let landed = fs::write(tmp, text).is_ok() && fs::rename(tmp, path).is_ok();
        if landed {
            self.bump(|s| s.bytes_written += text.len() as u64);
        } else {
            let _ = fs::remove_file(tmp);
            self.bump(|s| s.write_failures += 1);
        }
        landed
    }
}

/// `bytes` as the JSON of a `T`; `None` when they are not.
fn parse<T: Deserialize>(bytes: &[u8]) -> Option<T> {
    serde_json::from_str(std::str::from_utf8(bytes).ok()?).ok()
}

/// The committed files (not temp files or subdirectories) in `dir`.
fn committed(dir: &Path) -> impl Iterator<Item = fs::DirEntry> {
    fs::read_dir(dir)
        .into_iter()
        .flatten()
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some(ENTRY_EXT))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{pareto_search, EvalCache, FpaConfig, ParetoFront, SearchRequest};
    use std::collections::HashSet;
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

    /// One single-thread search of `TASK` over `store`.
    fn search(store: &DiskStore) -> ParetoFront {
        let ir = compile_to_ir(TASK).expect("front-end");
        let (cm, em) = (CycleModel::pg32(), IsaEnergyModel::pg32_datasheet());
        pareto_search(
            &minipool::Pool::new(1),
            &EvalCache::with_store(&ir, &cm, &em, store),
            &SearchRequest::new("filter", FpaConfig::tiny(), 0x5EED),
        )
    }

    fn front_bytes(front: &ParetoFront) -> String {
        serde_json::to_string(&front.variants).expect("front serializes")
    }

    /// Every committed manifest with its key, in key order.
    fn manifests(store: &DiskStore) -> Vec<(u128, Manifest)> {
        let mut all: Vec<(u128, Manifest)> = committed(store.path())
            .map(|e| {
                let path = e.path();
                let stem = path.file_stem().and_then(|s| s.to_str()).expect("stem");
                let key = u128::from_str_radix(stem, 16).expect("hex key");
                let text = fs::read_to_string(&path).expect("manifest reads");
                (key, serde_json::from_str(&text).expect("manifest parses"))
            })
            .collect();
        all.sort_by_key(|(key, _)| *key);
        all
    }

    #[test]
    fn fnv_chain_matches_one_shot() {
        let one = fnv1a128(fnv_offset(), b"hello world");
        let chained = fnv1a128(fnv1a128(fnv_offset(), b"hello "), b"world");
        assert_eq!(one, chained);
        assert_ne!(one, fnv1a128(fnv_offset(), b"hello worlc"));
    }

    #[test]
    fn missing_and_corrupt_entries_are_misses() {
        let store = temp_store("corrupt");
        assert!(store.load(42).is_none());
        fs::write(store.entry_path(42), "{not json").expect("write corrupt entry");
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
        let dir = temp_store("damaged").path().to_path_buf();
        let cold = front_bytes(&search(&DiskStore::open(&dir).expect("store opens")));
        let unknown = "f".repeat(32);
        type Damage = fn(manifest: &Path, blob: &Path, hash: &str);
        let damages: [(&str, Damage); 4] = [
            ("truncated blob", |_, blob, _| {
                let text = fs::read_to_string(blob).expect("blob reads");
                fs::write(blob, &text[..text.len() / 2]).expect("truncate");
            }),
            ("deleted blob", |_, blob, _| {
                fs::remove_file(blob).expect("delete");
            }),
            ("blob no longer matching its hash", |_, blob, _| {
                // Still valid JSON, so only the hash check can catch it.
                let text = fs::read_to_string(blob).expect("blob reads");
                let at = text.find(|c: char| c.is_ascii_digit()).expect("a digit");
                let digit = if &text[at..=at] == "1" { "2" } else { "1" };
                fs::write(blob, format!("{}{digit}{}", &text[..at], &text[at + 1..]))
                    .expect("rewrite");
            }),
            ("manifest naming an unknown hash", |manifest, _, hash| {
                let text = fs::read_to_string(manifest).expect("manifest reads");
                fs::write(manifest, text.replace(hash, &"f".repeat(32))).expect("rewrite");
            }),
        ];
        for (what, damage) in damages {
            let store = DiskStore::open(&dir).expect("store opens");
            let (key, eval) = manifests(&store)
                .into_iter()
                .find_map(|(key, m)| m.eval.map(|eval| (key, eval)))
                .expect("a feasible entry");
            let (_, hash) = &eval.functions[0];
            assert_ne!(hash, &unknown);
            let original = serde_json::to_string(&store.load(key)).expect("serializes");
            let blob = dir.join(FUNCTION_BLOBS).join(format!("{hash}.{ENTRY_EXT}"));
            damage(&store.entry_path(key), &blob, hash);

            let fresh = DiskStore::open(&dir).expect("store opens");
            assert!(fresh.load(key).is_none(), "{what} must load as a miss");
            assert_eq!(fresh.stats().corrupt_misses, 1, "{what}");

            // An EvalCache over the damaged store recompiles what it
            // cannot load and rewrites the entry ...
            let repair = DiskStore::open(&dir).expect("store opens");
            let repaired = search(&repair);
            assert!(repaired.stats.disk_misses > 0, "{what}: nothing recompiled");
            assert_eq!(front_bytes(&repaired), cold, "{what}: repaired front");
            let reloaded = DiskStore::open(&dir).expect("store opens").load(key);
            assert_eq!(
                serde_json::to_string(&reloaded).expect("serializes"),
                original,
                "{what}: rewritten entry"
            );
            // ... after which a fresh handle is served entirely from disk.
            let warm = search(&DiskStore::open(&dir).expect("store opens"));
            assert_eq!(warm.stats.disk_misses, 0, "{what}: warm rerun compiled");
            assert_eq!(warm.stats.disk_hits, warm.stats.cache_misses);
            assert_eq!(front_bytes(&warm), cold, "{what}: warm front");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_rerun_decodes_each_distinct_blob_once() {
        let store = temp_store("counters");
        let cold = search(&store);
        let footprint = store.footprint();
        let written = store.stats();
        assert_eq!(written.write_failures, 0);
        // Single-threaded, each manifest and each distinct blob is
        // committed exactly once.
        assert_eq!(written.bytes_written, footprint.bytes);
        assert_eq!(footprint.entries, cold.stats.cache_misses);

        let warm_store = DiskStore::open(store.path()).expect("store reopens");
        let warm = search(&warm_store);
        assert_eq!(warm.stats.disk_misses, 0);
        assert_eq!(front_bytes(&warm), front_bytes(&cold));

        let mut references = 0;
        let mut distinct = HashSet::new();
        for (_, manifest) in manifests(&store) {
            let Some(eval) = manifest.eval else { continue };
            references += 1 + eval.functions.len();
            distinct.insert((GLOBALS_BLOBS, eval.globals));
            for (_, hash) in eval.functions {
                distinct.insert((FUNCTION_BLOBS, hash));
            }
        }
        assert!(references > distinct.len(), "configurations share blobs");
        assert_eq!(distinct.len(), footprint.blobs);

        let stats = warm_store.stats();
        assert_eq!(stats.loads as usize, footprint.entries);
        assert_eq!((stats.hits, stats.corrupt_misses), (stats.loads, 0));
        assert_eq!(stats.blobs_decoded as usize, distinct.len());
        assert_eq!(
            (stats.blobs_decoded + stats.blob_memo_hits) as usize,
            references
        );
        // Every manifest and every distinct blob is read exactly once.
        assert_eq!(stats.bytes_read, footprint.bytes);
        assert_eq!((stats.bytes_written, stats.write_failures), (0, 0));
        let _ = fs::remove_dir_all(store.path());
    }

    #[test]
    fn failed_writes_leave_no_temp_file() {
        let store = temp_store("failed-writes");
        let dest = store.entry_path(1);
        // A rename onto a non-empty directory fails after the write.
        fs::create_dir_all(dest.join("occupied")).expect("occupy the slot");
        store.store_score(1, &Some(1.0));
        assert_eq!(store.stats().write_failures, 1);
        // A write that fails part-way (a full disk) must not leak the
        // temp file either.
        #[cfg(unix)]
        if Path::new("/dev/full").exists() {
            let tmp = store.path().join("full.tmp.0.0");
            std::os::unix::fs::symlink("/dev/full", &tmp).expect("symlink");
            assert!(!store.commit_via(&tmp, &store.entry_path(2), "{}"));
            assert!(fs::symlink_metadata(&tmp).is_err(), "temp file leaked");
            assert!(!store.entry_path(2).exists());
            assert_eq!(store.stats().write_failures, 2);
        }
        let leftovers: Vec<_> = fs::read_dir(store.path())
            .expect("store dir")
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "leaked {leftovers:?}");
        assert_eq!(store.stats().bytes_written, 0);
        let _ = fs::remove_dir_all(store.path());
    }

    #[test]
    fn nesting_past_the_reader_limit_loads_as_a_miss() {
        let store = temp_store("deep");
        let deep = "[".repeat(20_000);
        // A damaged manifest that is nothing but brackets, and a valid
        // manifest carrying a deep value in a field it does not know.
        fs::write(store.entry_path(1), &deep).expect("write deep manifest");
        let hidden = format!(r#"{{"eval":null,"junk":{deep}0{}}}"#, "]".repeat(20_000));
        fs::write(store.entry_path(2), hidden).expect("write deep field");
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
        let files = |dir: &Path| -> Vec<String> {
            committed(dir)
                .map(|e| fs::read_to_string(e.path()).expect("file reads"))
                .collect()
        };
        fn same<T: Serialize + Deserialize>(text: &str) {
            let value: T = serde_json::from_str(text).expect("file decodes");
            assert_eq!(serde_json::to_string(&value).expect("serializes"), text);
        }
        let (functions, globals) = (
            files(&store.path().join(FUNCTION_BLOBS)),
            files(&store.path().join(GLOBALS_BLOBS)),
        );
        let entries = files(store.path());
        assert!(!functions.is_empty() && !globals.is_empty() && !entries.is_empty());
        functions.iter().for_each(|text| same::<Function>(text));
        globals.iter().for_each(|text| same::<Globals>(text));
        entries.iter().for_each(|text| same::<Manifest>(text));
        let _ = fs::remove_dir_all(store.path());
    }
}
