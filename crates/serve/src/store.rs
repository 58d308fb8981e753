//! The daemon's named-circuit store: upload a netlist once, then submit
//! jobs by `circuit_id` and sweep seeds/methods/ε against a shared
//! read-only hypergraph.
//!
//! Circuits persist as canonical `.hgb` snapshots under one store
//! directory (`<dir>/<id>.hgb`), written atomically (temp file +
//! `rename`) so a concurrent reader never observes a partial file — the
//! invariant that makes building graphs on mappings of store files
//! sound. A circuit is cached as an `Arc<Hypergraph>` built on the
//! mapping of its store file, so the N jobs of a sweep share one mapped
//! image instead of N copies; the mapping lives as long as the cache
//! entry or a job holding it. The cache never holds a graph backed by a
//! file outside the store.
//!
//! Circuit ids are restricted to `[A-Za-z0-9_.-]` with no leading dot:
//! the id is used as a file name, and the alphabet rules out path
//! traversal (`..`, separators) by construction.

use prop_netlist::hgb;
use prop_netlist::Hypergraph;
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Longest admissible circuit id.
pub const MAX_CIRCUIT_ID_LEN: usize = 64;

/// An error from a store operation, already shaped for a wire error
/// response (`code()` is the machine-readable error tag).
#[derive(Clone, PartialEq, Debug)]
pub enum StoreError {
    /// The id violates the `[A-Za-z0-9_.-]` / no-leading-dot / length
    /// rules.
    InvalidId(String),
    /// No stored circuit has this id.
    Unknown(String),
    /// The netlist bytes failed to parse or validate.
    Invalid(String),
    /// The circuit is pinned by queued or running work and cannot be
    /// evicted — a queued job would find its circuit gone.
    Busy(String),
    /// A filesystem operation failed.
    Io(String),
}

impl StoreError {
    /// Machine-readable error tag for wire responses.
    pub fn code(&self) -> &'static str {
        match self {
            StoreError::InvalidId(_) => "invalid_circuit_id",
            StoreError::Unknown(_) => "unknown_circuit",
            StoreError::Invalid(_) => "invalid_netlist",
            StoreError::Busy(_) => "circuit_busy",
            StoreError::Io(_) => "store_io",
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::InvalidId(id) => write!(
                f,
                "invalid circuit id {id:?} (use 1-{MAX_CIRCUIT_ID_LEN} of [A-Za-z0-9_.-], no leading dot)"
            ),
            StoreError::Unknown(id) => write!(f, "unknown circuit {id:?}"),
            StoreError::Invalid(m) => write!(f, "invalid netlist: {m}"),
            StoreError::Busy(id) => {
                write!(f, "circuit {id:?} is referenced by queued or running work")
            }
            StoreError::Io(m) => write!(f, "store I/O failure: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Stats of one stored circuit, as reported by the `circuits` verb.
/// Produced from the `.hgb` header alone — listing a store of
/// multi-million-node circuits stays O(header) per file.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StoredCircuit {
    /// The circuit id.
    pub id: String,
    /// Number of nodes.
    pub nodes: u64,
    /// Number of nets.
    pub nets: u64,
    /// Number of pins.
    pub pins: u64,
    /// Snapshot size on disk in bytes.
    pub bytes: u64,
    /// Whether the circuit is currently materialized in the cache.
    pub cached: bool,
}

/// The named-circuit store: a directory of `.hgb` snapshots plus an
/// in-memory cache of materialized hypergraphs.
pub struct CircuitStore {
    dir: PathBuf,
    cache: Mutex<HashMap<String, Arc<Hypergraph>>>,
    /// Reference counts of circuits held by queued or running work
    /// (jobs and batches). A pinned circuit refuses `evict` with
    /// [`StoreError::Busy`] — work admitted against a circuit must find
    /// it when it runs. (A running job's graph keeps its own mapping
    /// alive, so eviction never unmaps a file under a job.)
    pins: Mutex<HashMap<String, usize>>,
}

/// Whether `id` is an admissible circuit id (file-name-safe by
/// construction: no separators, no `..`, no hidden files).
pub fn valid_circuit_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= MAX_CIRCUIT_ID_LEN
        && !id.starts_with('.')
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

impl CircuitStore {
    /// A store rooted at `dir` (created lazily on first write).
    pub fn new(dir: impl Into<PathBuf>) -> CircuitStore {
        CircuitStore {
            dir: dir.into(),
            cache: Mutex::new(HashMap::new()),
            pins: Mutex::new(HashMap::new()),
        }
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn file_of(&self, id: &str) -> Result<PathBuf, StoreError> {
        if !valid_circuit_id(id) {
            return Err(StoreError::InvalidId(id.to_string()));
        }
        Ok(self.dir.join(format!("{id}.hgb")))
    }

    fn cache(&self) -> std::sync::MutexGuard<'_, HashMap<String, Arc<Hypergraph>>> {
        self.cache.lock().expect("circuit store cache lock")
    }

    /// Persists `graph` under `id` (atomic temp-file + rename write of
    /// the canonical `.hgb` image) and caches the graph loaded back from
    /// that store file. The given graph is dropped, so a graph mapped
    /// from a client's file (a `path=` upload) is never cached.
    /// Re-uploading an id replaces its snapshot.
    pub fn put(&self, id: &str, graph: Hypergraph) -> Result<StoredCircuit, StoreError> {
        let path = self.file_of(id)?;
        std::fs::create_dir_all(&self.dir).map_err(|e| StoreError::Io(e.to_string()))?;
        hgb::write_hgb_file(&graph, &path).map_err(|e| StoreError::Io(e.to_string()))?;
        drop(graph);
        let (graph, bytes) = load(id, &path)?;
        let info = StoredCircuit {
            id: id.to_string(),
            nodes: graph.num_nodes() as u64,
            nets: graph.num_nets() as u64,
            pins: graph.num_pins() as u64,
            bytes: bytes as u64,
            cached: true,
        };
        self.cache().insert(id.to_string(), Arc::new(graph));
        Ok(info)
    }

    /// The hypergraph for `id`: the cached `Arc` when the circuit is
    /// warm, otherwise mapped from its `.hgb` snapshot and cached for the
    /// next job in the sweep.
    pub fn get(&self, id: &str) -> Result<Arc<Hypergraph>, StoreError> {
        let path = self.file_of(id)?;
        if let Some(graph) = self.cache().get(id) {
            return Ok(Arc::clone(graph));
        }
        let graph = Arc::new(load(id, &path)?.0);
        self.cache()
            .entry(id.to_string())
            .or_insert_with(|| Arc::clone(&graph));
        Ok(graph)
    }

    /// Whether `id` is stored (cached or on disk) — the cheap existence
    /// probe `submit circuit_id=` uses to reject unknown ids at admission
    /// time instead of at job run time.
    pub fn contains(&self, id: &str) -> Result<bool, StoreError> {
        let path = self.file_of(id)?;
        Ok(self.cache().contains_key(id) || path.is_file())
    }

    /// Lists the stored circuits (sorted by id), with header-only stats:
    /// each `.hgb` is opened and structurally validated but no section
    /// payload is read.
    pub fn list(&self) -> Result<Vec<StoredCircuit>, StoreError> {
        let mut out = Vec::new();
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            // An empty store directory may not exist yet.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(StoreError::Io(e.to_string())),
        };
        let cache = self.cache();
        for entry in entries {
            let entry = entry.map_err(|e| StoreError::Io(e.to_string()))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(id) = name.strip_suffix(".hgb") else {
                continue;
            };
            if !valid_circuit_id(id) {
                continue; // temp files and foreign content
            }
            let file = hgb::HgbFile::open(&entry.path()).map_err(|e| StoreError::Io(e.to_string()))?;
            let stats = hgb::peek_stats(file.bytes())
                .map_err(|e| StoreError::Invalid(format!("{name}: {e}")))?;
            out.push(StoredCircuit {
                id: id.to_string(),
                nodes: stats.nodes,
                nets: stats.nets,
                pins: stats.pins,
                bytes: file.bytes().len() as u64,
                cached: cache.contains_key(id),
            });
        }
        out.sort_by(|a, b| a.id.cmp(&b.id));
        Ok(out)
    }

    /// Pins `id` against eviction for the lifetime of one queued or
    /// running piece of work. Pins nest (a batch and its sub-jobs may
    /// each hold one); every pin must be paired with an [`unpin`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Unknown`] when no such circuit is stored — pinning
    /// happens at admission time, where the existence probe lives.
    ///
    /// [`unpin`]: CircuitStore::unpin
    pub fn pin(&self, id: &str) -> Result<(), StoreError> {
        if !self.contains(id)? {
            return Err(StoreError::Unknown(id.to_string()));
        }
        *self
            .pins
            .lock()
            .expect("circuit store pin lock")
            .entry(id.to_string())
            .or_insert(0) += 1;
        Ok(())
    }

    /// Releases one pin on `id`. A no-op for unpinned ids, so release
    /// paths (job finish, rejected admission, batch teardown) can call
    /// it unconditionally.
    pub fn unpin(&self, id: &str) {
        let mut pins = self.pins.lock().expect("circuit store pin lock");
        if let Some(count) = pins.get_mut(id) {
            *count -= 1;
            if *count == 0 {
                pins.remove(id);
            }
        }
    }

    /// Whether `id` is currently pinned by queued or running work.
    pub fn pinned(&self, id: &str) -> bool {
        self.pins
            .lock()
            .expect("circuit store pin lock")
            .contains_key(id)
    }

    /// The raw `.hgb` snapshot bytes of `id` — what a coordinator ships
    /// to a worker that lacks the circuit (store-to-store transfer).
    /// Reads the on-disk image; falls back to re-serializing the cached
    /// graph when only the cache holds it.
    ///
    /// # Errors
    ///
    /// [`StoreError::Unknown`] when the circuit is not stored,
    /// [`StoreError::Io`] on read failures.
    pub fn snapshot_bytes(&self, id: &str) -> Result<Vec<u8>, StoreError> {
        let path = self.file_of(id)?;
        match std::fs::read(&path) {
            Ok(bytes) => Ok(bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => match self.cache().get(id) {
                Some(graph) => Ok(hgb::write_hgb(graph)),
                None => Err(StoreError::Unknown(id.to_string())),
            },
            Err(e) => Err(StoreError::Io(e.to_string())),
        }
    }

    /// Removes `id` from the cache and deletes its snapshot. Returns
    /// whether the circuit existed.
    ///
    /// # Errors
    ///
    /// [`StoreError::Busy`] while the circuit is pinned by queued or
    /// running work.
    pub fn evict(&self, id: &str) -> Result<bool, StoreError> {
        let path = self.file_of(id)?;
        if self.pinned(id) {
            return Err(StoreError::Busy(id.to_string()));
        }
        let cached = self.cache().remove(id).is_some();
        match std::fs::remove_file(&path) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(cached),
            Err(e) => Err(StoreError::Io(e.to_string())),
        }
    }
}

/// Maps and validates the store file of `id`, returning the graph built
/// on it and the file's size in bytes.
fn load(id: &str, path: &Path) -> Result<(Hypergraph, usize), StoreError> {
    match hgb::load_hgb(path) {
        Ok((graph, report)) => Ok((graph, report.bytes)),
        Err(hgb::HgbLoadError::Io(io)) if io.kind() == std::io::ErrorKind::NotFound => {
            Err(StoreError::Unknown(id.to_string()))
        }
        Err(hgb::HgbLoadError::Io(io)) => Err(StoreError::Io(io.to_string())),
        Err(hgb::HgbLoadError::Format(f)) => Err(StoreError::Invalid(f.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prop_netlist::generate::{generate, GeneratorConfig};

    fn test_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("prop-store-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn small_graph(seed: u64) -> Hypergraph {
        generate(&GeneratorConfig::new(30, 34, 120).with_seed(seed)).unwrap()
    }

    #[test]
    fn id_validation() {
        assert!(valid_circuit_id("golem4"));
        assert!(valid_circuit_id("a-b_c.1"));
        assert!(!valid_circuit_id(""));
        assert!(!valid_circuit_id(".hidden"));
        assert!(!valid_circuit_id("a/b"));
        assert!(!valid_circuit_id("a b"));
        assert!(!valid_circuit_id("ü"));
        assert!(!valid_circuit_id(&"x".repeat(MAX_CIRCUIT_ID_LEN + 1)));
        assert!(valid_circuit_id(&"x".repeat(MAX_CIRCUIT_ID_LEN)));
        // `..` never forms a path escape: the stored name is "<id>.hgb"
        // inside dir, and ids cannot contain separators.
        assert!(valid_circuit_id("a..b"));
    }

    #[test]
    fn put_get_list_evict_lifecycle() {
        let dir = test_dir("lifecycle");
        let store = CircuitStore::new(&dir);
        assert_eq!(store.list().unwrap(), vec![], "empty before first write");
        assert!(!store.contains("c1").unwrap());

        let g1 = small_graph(1);
        let info = store.put("c1", g1.clone()).unwrap();
        assert_eq!(info.nodes, 30);
        assert!(info.cached);
        assert!(store.contains("c1").unwrap());
        assert_eq!(*store.get("c1").unwrap(), g1);

        store.put("c2", small_graph(2)).unwrap();
        let listed = store.list().unwrap();
        assert_eq!(
            listed.iter().map(|c| c.id.as_str()).collect::<Vec<_>>(),
            vec!["c1", "c2"]
        );

        assert!(store.evict("c1").unwrap());
        assert!(!store.evict("c1").unwrap(), "second evict reports absence");
        assert!(matches!(store.get("c1"), Err(StoreError::Unknown(_))));
        assert_eq!(store.list().unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn get_survives_cold_cache() {
        let dir = test_dir("cold");
        let g = small_graph(7);
        {
            let store = CircuitStore::new(&dir);
            store.put("cold", g.clone()).unwrap();
        }
        // A fresh store (fresh cache) loads from the .hgb snapshot.
        let store = CircuitStore::new(&dir);
        let listed = store.list().unwrap();
        assert_eq!(listed.len(), 1);
        assert!(!listed[0].cached);
        assert_eq!(*store.get("cold").unwrap(), g);
        assert!(store.list().unwrap()[0].cached, "get warms the cache");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweeps_share_one_materialized_graph() {
        let dir = test_dir("shared");
        let store = CircuitStore::new(&dir);
        store.put("s", small_graph(3)).unwrap();
        let a = store.get("s").unwrap();
        let b = store.get("s").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "jobs share the cached Arc");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn invalid_ids_are_rejected_everywhere() {
        let dir = test_dir("invalid");
        let store = CircuitStore::new(&dir);
        for id in ["", "../escape", "a/b", ".dot"] {
            assert!(matches!(store.put(id, small_graph(1)), Err(StoreError::InvalidId(_))));
            assert!(matches!(store.get(id), Err(StoreError::InvalidId(_))));
            assert!(matches!(store.evict(id), Err(StoreError::InvalidId(_))));
            assert!(matches!(store.contains(id), Err(StoreError::InvalidId(_))));
        }
        assert!(!dir.exists(), "no write ever happened");
    }

    #[test]
    fn pinned_circuits_refuse_eviction() {
        let dir = test_dir("pins");
        let store = CircuitStore::new(&dir);
        let g = small_graph(6);
        store.put("busy", g.clone()).unwrap();

        store.pin("busy").unwrap();
        store.pin("busy").unwrap(); // pins nest
        let err = store.evict("busy").unwrap_err();
        assert!(matches!(err, StoreError::Busy(_)));
        assert_eq!(err.code(), "circuit_busy");
        assert!(store.contains("busy").unwrap(), "nothing was removed");
        assert_eq!(*store.get("busy").unwrap(), g, "still mapped and readable");

        store.unpin("busy");
        assert!(store.evict("busy").is_err(), "one pin still held");
        store.unpin("busy");
        assert!(!store.pinned("busy"));
        assert!(store.evict("busy").unwrap(), "unpinned circuit evicts");

        // Pinning a missing circuit is an admission-time error; unpin
        // of an unpinned id is a safe no-op.
        assert!(matches!(store.pin("ghost"), Err(StoreError::Unknown(_))));
        store.unpin("ghost");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_bytes_round_trip_through_a_second_store() {
        let dir_a = test_dir("snap-a");
        let dir_b = test_dir("snap-b");
        let a = CircuitStore::new(&dir_a);
        let b = CircuitStore::new(&dir_b);
        let g = small_graph(8);
        a.put("xfer", g.clone()).unwrap();

        // The store-to-store transfer path: ship raw .hgb bytes, parse
        // on the receiving side, store under the same id.
        let bytes = a.snapshot_bytes("xfer").unwrap();
        let parsed = hgb::parse_hgb(&bytes).unwrap();
        b.put("xfer", parsed).unwrap();
        assert_eq!(*b.get("xfer").unwrap(), g);

        assert!(matches!(a.snapshot_bytes("ghost"), Err(StoreError::Unknown(_))));
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }

    #[test]
    fn corrupt_snapshot_reports_invalid() {
        let dir = test_dir("corrupt");
        let store = CircuitStore::new(&dir);
        store.put("ok", small_graph(4)).unwrap();
        std::fs::write(dir.join("bad.hgb"), b"not a snapshot").unwrap();
        // A fresh store has no cache entry, so the corrupt bytes are hit.
        let fresh = CircuitStore::new(&dir);
        assert!(matches!(fresh.get("bad"), Err(StoreError::Invalid(_))));
        assert!(fresh.list().is_err(), "listing surfaces the corruption");
        std::fs::remove_dir_all(&dir).ok();
    }
}
