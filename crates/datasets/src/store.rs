//! Process-wide memoisation of generated datasets.
//!
//! The repro harness runs many experiments back to back, and most of them
//! ask for the same registry graphs and sampling corpora. Generation is
//! deterministic — a spec name plus an edge budget (or a corpus size plus
//! a seed) fully determines the result — so the graphs can be built once
//! and shared immutably.
//!
//! [`graph`] and [`corpus`] return [`Arc`]s out of a process-wide map;
//! repeated calls with the same key are pointer-equal. Entries are built
//! outside the map lock so independent graphs can generate concurrently on
//! the shim pool, with per-key in-flight tracking so two racing callers of
//! the *same* key build it only once. The map itself, [`Memo`], is public:
//! the repro harness memoises its kernel-sweep records in another.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use crate::registry::DatasetSpec;
use crate::sampling::sampling_corpus;
use hpsparse_sparse::Graph;

/// Key for a registry graph: the spec name and the edge budget it was
/// scaled to. (`DatasetSpec::generate` output is a pure function of both —
/// the RNG is seeded from the name.)
type GraphKey = (&'static str, usize);

/// Key for a sampling corpus: `(count, seed)`.
type CorpusKey = (usize, u64);

/// A build-once map from keys to shared immutable values.
pub struct Memo<K, V> {
    /// `None` while some thread is generating the entry; `Some` when ready.
    slots: Mutex<HashMap<K, Option<Arc<V>>>>,
    ready: Condvar,
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        Self {
            slots: Mutex::default(),
            ready: Condvar::default(),
        }
    }
}

impl<K: std::hash::Hash + Eq + Clone, V> Memo<K, V> {
    /// The value for `key`, running `build` (outside the map lock) only if
    /// no caller has built or is building it; racing callers of one key
    /// wait for the first and get the same `Arc`.
    pub fn get_or_build(&self, key: K, build: impl FnOnce() -> V) -> Arc<V> {
        {
            let mut slots = self.slots.lock().unwrap();
            loop {
                match slots.get(&key) {
                    Some(Some(v)) => return Arc::clone(v),
                    Some(None) => {
                        // Another thread is generating this entry; wait for
                        // it rather than duplicating the work.
                        slots = self.ready.wait(slots).unwrap();
                    }
                    None => {
                        slots.insert(key.clone(), None);
                        break;
                    }
                }
            }
        }
        // Build outside the lock: different keys generate concurrently.
        let value = Arc::new(build());
        let mut slots = self.slots.lock().unwrap();
        slots.insert(key, Some(Arc::clone(&value)));
        self.ready.notify_all();
        value
    }
}

fn graph_store() -> &'static Memo<GraphKey, Graph> {
    static STORE: OnceLock<Memo<GraphKey, Graph>> = OnceLock::new();
    STORE.get_or_init(Memo::default)
}

fn corpus_store() -> &'static Memo<CorpusKey, Vec<Graph>> {
    static STORE: OnceLock<Memo<CorpusKey, Vec<Graph>>> = OnceLock::new();
    STORE.get_or_init(Memo::default)
}

/// Structurally validates a generated graph before it is memoised: a
/// corrupt adjacency matrix cached here would silently poison every
/// downstream experiment, so generator bugs fail loudly at build time.
fn validated(graph: Graph, what: &str) -> Graph {
    if let Err(e) = graph.adjacency().validate() {
        panic!("dataset store: generated {what} violates CSR invariants: {e:?}");
    }
    graph
}

/// Returns `spec.generate(max_edges)`, memoised process-wide: the second
/// request for the same `(name, max_edges)` returns the same `Arc` without
/// regenerating. The generated adjacency is structurally validated before
/// entering the cache.
pub fn graph(spec: &DatasetSpec, max_edges: usize) -> Arc<Graph> {
    graph_store().get_or_build((spec.name, max_edges), || {
        let _span = hpsparse_trace::span_with(
            &format!("graph:{}", spec.name),
            &[("max_edges", serde_json::json!(max_edges))],
        );
        validated(spec.generate(max_edges), spec.name)
    })
}

/// Returns `sampling_corpus(count, seed)`, memoised process-wide. Every
/// sampled subgraph is structurally validated before entering the cache.
pub fn corpus(count: usize, seed: u64) -> Arc<Vec<Graph>> {
    corpus_store().get_or_build((count, seed), || {
        let _span = hpsparse_trace::span_with(
            "graph:sampling-corpus",
            &[("count", serde_json::json!(count))],
        );
        sampling_corpus(count, seed)
            .into_iter()
            .enumerate()
            .map(|(i, g)| validated(g, &format!("corpus subgraph {i}")))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::by_name;

    #[test]
    fn same_key_returns_the_same_arc_with_identical_edges() {
        let spec = by_name("CoraFull").expect("CoraFull is in the registry");
        let a = graph(&spec, 50_000);
        let b = graph(&spec, 50_000);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the cache");
        // And the cached graph is the generation result, not a stand-in:
        // identical adjacency (Graph: PartialEq compares the full CSR).
        let fresh = spec.generate(50_000);
        assert_eq!(*a, fresh);
    }

    #[test]
    fn different_edge_budgets_are_distinct_entries() {
        let spec = by_name("CoraFull").expect("CoraFull is in the registry");
        let a = graph(&spec, 50_000);
        let b = graph(&spec, 40_000);
        assert!(!Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn corpus_is_memoised_by_count_and_seed() {
        let a = corpus(4, 0xc0ffee);
        let b = corpus(4, 0xc0ffee);
        assert!(Arc::ptr_eq(&a, &b));
        let c = corpus(4, 0xbeef);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn concurrent_requests_build_once() {
        let spec = by_name("AIFB").expect("AIFB is in the registry");
        let arcs: Vec<Arc<Graph>> = (0..8)
            .map(|_| std::thread::spawn(move || graph(&spec, 30_000)))
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect();
        for other in &arcs[1..] {
            assert!(Arc::ptr_eq(&arcs[0], other));
        }
    }
}
