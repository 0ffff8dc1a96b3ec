//! The plan cache: plan once per sparse shape, replay everywhere.
//!
//! In memory the cache is a `BTreeMap` keyed by `(op, fingerprint key)`
//! with hit/miss counters, so a backend can prove (and tests assert) that
//! warm lookups never touch the simulator. [`PlanCache::save`] /
//! [`PlanCache::load`] persist it as JSON: entries carry the fingerprint's
//! canonical encoding alongside the plan, so a cache file is
//! self-describing and survives across processes — the "train the same
//! graph tomorrow without re-tuning" path.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use hpsparse_core::catalog::Op;
use hpsparse_core::hp::HpConfig;
use serde_json::{json, Value};

use crate::fingerprint::GraphFingerprint;
use crate::planner::Plan;

/// One cached decision.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedPlan {
    /// The fingerprint's canonical encoding (hash pre-image), persisted so
    /// cache files can be audited and collisions detected.
    pub fingerprint: String,
    /// The plan to replay.
    pub plan: Plan,
}

/// In-memory plan store with hit/miss accounting and JSON persistence.
#[derive(Debug, Clone, Default)]
pub struct PlanCache {
    entries: BTreeMap<(Op, u64), CachedPlan>,
    hits: u64,
    misses: u64,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up a plan, counting a hit or a miss.
    pub fn get(&mut self, op: Op, key: u64) -> Option<&Plan> {
        match self.entries.get(&(op, key)) {
            Some(entry) => {
                self.hits += 1;
                hpsparse_trace::counter_add("autotune.plan_cache.hit", 1);
                Some(&entry.plan)
            }
            None => {
                self.misses += 1;
                hpsparse_trace::counter_add("autotune.plan_cache.miss", 1);
                None
            }
        }
    }

    /// [`Self::get`] for `op` on the input `fp` fingerprints (`heads` is
    /// read for [`Op::FusedMha`] only, [`GraphFingerprint::cache_entry`]):
    /// an empty cache counts its miss without building the key.
    pub fn get_for(&mut self, op: Op, fp: &GraphFingerprint, heads: usize) -> Option<&Plan> {
        if self.entries.is_empty() {
            self.misses += 1;
            hpsparse_trace::counter_add("autotune.plan_cache.miss", 1);
            return None;
        }
        self.get(op, fp.cache_entry(op, heads).0)
    }

    /// Stores a plan under `(op, key)`. `fingerprint` is the canonical
    /// encoding the key was hashed from.
    pub fn insert(&mut self, op: Op, key: u64, fingerprint: String, plan: Plan) {
        self.entries
            .insert((op, key), CachedPlan { fingerprint, plan });
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookups served from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that required planning so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Serialises the cache (entries only; counters are runtime state).
    pub fn to_json_string(&self) -> String {
        let entries: Vec<Value> = self
            .entries
            .iter()
            .map(|((op, key), entry)| {
                let config = match &entry.plan.config {
                    Some(c) => json!({
                        "nnz_per_warp": c.nnz_per_warp,
                        "vector_width": c.vector_width,
                        "warps_per_block": c.warps_per_block,
                        "alpha": c.alpha
                    }),
                    None => Value::Null,
                };
                json!({
                    "op": tag(*op),
                    "key": format!("{key:016x}"),
                    "fingerprint": entry.fingerprint.as_str(),
                    "kernel_id": entry.plan.kernel_id.as_str(),
                    "config": config,
                    "predicted_cycles": entry.plan.predicted_cycles,
                    "rationale": entry.plan.rationale.as_str()
                })
            })
            .collect();
        let doc = json!({"version": 1u32, "entries": entries});
        // Invariant: serialising a `Value` cannot fail (a non-finite float
        // is written as `null`).
        serde_json::to_string_pretty(&doc).expect("plan cache serialises")
    }

    /// Deserialises a cache written by [`Self::to_json_string`]. Unknown
    /// versions are rejected; malformed entries — unparsable fields, or a
    /// configuration that fails [`HpConfig::is_launchable`] — are skipped
    /// (a stale or corrupt cache degrades to extra planning, never to an
    /// error at startup or a kernel that cannot launch).
    pub fn from_json_str(text: &str) -> Result<Self, serde_json::Error> {
        let doc = serde_json::from_str(text)?;
        let mut cache = Self::new();
        if doc.get("version").and_then(Value::as_u64) != Some(1) {
            return Ok(cache);
        }
        let Some(entries) = doc.get("entries").and_then(Value::as_array) else {
            return Ok(cache);
        };
        for e in entries {
            let Some((op, key, entry)) = parse_entry(e) else {
                continue;
            };
            cache.entries.insert((op, key), entry);
        }
        Ok(cache)
    }

    /// Writes the cache to `path` (pretty JSON).
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_json_string())
    }

    /// Loads a cache from `path`. A missing file yields an empty cache —
    /// first runs should not need special-casing.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref();
        if !path.exists() {
            return Ok(Self::new());
        }
        let text = std::fs::read_to_string(path)?;
        Self::from_json_str(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

/// An operation's stable tag in a persisted cache.
fn tag(op: Op) -> &'static str {
    match op {
        Op::Spmm => "spmm",
        Op::Sddmm => "sddmm",
        Op::FusedMha => "fused-mha",
    }
}

/// The operation a persisted tag names.
fn op_of(tag: &str) -> Option<Op> {
    match tag {
        "spmm" => Some(Op::Spmm),
        "sddmm" => Some(Op::Sddmm),
        "fused-mha" => Some(Op::FusedMha),
        _ => None,
    }
}

fn parse_entry(e: &Value) -> Option<(Op, u64, CachedPlan)> {
    let op = op_of(e.get("op")?.as_str()?)?;
    let key = u64::from_str_radix(e.get("key")?.as_str()?, 16).ok()?;
    let config = match e.get("config") {
        None | Some(Value::Null) => None,
        Some(c) => {
            let field = |name: &str| c.get(name)?.as_u64();
            let config = HpConfig {
                nnz_per_warp: usize::try_from(field("nnz_per_warp")?).ok()?,
                vector_width: u32::try_from(field("vector_width")?).ok()?,
                warps_per_block: u32::try_from(field("warps_per_block")?).ok()?,
                alpha: c.get("alpha")?.as_f64()?,
            };
            // A config no kernel can launch with (a zero width or block
            // size from a corrupt or hand-edited file) is a malformed entry.
            if !config.is_launchable() {
                return None;
            }
            Some(config)
        }
    };
    Some((
        op,
        key,
        CachedPlan {
            fingerprint: e.get("fingerprint")?.as_str()?.to_string(),
            plan: Plan {
                kernel_id: e.get("kernel_id")?.as_str()?.to_string(),
                config,
                predicted_cycles: e.get("predicted_cycles")?.as_u64()?,
                rationale: e.get("rationale")?.as_str()?.to_string(),
            },
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan(with_config: bool) -> Plan {
        Plan {
            kernel_id: if with_config {
                "hp:npw=256".into()
            } else {
                "gespmm".into()
            },
            config: with_config.then_some(HpConfig {
                nnz_per_warp: 256,
                vector_width: 4,
                warps_per_block: 8,
                alpha: 4.0,
            }),
            predicted_cycles: 123_456,
            rationale: "measured 12/18 candidates; \"quoted\" and\nmultiline".into(),
        }
    }

    #[test]
    fn counters_track_hits_and_misses() {
        let mut cache = PlanCache::new();
        assert!(cache.get(Op::Spmm, 7).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        cache.insert(Op::Spmm, 7, "fp".into(), sample_plan(true));
        assert!(cache.get(Op::Spmm, 7).is_some());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // Same key, other op: distinct slot.
        assert!(cache.get(Op::Sddmm, 7).is_none());
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn op_tags_round_trip() {
        for op in [Op::Spmm, Op::Sddmm, Op::FusedMha] {
            assert_eq!(op_of(tag(op)), Some(op));
        }
        assert_eq!(op_of("gemm"), None);
    }

    #[test]
    fn json_round_trip_preserves_plans_exactly() {
        let mut cache = PlanCache::new();
        cache.insert(Op::Spmm, 0xdead_beef_0042, "fp-a".into(), sample_plan(true));
        cache.insert(Op::Sddmm, u64::MAX, "fp-b".into(), sample_plan(false));
        let text = cache.to_json_string();
        let mut back = PlanCache::from_json_str(&text).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(
            back.get(Op::Spmm, 0xdead_beef_0042),
            Some(&sample_plan(true))
        );
        assert_eq!(back.get(Op::Sddmm, u64::MAX), Some(&sample_plan(false)));
        // Counters are runtime state, not persisted.
        assert_eq!(back.hits(), 2);
    }

    #[test]
    fn save_and_load_round_trip_on_disk() {
        let dir = std::env::temp_dir().join("hpsparse-autotune-cache-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plans.json");
        let mut cache = PlanCache::new();
        cache.insert(Op::Spmm, 42, "fp".into(), sample_plan(true));
        cache.save(&path).unwrap();
        let mut loaded = PlanCache::load(&path).unwrap();
        assert_eq!(loaded.get(Op::Spmm, 42), Some(&sample_plan(true)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_loads_as_empty() {
        let cache = PlanCache::load("/nonexistent/dir/plans.json");
        assert!(cache.is_ok_and(|c| c.is_empty()));
    }

    #[test]
    fn malformed_entries_are_skipped_not_fatal() {
        let text = r#"{"version": 1, "entries": [
            {"op": "spmm"},
            {"op": "warp-speed", "key": "2a", "fingerprint": "f", "kernel_id": "x",
             "config": null, "predicted_cycles": 1, "rationale": "r"},
            {"op": "sddmm", "key": "2a", "fingerprint": "f", "kernel_id": "dgl-sddmm",
             "config": null, "predicted_cycles": 9, "rationale": "ok"}
        ]}"#;
        let cache = PlanCache::from_json_str(text).unwrap();
        assert_eq!(cache.len(), 1, "only the well-formed entry survives");
    }

    #[test]
    fn unlaunchable_configs_are_malformed_entries() {
        let entry = |config: &str| {
            format!(
                r#"{{"version": 1, "entries": [{{"op": "spmm", "key": "2a", "fingerprint": "f",
                "kernel_id": "hp:npw=8", "config": {config}, "predicted_cycles": 1,
                "rationale": "r"}}]}}"#
            )
        };
        let ok = r#"{"nnz_per_warp": 8, "vector_width": 1, "warps_per_block": 8, "alpha": 4.0}"#;
        assert_eq!(PlanCache::from_json_str(&entry(ok)).unwrap().len(), 1);
        for bad in [
            ok.replace(r#""vector_width": 1"#, r#""vector_width": 0"#),
            ok.replace(r#""vector_width": 1"#, r#""vector_width": 4294967297"#),
            ok.replace(r#""warps_per_block": 8"#, r#""warps_per_block": 0"#),
            ok.replace(
                r#""warps_per_block": 8"#,
                r#""warps_per_block": 4294967304"#,
            ),
            ok.replace(r#""nnz_per_warp": 8"#, r#""nnz_per_warp": 0"#),
            ok.replace(r#""alpha": 4.0"#, r#""alpha": -1.0"#),
        ] {
            let cache = PlanCache::from_json_str(&entry(&bad)).unwrap();
            assert!(cache.is_empty(), "{bad} must be skipped");
        }
    }

    #[test]
    fn a_deeply_nested_cache_is_an_error_not_a_crash() {
        let nested = format!(r#"{{"version": 1, "entries": {}"#, "[".repeat(100_000));
        assert!(PlanCache::from_json_str(&nested).is_err());
    }

    #[test]
    fn unknown_version_yields_empty_cache() {
        let cache = PlanCache::from_json_str(r#"{"version": 99, "entries": []}"#).unwrap();
        assert!(cache.is_empty());
    }
}
