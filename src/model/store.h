// Content-addressed on-disk store for trained agents.
//
// Layout under one root directory:
//   <root>/index.tsv       key \t spec-name \t file \t last-used
//                          (registration order; "rlbf-model-store v2" —
//                          v1 indexes without the last-used column are
//                          migrated transparently on open)
//   <root>/<key>.model     the agent (nn/serialize.h format, meta inside)
//   <root>/<key>.spec      the canonical TrainingSpec text the key hashes
//
// Keys are model::fingerprint() content addresses, so a lookup hit means
// "an agent trained under exactly this configuration already exists" —
// the train-once-reuse-everywhere contract `rlbf_run train` and the
// trained-agent scenarios are built on. The index is a convenience: when
// missing or stale it is rebuilt by scanning *.model files, so a store
// directory is self-describing and safe to rsync around.
//
// For shipping agents between machines without rsyncing a whole store,
// export_bundle()/import_bundle() pack chosen entries into a portable
// directory and re-verify every fingerprint on the way back in; for
// long-lived shared stores, evict_lru() enforces a size cap using the
// index's last-used column (touched on every lookup/load).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/agent.h"

namespace rlbf::model {

struct StoreEntry {
  std::string key;   // fingerprint (16 hex digits)
  std::string name;  // training-spec name at put() time ("" if unknown)
  std::string path;  // the .model file
  std::map<std::string, std::string> meta;  // as stored by Agent::save
  /// Logical LRU clock: bumped store-wide on every lookup()/load()/put()
  /// of this entry, persisted in index.tsv, 0 for never-used (or
  /// migrated-from-v1) entries. Drives evict_lru().
  std::uint64_t last_used = 0;
};

class Store {
 public:
  /// Opens (and creates, if needed) the store rooted at `root`.
  /// Throws std::runtime_error when the directory cannot be created.
  explicit Store(std::string root);

  /// Flushes any un-persisted LRU clock updates (best effort: reads must
  /// work against read-only stores, so a failed flush only warns).
  ~Store();

  const std::string& root() const { return root_; }

  bool contains(const std::string& key) const;

  /// Find an entry and touch its LRU clock (contains() does not touch).
  std::optional<StoreEntry> lookup(const std::string& key) const;

  /// Load the stored agent (touches the LRU clock). Throws
  /// std::runtime_error on unknown keys or unreadable model files.
  core::Agent load(const std::string& key) const;

  /// Commit an agent under `key`, overwriting any previous entry. `meta`
  /// is stored in the model file; `canonical` (may be empty) is written
  /// to the .spec sidecar. Throws std::runtime_error on I/O failure.
  StoreEntry put(const std::string& key, const core::Agent& agent,
                 const std::string& name,
                 const std::map<std::string, std::string>& meta,
                 const std::string& canonical = "");

  /// Entries in index order.
  std::vector<StoreEntry> list() const;

  /// Remove every entry whose key is NOT in `referenced` (model + spec
  /// sidecar files included). Returns the removed keys. An entry whose
  /// .model cannot actually be deleted stays in the index (and is
  /// logged), never half-forgotten: dropping it while the file survives
  /// would let a later scan rebuild resurrect it with stale meta.
  std::vector<std::string> prune(const std::vector<std::string>& referenced);

  struct EvictionResult {
    std::vector<std::string> removed;  // eviction order (least recent first)
    std::uint64_t bytes_before = 0;    // model+spec+ckpt bytes, all entries
    std::uint64_t bytes_after = 0;
  };

  /// Shrink the store to at most `max_bytes` of model/spec/checkpoint
  /// data by removing least-recently-used entries. Keys in `referenced`
  /// are never evicted, even when the store stays over the cap (the
  /// result's bytes_after tells); removal failures keep their entry,
  /// exactly like prune(). Ties on the LRU clock fall back to index
  /// (registration) order, so eviction is deterministic.
  EvictionResult evict_lru(std::uint64_t max_bytes,
                           const std::vector<std::string>& referenced = {});

  /// Pack exactly the given entries into the portable bundle directory
  /// `dir`: each entry's .model, its .spec sidecar when present, and a
  /// "bundle.tsv" manifest. An empty `keys` writes a valid, importable
  /// ZERO-entry bundle — what an empty `train --shard` ships, so a
  /// worker never leaks unrelated store contents into its bundle.
  /// Returns the exported keys. Throws std::runtime_error on unknown
  /// keys or I/O failure.
  std::vector<std::string> export_bundle(
      const std::string& dir, const std::vector<std::string>& keys) const;

  struct ImportReport {
    std::vector<std::string> imported;          // newly adopted keys
    std::vector<std::string> skipped_existing;  // already present (same address)
  };

  /// Import a bundle directory produced by export_bundle. Every entry is
  /// re-verified before adoption: the .model must load in full, its
  /// embedded fingerprint meta must equal the manifest key, and when a
  /// .spec sidecar is present the key must equal fnv1a_hex(sidecar) —
  /// a corrupt or mismatched model is rejected with a named
  /// std::runtime_error, never silently adopted. Entries whose key the
  /// store already holds are skipped (equal content addresses mean equal
  /// content). Entries verified before a failing one stay imported.
  ImportReport import_bundle(const std::string& dir);

  std::string model_path(const std::string& key) const;
  std::string spec_path(const std::string& key) const;
  std::string checkpoint_path(const std::string& key) const;

 private:
  void load_index_locked();
  void rebuild_from_scan_locked();
  /// Read-merge-write of index.tsv under a cross-process flock:
  /// concurrent additions by other processes survive, removals
  /// propagate via .model file existence, clocks take the max.
  void save_index_locked() const;
  const StoreEntry* find_locked(const std::string& key) const;
  void touch_locked(StoreEntry& entry) const;
  /// Bytes actually freed, or nullopt when the .model removal failed
  /// (the entry must then stay in the index).
  std::optional<std::uint64_t> remove_entry_files_locked(const StoreEntry& entry);
  std::uint64_t entry_bytes_locked(const StoreEntry& entry) const;

  std::string root_;
  // mutable: lookup()/load() keep their const signatures but advance the
  // LRU clock; every access is serialized by mutex_. Touches only mark
  // the index dirty — it is persisted by the next real index write or
  // the destructor, so reads stay O(1) in I/O (and work, minus clock
  // durability, on read-only stores).
  mutable std::vector<StoreEntry> entries_;
  // Keys dropped at load because their .model was unreadable: the
  // merged index save must not resurrect them from the disk rows.
  mutable std::vector<std::string> unreadable_keys_;
  mutable std::uint64_t use_clock_ = 0;
  mutable bool dirty_ = false;
  mutable std::mutex mutex_;
};

/// Resolve one bundle argument to concrete bundle directories: a
/// directory holding a bundle.tsv manifest is itself the single bundle;
/// otherwise bundles one or two levels down count, in sorted path order
/// — covering both a flat directory of bundles and the orchestrator's
/// kept work dir (<work>/worker<i>/bundle). Throws std::runtime_error
/// naming `path` when it is not a directory or yields no bundles.
std::vector<std::string> find_bundle_dirs(const std::string& path);

/// The process-wide store trained-agent scenario references resolve
/// against. Root defaults to $RLBF_MODEL_STORE, or "models"; the CLI's
/// --store flag calls set_default_store_root.
Store& default_store();
void set_default_store_root(const std::string& root);
std::string default_store_root();

}  // namespace rlbf::model
