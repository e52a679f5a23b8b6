#include "model/store.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "exp/config.h"
#include "model/training_spec.h"
#include "util/log.h"

namespace rlbf::model {

namespace fs = std::filesystem;

namespace {

// v2 appended the last-used column; v1 indexes are migrated on open
// (missing column = never used). Anything newer/unknown falls back to
// the self-describing *.model scan.
constexpr const char* kIndexHeaderV1 = "rlbf-model-store v1";
constexpr const char* kIndexHeaderV2 = "rlbf-model-store v2";
constexpr const char* kBundleHeader = "rlbf-model-bundle v1";

std::string index_path(const std::string& root) { return root + "/index.tsv"; }

std::vector<std::string> split_tabs(const std::string& line) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  while (true) {
    const std::size_t tab = line.find('\t', start);
    fields.push_back(line.substr(start, tab - start));
    if (tab == std::string::npos) break;
    start = tab + 1;
  }
  return fields;
}

// Keys are fingerprint()/fnv1a_hex() content addresses: exactly 16
// lowercase hex digits. Bundle manifests are foreign input, so their
// keys must be validated before ever being spliced into a filesystem
// path — a key like "../../target" would otherwise write outside the
// store root.
bool is_valid_key(const std::string& key) {
  if (key.size() != 16) return false;
  for (const char c : key) {
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  }
  return true;
}

bool is_bare_filename(const std::string& name) {
  return !name.empty() && name.find('/') == std::string::npos &&
         name.find('\\') == std::string::npos && name != "." && name != "..";
}

// Cross-process writer lock for index.tsv (flock on <root>/index.lock).
// Every index update is a read-merge-write (save_index_locked folds the
// on-disk rows into this handle's view), so two processes sharing a
// store must serialize around it or a put() landing inside the window
// gets dropped. Best-effort: if the lock file cannot be opened
// (read-only store, flock-less filesystem), writers fall back to plain
// last-writer-wins on an always-intact (atomic-rename) index.
class IndexLock {
 public:
  explicit IndexLock(const std::string& root)
      : fd_(::open((root + "/index.lock").c_str(), O_CREAT | O_RDWR, 0644)) {
    if (fd_ >= 0) ::flock(fd_, LOCK_EX);
  }
  ~IndexLock() {
    if (fd_ >= 0) {
      ::flock(fd_, LOCK_UN);
      ::close(fd_);
    }
  }
  IndexLock(const IndexLock&) = delete;
  IndexLock& operator=(const IndexLock&) = delete;

 private:
  int fd_;
};

// Write-then-rename with a per-process tmp name: a killed writer never
// leaves a torn file behind a path other code trusts, and two processes
// sharing a store never interleave into one tmp. Used for the index and
// the .spec sidecars (the .model goes through Agent::save first and
// shares only the rename step).
void write_file_atomic(const std::string& path, const std::string& content) {
  const std::string tmp = path + "." + std::to_string(::getpid()) + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("model store: cannot write " + tmp);
    out << content;
    if (!out) throw std::runtime_error("model store: failed writing " + tmp);
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    throw std::runtime_error("model store: cannot commit " + path + ": " +
                             ec.message());
  }
}

}  // namespace

Store::Store(std::string root) : root_(std::move(root)) {
  if (root_.empty()) throw std::runtime_error("model store: empty root");
  std::error_code ec;
  fs::create_directories(root_, ec);
  if (ec) {
    throw std::runtime_error("model store: cannot create '" + root_ +
                             "': " + ec.message());
  }
  std::lock_guard<std::mutex> lock(mutex_);
  // Per-process tmp files orphaned by a crashed writer would otherwise
  // accumulate forever (each pid gets its own name). An age threshold
  // keeps this from racing a live writer's in-flight tmp, whose
  // lifetime is milliseconds.
  for (const auto& dirent : fs::directory_iterator(root_, ec)) {
    if (ec) break;
    if (!dirent.is_regular_file() || dirent.path().extension() != ".tmp") {
      continue;
    }
    std::error_code time_ec;
    const auto mtime = fs::last_write_time(dirent.path(), time_ec);
    if (time_ec) continue;
    const auto age = decltype(mtime)::clock::now() - mtime;
    if (age > std::chrono::hours(1)) {
      std::error_code remove_ec;
      fs::remove(dirent.path(), remove_ec);
    }
  }
  load_index_locked();
}

void Store::load_index_locked() {
  entries_.clear();
  unreadable_keys_.clear();
  use_clock_ = 0;
  std::ifstream in(index_path(root_));
  if (!in) {
    rebuild_from_scan_locked();
    return;
  }
  std::string line;
  std::getline(in, line);
  const bool v1 = line == kIndexHeaderV1;
  if (!v1 && line != kIndexHeaderV2) {
    util::log_warn("model store: unrecognized index header in ", root_,
                   "; rebuilding from scan");
    rebuild_from_scan_locked();
    return;
  }
  // A v1 index is valid input but gets rewritten in the v2 format
  // (last-used column added, 0 = never used) once loaded.
  bool stale = v1;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> fields = split_tabs(line);
    if (fields.size() < 3) {
      stale = true;
      continue;
    }
    StoreEntry entry;
    entry.key = fields[0];
    entry.name = fields[1];
    entry.path = root_ + "/" + fields[2];
    if (fields.size() >= 4 && !exp::parse_number(fields[3], &entry.last_used)) {
      stale = true;  // rewrite the malformed clock as 0, keep the entry
    }
    if (!fs::exists(entry.path)) {
      stale = true;  // model removed behind the index's back
      continue;
    }
    try {
      entry.meta = core::Agent::load_meta(entry.path);
    } catch (const std::exception& e) {
      // One corrupt model (e.g. a crash mid-save) must not brick the
      // whole store: drop the entry, keep everything else usable. The
      // key is remembered so the merged index save drops it too.
      util::log_warn("model store: dropping unreadable ", entry.path, ": ",
                     e.what());
      unreadable_keys_.push_back(entry.key);
      stale = true;
      continue;
    }
    use_clock_ = std::max(use_clock_, entry.last_used);
    entries_.push_back(std::move(entry));
  }
  if (stale) save_index_locked();
}

void Store::rebuild_from_scan_locked() {
  // Self-describing fallback: every *.model carries its metadata, so the
  // index is derivable from the directory contents alone. Scan order is
  // sorted for determinism.
  std::vector<std::string> stems;
  for (const auto& dirent : fs::directory_iterator(root_)) {
    if (!dirent.is_regular_file()) continue;
    const fs::path& p = dirent.path();
    if (p.extension() == ".model") stems.push_back(p.stem().string());
  }
  std::sort(stems.begin(), stems.end());
  for (const std::string& stem : stems) {
    StoreEntry entry;
    entry.key = stem;
    entry.path = root_ + "/" + stem + ".model";
    try {
      entry.meta = core::Agent::load_meta(entry.path);
    } catch (const std::exception& e) {
      util::log_warn("model store: skipping unreadable ", entry.path, ": ",
                     e.what());
      continue;
    }
    const auto it = entry.meta.find("spec_name");
    if (it != entry.meta.end()) entry.name = it->second;
    entries_.push_back(std::move(entry));
  }
  if (!entries_.empty()) save_index_locked();
}

void Store::save_index_locked() const {
  // Every index write is a read-merge-write under the cross-process
  // flock: this handle's snapshot may be stale — another process
  // sharing the store can have put() entries since we loaded — and
  // blindly overwriting would erase them. Merge rules: the union of
  // disk rows and our entries, our values winning for keys we hold
  // (clocks take the max), and existence of the .model file deciding
  // membership — prune/evict delete files before saving, so removals
  // propagate to every writer without tombstones. Entries this handle
  // dropped as unreadable stay dropped.
  const IndexLock flock_guard(root_);
  struct Row {
    std::string key, name, file;
    std::uint64_t clock = 0;
  };
  std::vector<Row> rows;
  std::map<std::string, std::size_t> position;
  {
    std::ifstream in(index_path(root_));
    std::string line;
    if (in && std::getline(in, line) &&
        (line == kIndexHeaderV1 || line == kIndexHeaderV2)) {
      while (std::getline(in, line)) {
        if (line.empty()) continue;
        const std::vector<std::string> fields = split_tabs(line);
        if (fields.size() < 3 || position.count(fields[0]) != 0) continue;
        Row row;
        row.key = fields[0];
        row.name = fields[1];
        row.file = fields[2];
        if (fields.size() >= 4) exp::parse_number(fields[3], &row.clock);
        position[row.key] = rows.size();
        rows.push_back(std::move(row));
      }
    }
  }
  for (const StoreEntry& entry : entries_) {
    const std::string file = fs::path(entry.path).filename().string();
    const auto it = position.find(entry.key);
    if (it != position.end()) {
      Row& row = rows[it->second];
      row.name = entry.name;
      row.file = file;
      row.clock = std::max(row.clock, entry.last_used);
    } else {
      position[entry.key] = rows.size();
      rows.push_back({entry.key, entry.name, file, entry.last_used});
    }
  }
  std::string content = std::string(kIndexHeaderV2) + "\n";
  for (const Row& row : rows) {
    if (!fs::exists(root_ + "/" + row.file)) continue;
    if (std::find(unreadable_keys_.begin(), unreadable_keys_.end(), row.key) !=
        unreadable_keys_.end()) {
      continue;
    }
    content += row.key + "\t" + row.name + "\t" + row.file + "\t" +
               std::to_string(row.clock) + "\n";
  }
  write_file_atomic(index_path(root_), content);
  dirty_ = false;
}

Store::~Store() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!dirty_) return;
  try {
    save_index_locked();  // merged write: raises our clocks, keeps others
  } catch (const std::exception& e) {
    // LRU bookkeeping must never fail (or throw from) a teardown: the
    // clock's persistence is best-effort by design.
    util::log_warn("model store: cannot persist last-used clock: ", e.what());
  }
}

const StoreEntry* Store::find_locked(const std::string& key) const {
  for (const StoreEntry& entry : entries_) {
    if (entry.key == key) return &entry;
  }
  return nullptr;
}

void Store::touch_locked(StoreEntry& entry) const {
  // Only mark dirty: rewriting index.tsv on every lookup would turn
  // each read into an O(entries) file write (and fail outright on
  // read-only shared stores). The clock is persisted by the next real
  // index write or the destructor.
  entry.last_used = ++use_clock_;
  dirty_ = true;
}

bool Store::contains(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return find_locked(key) != nullptr;
}

std::optional<StoreEntry> Store::lookup(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  // entries_ is mutable: a const lookup still advances the LRU clock.
  StoreEntry* entry = const_cast<StoreEntry*>(find_locked(key));
  if (entry == nullptr) return std::nullopt;
  touch_locked(*entry);
  return *entry;
}

core::Agent Store::load(const std::string& key) const {
  const auto entry = lookup(key);
  if (!entry) {
    throw std::runtime_error("model store: no entry for key '" + key +
                             "' under " + root_);
  }
  return core::Agent::load(entry->path);
}

StoreEntry Store::put(const std::string& key, const core::Agent& agent,
                      const std::string& name,
                      const std::map<std::string, std::string>& meta,
                      const std::string& canonical) {
  StoreEntry entry;
  entry.key = key;
  entry.name = name;
  entry.path = model_path(key);
  entry.meta = meta;
  entry.meta["fingerprint"] = key;
  if (!name.empty()) entry.meta["spec_name"] = name;
  // Write-then-rename, like the index: an interrupted save (e.g. a
  // killed --force retrain overwriting an existing key) must never leave
  // a torn .model behind a key the store reports as a valid cache hit.
  // Per-process tmp name: two writers racing on one shared store must
  // never interleave into the same tmp file.
  const std::string tmp =
      entry.path + "." + std::to_string(::getpid()) + ".tmp";
  if (!agent.save(tmp, entry.meta)) {
    throw std::runtime_error("model store: cannot write " + tmp);
  }
  std::error_code rename_ec;
  fs::rename(tmp, entry.path, rename_ec);
  if (rename_ec) {
    throw std::runtime_error("model store: cannot commit " + entry.path + ": " +
                             rename_ec.message());
  }
  // Atomic like the .model: a torn sidecar would fail bundle import's
  // fnv1a re-verification on every machine the entry ships to.
  if (!canonical.empty()) write_file_atomic(spec_path(key), canonical);
  std::lock_guard<std::mutex> lock(mutex_);
  // A fresh valid .model supersedes any unreadable predecessor this
  // handle blacklisted at load — the merged index save must list it.
  unreadable_keys_.erase(
      std::remove(unreadable_keys_.begin(), unreadable_keys_.end(), key),
      unreadable_keys_.end());
  entry.last_used = ++use_clock_;  // freshly trained = most recently used
  bool replaced = false;
  for (StoreEntry& existing : entries_) {
    if (existing.key == key) {
      existing = entry;
      replaced = true;
      break;
    }
  }
  if (!replaced) entries_.push_back(entry);
  save_index_locked();
  return entry;
}

std::vector<StoreEntry> Store::list() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_;
}

std::optional<std::uint64_t> Store::remove_entry_files_locked(
    const StoreEntry& entry) {
  const auto size_of = [](const std::string& path) -> std::uint64_t {
    std::error_code ec;
    const std::uintmax_t size = fs::file_size(path, ec);
    return ec ? 0 : size;
  };
  // The .model decides the entry's fate: if its removal fails, the entry
  // must stay in the index — dropping it would leave an orphan .model
  // that a later scan rebuild resurrects with stale meta. (fs::remove of
  // an already-absent file is a clean false-with-no-error: gone is gone.)
  std::uint64_t freed = size_of(entry.path);
  std::error_code model_ec;
  fs::remove(entry.path, model_ec);
  if (model_ec) {
    util::log_warn("model store: cannot remove ", entry.path, ": ",
                   model_ec.message(), "; keeping entry ", entry.key);
    return std::nullopt;
  }
  // Sidecars never resurrect an entry, so their failures only warn —
  // but a surviving sidecar's bytes are not freed, and evict_lru's
  // accounting must know that.
  for (const std::string& sidecar :
       {spec_path(entry.key), checkpoint_path(entry.key)}) {
    const std::uint64_t bytes = size_of(sidecar);
    std::error_code ec;
    fs::remove(sidecar, ec);
    if (ec) {
      util::log_warn("model store: cannot remove ", sidecar, ": ",
                     ec.message());
    } else {
      freed += bytes;
    }
  }
  return freed;
}

std::uint64_t Store::entry_bytes_locked(const StoreEntry& entry) const {
  std::uint64_t total = 0;
  for (const std::string& path :
       {entry.path, spec_path(entry.key), checkpoint_path(entry.key)}) {
    std::error_code ec;
    const std::uintmax_t size = fs::file_size(path, ec);
    if (!ec) total += size;
  }
  return total;
}

std::vector<std::string> Store::prune(const std::vector<std::string>& referenced) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> removed;
  std::vector<StoreEntry> kept;
  for (StoreEntry& entry : entries_) {
    const bool keep = std::find(referenced.begin(), referenced.end(),
                                entry.key) != referenced.end();
    if (!keep && remove_entry_files_locked(entry)) {
      removed.push_back(entry.key);
      continue;
    }
    kept.push_back(std::move(entry));
  }
  if (!removed.empty()) {
    entries_ = std::move(kept);
    save_index_locked();
  }
  return removed;
}

Store::EvictionResult Store::evict_lru(
    std::uint64_t max_bytes, const std::vector<std::string>& referenced) {
  std::lock_guard<std::mutex> lock(mutex_);
  EvictionResult result;
  std::vector<std::uint64_t> sizes(entries_.size());
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    sizes[i] = entry_bytes_locked(entries_[i]);
    result.bytes_before += sizes[i];
  }
  std::uint64_t on_disk = result.bytes_before;
  std::vector<bool> dead(entries_.size(), false);
  std::vector<bool> unremovable(entries_.size(), false);
  while (on_disk > max_bytes) {
    // Least-recently-used evictable entry; index order breaks clock ties
    // so concurrent hosts evict identically from identical stores.
    std::size_t victim = entries_.size();
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (dead[i] || unremovable[i]) continue;
      if (std::find(referenced.begin(), referenced.end(), entries_[i].key) !=
          referenced.end()) {
        continue;
      }
      if (victim == entries_.size() ||
          entries_[i].last_used < entries_[victim].last_used) {
        victim = i;
      }
    }
    if (victim == entries_.size()) {
      const bool removal_failed =
          std::find(unremovable.begin(), unremovable.end(), true) !=
          unremovable.end();
      util::log_warn("model store: ", root_, " still holds ",
                     std::to_string(on_disk), " bytes (cap ",
                     std::to_string(max_bytes), "); every remaining entry is ",
                     removal_failed
                         ? "referenced or failed removal (see warnings above)"
                         : "referenced");
      break;
    }
    if (const auto freed = remove_entry_files_locked(entries_[victim])) {
      dead[victim] = true;
      // Subtract what was actually deleted — a sidecar whose removal
      // failed still occupies disk and must keep counting against the cap.
      on_disk -= std::min(on_disk, *freed);
      result.removed.push_back(entries_[victim].key);
    } else {
      unremovable[victim] = true;
    }
  }
  if (!result.removed.empty()) {
    std::vector<StoreEntry> kept;
    kept.reserve(entries_.size() - result.removed.size());
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (!dead[i]) kept.push_back(std::move(entries_[i]));
    }
    entries_ = std::move(kept);
    save_index_locked();
  }
  result.bytes_after = on_disk;
  return result;
}

std::vector<std::string> Store::export_bundle(
    const std::string& dir, const std::vector<std::string>& keys) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<const StoreEntry*> chosen;
  for (const std::string& key : keys) {
    const StoreEntry* entry = find_locked(key);
    if (entry == nullptr) {
      throw std::runtime_error("model store: cannot export unknown key '" +
                               key + "' from " + root_);
    }
    chosen.push_back(entry);
  }
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    throw std::runtime_error("model store: cannot create bundle directory '" +
                             dir + "': " + ec.message());
  }
  std::string manifest = std::string(kBundleHeader) + "\n";
  std::vector<std::string> exported;
  for (const StoreEntry* entry : chosen) {
    const std::string model_file = entry->key + ".model";
    fs::copy_file(entry->path, dir + "/" + model_file,
                  fs::copy_options::overwrite_existing, ec);
    if (ec) {
      throw std::runtime_error("model store: cannot copy " + entry->path +
                               " into bundle: " + ec.message());
    }
    std::string spec_file;
    if (fs::exists(spec_path(entry->key))) {
      spec_file = entry->key + ".spec";
      fs::copy_file(spec_path(entry->key), dir + "/" + spec_file,
                    fs::copy_options::overwrite_existing, ec);
      if (ec) {
        throw std::runtime_error("model store: cannot copy " +
                                 spec_path(entry->key) +
                                 " into bundle: " + ec.message());
      }
    }
    manifest += entry->key + "\t" + entry->name + "\t" + model_file + "\t" +
                spec_file + "\n";
    exported.push_back(entry->key);
  }
  std::ofstream out(dir + "/bundle.tsv", std::ios::trunc);
  out << manifest;
  if (!out) {
    throw std::runtime_error("model store: cannot write bundle manifest in " +
                             dir);
  }
  return exported;
}

Store::ImportReport Store::import_bundle(const std::string& dir) {
  std::ifstream in(dir + "/bundle.tsv");
  if (!in) {
    throw std::runtime_error("model store: no bundle manifest (bundle.tsv) in '" +
                             dir + "'");
  }
  std::string line;
  std::getline(in, line);
  if (line != kBundleHeader) {
    throw std::runtime_error("model store: unrecognized bundle manifest header "
                             "in '" + dir + "': '" + line + "'");
  }
  ImportReport report;
  // The index is saved once per import batch (not per entry — that
  // would make a large import O(n^2) in index I/O); a failing entry
  // still persists everything verified before it, per the contract.
  const auto persist_imports = [&](bool rethrowing) {
    if (report.imported.empty()) return;
    std::lock_guard<std::mutex> lock(mutex_);
    if (!rethrowing) {
      save_index_locked();
      return;
    }
    try {
      save_index_locked();
    } catch (const std::exception& e) {
      util::log_warn("model store: cannot save index after partial import: ",
                     e.what());
    }
  };
  try {
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      const std::vector<std::string> fields = split_tabs(line);
      if (fields.size() < 4) {
        throw std::runtime_error("model store: malformed bundle manifest row '" +
                                 line + "' in " + dir);
      }
      const std::string& key = fields[0];
      const std::string& name = fields[1];
      // The manifest is foreign input: reject anything that is not a bare
      // content-address key + bare filenames BEFORE building paths from it.
      if (!is_valid_key(key)) {
        throw std::runtime_error("model store: invalid bundle key '" + key +
                                 "' in " + dir +
                                 " (want 16 lowercase hex digits); not imported");
      }
      if (!is_bare_filename(fields[2]) ||
          (!fields[3].empty() && !is_bare_filename(fields[3]))) {
        throw std::runtime_error("model store: invalid file reference in bundle "
                                 "manifest row '" + line + "'; not imported");
      }
      const std::string model_src = dir + "/" + fields[2];
      const std::string spec_src = fields[3].empty() ? "" : dir + "/" + fields[3];

      // Re-verify before adopting anything: the embedded fingerprint must
      // equal the manifest key, the model must load in full (truncated
      // weight sections throw), and a spec sidecar must hash back to the
      // key — the same audit chain fingerprint() established at training
      // time. A failed check rejects the entry with a named error. The
      // cheap header-only meta check runs first so a mismatched bundle
      // fails before the full weight parse.
      std::map<std::string, std::string> meta;
      try {
        meta = core::Agent::load_meta(model_src);
      } catch (const std::exception& e) {
        throw std::runtime_error("model store: bundle entry '" + key +
                                 "' is corrupt (" + e.what() + "); not imported");
      }
      const auto fp = meta.find("fingerprint");
      if (fp == meta.end() || fp->second != key) {
        throw std::runtime_error(
            "model store: bundle fingerprint mismatch for '" + fields[2] +
            "': manifest says " + key + ", model says " +
            (fp == meta.end() ? std::string("<none>") : fp->second) +
            "; not imported");
      }
      try {
        (void)core::Agent::load(model_src);
      } catch (const std::exception& e) {
        throw std::runtime_error("model store: bundle entry '" + key +
                                 "' is corrupt (" + e.what() + "); not imported");
      }
      std::string canonical;
      if (!spec_src.empty()) {
        std::ifstream spec(spec_src, std::ios::binary);
        if (!spec) {
          throw std::runtime_error("model store: bundle spec sidecar " + spec_src +
                                   " is unreadable; not imported");
        }
        canonical.assign(std::istreambuf_iterator<char>(spec),
                         std::istreambuf_iterator<char>());
        if (fnv1a_hex(canonical) != key) {
          throw std::runtime_error(
              "model store: bundle spec sidecar for '" + key +
              "' does not hash back to its key (got " + fnv1a_hex(canonical) +
              "); not imported");
        }
      }

      std::lock_guard<std::mutex> lock(mutex_);
      if (find_locked(key) != nullptr) {
        // Equal content addresses mean equal content; nothing to adopt.
        report.skipped_existing.push_back(key);
        continue;
      }
      StoreEntry entry;
      entry.key = key;
      entry.name = name;
      entry.path = model_path(key);
      entry.meta = meta;
      // Copy-then-rename with a per-process tmp name, like put(): a crash
      // mid-import must never leave a torn .model behind a key the index
      // vouches for, and concurrent importers must not share a tmp file.
      const std::string tmp =
          entry.path + "." + std::to_string(::getpid()) + ".tmp";
      std::error_code ec;
      fs::copy_file(model_src, tmp, fs::copy_options::overwrite_existing, ec);
      if (!ec) fs::rename(tmp, entry.path, ec);
      if (ec) {
        throw std::runtime_error("model store: cannot import " + model_src +
                                 ": " + ec.message());
      }
      if (!canonical.empty()) write_file_atomic(spec_path(key), canonical);
      // The verified import supersedes any unreadable predecessor this
      // handle blacklisted at load.
      unreadable_keys_.erase(
          std::remove(unreadable_keys_.begin(), unreadable_keys_.end(), key),
          unreadable_keys_.end());
      entry.last_used = ++use_clock_;
      entries_.push_back(std::move(entry));
      report.imported.push_back(key);
    }
  } catch (...) {
    persist_imports(/*rethrowing=*/true);
    throw;
  }
  persist_imports(/*rethrowing=*/false);
  return report;
}

std::string Store::model_path(const std::string& key) const {
  return root_ + "/" + key + ".model";
}

std::string Store::spec_path(const std::string& key) const {
  return root_ + "/" + key + ".spec";
}

std::string Store::checkpoint_path(const std::string& key) const {
  return root_ + "/" + key + ".ckpt";
}

std::vector<std::string> find_bundle_dirs(const std::string& path) {
  std::error_code ec;
  if (!fs::is_directory(path, ec)) {
    throw std::runtime_error("model store: bundle path '" + path +
                             "' is not a directory");
  }
  if (fs::exists(path + "/bundle.tsv", ec)) return {path};
  // Two collection layouts: a flat directory of bundles, and the
  // orchestrator's work dir (<work>/worker<i>/bundle — one level
  // deeper), so `models --import_bundle=<kept work dir>` just works.
  std::vector<std::string> bundles;
  for (const fs::directory_entry& entry : fs::directory_iterator(path, ec)) {
    if (!entry.is_directory(ec)) continue;
    if (fs::exists(entry.path() / "bundle.tsv", ec)) {
      bundles.push_back(entry.path().string());
      continue;
    }
    for (const fs::directory_entry& nested :
         fs::directory_iterator(entry.path(), ec)) {
      if (!nested.is_directory(ec)) continue;
      if (fs::exists(nested.path() / "bundle.tsv", ec)) {
        bundles.push_back(nested.path().string());
      }
    }
  }
  if (bundles.empty()) {
    throw std::runtime_error(
        "model store: '" + path +
        "' holds no bundle (no bundle.tsv in it or any subdirectory)");
  }
  std::sort(bundles.begin(), bundles.end());
  return bundles;
}

namespace {

std::mutex g_default_store_mutex;
std::unique_ptr<Store> g_default_store;
std::string g_default_store_root;

}  // namespace

std::string default_store_root() {
  std::lock_guard<std::mutex> lock(g_default_store_mutex);
  if (!g_default_store_root.empty()) return g_default_store_root;
  const char* env = std::getenv("RLBF_MODEL_STORE");
  return (env != nullptr && *env != '\0') ? env : "models";
}

Store& default_store() {
  const std::string root = default_store_root();
  std::lock_guard<std::mutex> lock(g_default_store_mutex);
  if (g_default_store == nullptr || g_default_store->root() != root) {
    g_default_store = std::make_unique<Store>(root);
  }
  return *g_default_store;
}

void set_default_store_root(const std::string& root) {
  std::lock_guard<std::mutex> lock(g_default_store_mutex);
  g_default_store_root = root;
  g_default_store.reset();
}

}  // namespace rlbf::model
