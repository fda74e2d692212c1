// Cross-session memo over the TCP emission kernel.
//
// The k-state emission-mean row of a chunk is a pure function of its
// (TCP state W, size S) tuple and of the model's candidate table, so the
// same tuple seen in another session — or by another thread, or in a
// later EM iteration — can reuse the row instead of re-running the
// estimator f.
//
// One level, flat storage. Keys map to independently locked shards
// (KeyHash % shards). A shard stores its rows inline in append-only
// slabs of kSlabBytes: an entry is a small header (its key) followed by
// its k doubles (2k under kMultiWindow), so a miss allocates nothing but,
// once per slab, the next slab. A flat open-addressed index of
// (hash, entry) pairs finds them; it is allocated at the shard's first
// insert and doubles as the shard fills. The key's hash is computed once
// per row and picks both the shard and the probe start. A miss costs
// that hash, one probe (the insert reuses the failed lookup's probe
// unless another writer got in between), the estimator and one row
// copy; a hit costs the probe.
//
// Pins. A served row is a pointer into a slab. The caller keeps it alive
// with a pin on the slab (an aliasing shared_ptr<const Entry>), taken at
// most once per slab per session rather than once per row. A capacity
// flush retires the shard's slabs — the shard lets go of them and starts
// a fresh one — and a retired slab is freed when its last pin drops. So
// a row a lane is still reading never dangles, and a flush frees a
// handful of blocks rather than thousands of nodes.
//
// Keying and invalidation: the key is the bit pattern of the seven
// estimator inputs (cwnd, ssthresh, rto, min_rtt, rtt, idle gap, size)
// plus a *candidate-table id* — a fingerprint of everything else the row
// depends on (estimator kind, TcpConfig, candidate values, span table,
// δ). A model whose table id differs can share the same cache object
// without ever observing another model's rows; retraining under
// kMultiWindow moves the id with A, so stale span-averaged rows become
// unreachable by construction. Keys are exact, so a hit is bit-identical
// to the miss that filled it.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "net/tcp_state.hpp"

namespace veritas::core {

class EstimatorCache {
 public:
  /// Default byte budget owners size their caches from (converted to an
  /// entry count via entries_for_bytes) — one constant shared by
  /// VeritasConfig::estimator_cache_bytes and baum_welch_train so the
  /// two cannot drift.
  static constexpr std::size_t kDefaultByteBudget = 24u << 20;

  /// Bytes of one row slab. An entry larger than this gets a slab of its
  /// own size.
  static constexpr std::size_t kSlabBytes = 64u << 10;

  struct Config {
    /// Total entry budget across shards. When a shard fills, it is
    /// flushed wholesale (epoch-style) and re-warms — bounded memory
    /// with no per-hit bookkeeping, the right trade for a read-mostly
    /// memo whose entries are cheap to recompute.
    std::size_t capacity = 1 << 16;
    /// Independently locked shards.
    std::size_t shards = 16;
  };

  struct Key {
    std::array<std::uint64_t, 7> state_bits;  ///< W fields, bit patterns
    std::uint64_t size_bits = 0;              ///< S, bit pattern
    std::uint64_t table_id = 0;               ///< candidate-table id
    bool operator==(const Key&) const = default;
  };

  /// One memoized row pair, stored inline in a slab: this header, then
  /// `mean` (k doubles), then `plain` (k doubles) when the model
  /// span-averages (kMultiWindow), where the un-averaged f(value_i) row
  /// differs from `mean`. Entries are created only by insert().
  class Entry {
   public:
    const double* mean() const noexcept;
    /// The un-averaged row; the same pointer as mean() unless two rows
    /// were stored.
    const double* plain() const noexcept {
      return two_rows_ ? mean() + k_ : mean();
    }
    std::size_t size() const noexcept { return k_; }

   private:
    friend class EstimatorCache;
    Entry() = default;
    Key key_{};
    std::uint32_t k_ = 0;
    std::uint32_t slab_ = 0;  ///< ordinal of its slab in the shard
    bool two_rows_ = false;
  };

  /// Slab pins: each element keeps the slab of the entry it aliases
  /// alive, and with it every row stored there.
  using Pins = std::vector<std::shared_ptr<const Entry>>;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t flushes = 0;  ///< full-shard evictions
    std::size_t entries = 0;
    /// Row slabs allocated, flushed ones included: the only heap
    /// allocations behind misses besides the index tables below. At most
    /// ceil(misses / rows_per_slab) + shards between flushes.
    std::uint64_t slabs = 0;
    /// Index tables allocated: one per shard at its first insert, plus
    /// one per doubling.
    std::uint64_t index_allocations = 0;
  };

  class L1;

  // Two constructors rather than one defaulted argument: GCC rejects a
  // `= {}` default for a nested class with member initializers
  // (PR c++/88165).
  EstimatorCache() : EstimatorCache(Config{}) {}
  explicit EstimatorCache(Config config);
  ~EstimatorCache();
  EstimatorCache(const EstimatorCache&) = delete;
  EstimatorCache& operator=(const EstimatorCache&) = delete;

  /// Entry budget for a byte budget at state-space size k: resident
  /// memory scales with k (each entry stores a k-double row, two under
  /// kMultiWindow), so owners size the cache in bytes and convert here
  /// instead of letting a fixed entry count balloon on large grids.
  /// Charges 200 bytes of per-entry overhead (more than the 112-160
  /// bytes an entry header plus its share of the index take) plus the row
  /// payload; floored at 1024 entries. The charge is kept as it was when entries were
  /// separately allocated nodes, so capacities, and with them the points
  /// where shards flush, stay where they were.
  static std::size_t entries_for_bytes(std::size_t bytes, std::size_t k,
                                       bool two_rows) noexcept {
    const std::size_t entry_bytes =
        200 + k * sizeof(double) * (two_rows ? 2 : 1);
    const std::size_t entries = bytes / entry_bytes;
    return entries < 1024 ? 1024 : entries;
  }

  /// Entries of k doubles (two rows when `two_rows`) one kSlabBytes slab
  /// holds.
  static std::size_t rows_per_slab(std::size_t k, bool two_rows) noexcept;

  /// The key of a (state, size) tuple under `table_id`: the exact bit
  /// patterns of the estimator inputs.
  static Key key_of(const net::TcpState& w, double size_bytes,
                    std::uint64_t table_id) noexcept;

  /// The hash find() and insert() take: computed once per row, it picks
  /// the shard and the probe start.
  static std::uint64_t hash_of(const Key& key) noexcept;

  /// The entry stored under `key` (hash = hash_of(key)), or nullptr.
  /// Counts a hit or a miss. A hit pins its slab into `pins` unless
  /// `lane` pinned that slab since its last sync(); a miss leaves its
  /// probe in `lane` for the insert() that follows. `lane` must be
  /// sync()ed to this cache.
  const Entry* find(const Key& key, std::uint64_t hash, L1& lane,
                    Pins& pins) const;

  /// Copies `mean` (and `plain`, when non-empty; same length) into the
  /// shard's tail slab under `key` and returns the stored entry, pinned
  /// like find(). First writer wins: if another writer stored `key`
  /// since this lane's find(), its entry is returned and nothing is
  /// copied. Inserting into a full shard first flushes it.
  const Entry* insert(const Key& key, std::uint64_t hash,
                      std::span<const double> mean,
                      std::span<const double> plain, L1& lane, Pins& pins);

  Stats stats() const;
  void clear();

  /// Monotone invalidation counter: bumped by clear() only. Capacity
  /// flushes deliberately do NOT bump it — entries are pure functions of
  /// their key (candidate-table id included), so a row pinned elsewhere
  /// stays correct when its shard re-warms.
  std::uint64_t epoch() const noexcept {
    return epoch_.load(std::memory_order_relaxed);
  }

  /// The lane-side handle of one cache. A Scratch is single-threaded by
  /// contract, so this is plain state, no locks and no atomics: the
  /// owner and epoch it was last synced to, which slab of each shard the
  /// current session already pinned (so a session takes one pin per
  /// slab, not one per row), the probe a failed find() leaves for its
  /// insert(), and a reusable buffer the estimator writes a missed row
  /// into. It holds no rows.
  class L1 {
   public:
    /// Starts a session against `owner`: records its address and epoch
    /// and forgets which slabs were pinned, so the next find()/insert()
    /// calls pin into a fresh Pins vector. Callers invoke this once per
    /// session, before the find/insert loop.
    void sync(const EstimatorCache& owner);

    const EstimatorCache* owner() const noexcept { return owner_; }
    std::uint64_t epoch() const noexcept { return epoch_; }

    /// At least `doubles` doubles of storage reused across calls.
    double* buffer(std::size_t doubles) {
      if (buffer_.size() < doubles) buffer_.resize(doubles);
      return buffer_.data();
    }

   private:
    friend class EstimatorCache;
    const EstimatorCache* owner_ = nullptr;
    std::uint64_t epoch_ = 0;
    std::vector<const void*> pinned_;  ///< per shard: slab pinned
    std::vector<double> buffer_;
    bool probed_ = false;  ///< the fields below hold a live probe
    std::uint64_t probe_hash_ = 0;
    std::uint64_t probe_version_ = 0;
    std::size_t probe_slot_ = 0;
  };

 private:
  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept;
  };
  struct Shard;

  void pin(const Shard& shard, std::size_t shard_index, const Entry& entry,
           L1& lane, Pins& pins) const;

  Config config_;
  std::size_t per_shard_capacity_;
  std::unique_ptr<Shard[]> shards_;
  std::atomic<std::uint64_t> epoch_{0};
};

inline const double* EstimatorCache::Entry::mean() const noexcept {
  // Rows start at the first 16-byte boundary past the header.
  constexpr std::size_t kRowOffset = (sizeof(Entry) + 15) & ~std::size_t{15};
  return reinterpret_cast<const double*>(
      reinterpret_cast<const std::byte*>(this) + kRowOffset);
}

}  // namespace veritas::core
