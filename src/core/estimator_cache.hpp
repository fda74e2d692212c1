// Cross-session memo over the TCP emission kernel (PR 5 tentpole).
//
// The k-state emission-mean row of a chunk is a pure function of its
// (TCP state W, size S) tuple and of the model's candidate table, so the
// same tuple seen in another session — or by another thread, or in a
// later EM iteration — can reuse the row instead of re-running the
// estimator f. This cache generalizes the per-session Ehmm::EmissionMemo
// the seed grew in PR 2 (which it subsumes): entries are self-contained
// row copies rather than indices into one session's matrix, so nothing
// is cleared between sessions, and the map is sharded behind
// shared_mutexes for read-mostly concurrent serving.
//
// Keying and invalidation: the key is the bit pattern of the seven
// estimator inputs (cwnd, ssthresh, rto, min_rtt, rtt, idle gap, size)
// plus a *candidate-table id* — a fingerprint of everything else the row
// depends on (estimator kind, TcpConfig, candidate values, span table,
// δ). A model whose table id differs can share the same cache object
// without ever observing another model's rows; retraining under
// kMultiWindow moves the id with A, so stale span-averaged rows become
// unreachable by construction (the same epoch idea as the service's
// result cache, one layer down). Keys are exact, so a hit is bit-identical
// to the miss that filled it.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
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

  struct Config {
    /// Total entry budget across shards. When a shard fills, it is
    /// flushed wholesale (epoch-style) and re-warms — bounded memory
    /// with no per-hit bookkeeping, the right trade for a read-mostly
    /// memo whose entries are cheap to recompute.
    std::size_t capacity = 1 << 16;
    /// Independently locked shards.
    std::size_t shards = 16;
  };

  /// One memoized row pair. `plain` is only filled when the model
  /// span-averages (kMultiWindow), where the un-averaged f(value_i) row
  /// differs from `mean`; otherwise the two coincide and only `mean` is
  /// stored.
  struct Entry {
    std::vector<double> mean;
    std::vector<double> plain;
  };

  struct Key {
    std::array<std::uint64_t, 7> state_bits;  ///< W fields, bit patterns
    std::uint64_t size_bits = 0;              ///< S, bit pattern
    std::uint64_t table_id = 0;               ///< candidate-table id
    bool operator==(const Key&) const = default;
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t flushes = 0;  ///< full-shard evictions
    std::size_t entries = 0;
  };

  // Two constructors rather than one defaulted argument: GCC rejects a
  // `= {}` default for a nested class with member initializers
  // (PR c++/88165).
  EstimatorCache() : EstimatorCache(Config{}) {}
  explicit EstimatorCache(Config config);

  /// Entry budget for a byte budget at state-space size k: resident
  /// memory scales with k (each entry stores a k-double row, two under
  /// kMultiWindow), so owners size the cache in bytes and convert here
  /// instead of letting a fixed entry count balloon on large grids.
  /// ~200 bytes of per-entry overhead (key, map node, control block,
  /// vector headers) plus the row payload; floored at 1024 entries.
  static std::size_t entries_for_bytes(std::size_t bytes, std::size_t k,
                                       bool two_rows) noexcept {
    const std::size_t entry_bytes =
        200 + k * sizeof(double) * (two_rows ? 2 : 1);
    const std::size_t entries = bytes / entry_bytes;
    return entries < 1024 ? 1024 : entries;
  }

  /// The key of a (state, size) tuple under `table_id`: the exact bit
  /// patterns of the estimator inputs.
  static Key key_of(const net::TcpState& w, double size_bytes,
                    std::uint64_t table_id) noexcept;

  /// Shared-lock lookup; counts a hit or miss.
  std::shared_ptr<const Entry> find(const Key& key) const;

  /// Publishes an entry (first writer wins; concurrent duplicates are
  /// dropped — both hold identical rows by construction).
  void insert(const Key& key, std::shared_ptr<const Entry> entry);

  Stats stats() const;
  void clear();

  /// Monotone invalidation counter: bumped by clear() only. Capacity
  /// flushes deliberately do NOT bump it — entries are pure functions of
  /// their key (candidate-table id included), so a row pinned elsewhere
  /// stays correct when its shard re-warms; only an explicit clear()
  /// demands that downstream front-caches drop their pins too.
  std::uint64_t epoch() const noexcept {
    return epoch_.load(std::memory_order_relaxed);
  }

 private:
  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept;
  };
  struct Shard {
    mutable std::shared_mutex mutex;
    std::unordered_map<Key, std::shared_ptr<const Entry>, KeyHash> map;
  };

  Shard& shard_for(const Key& key) const noexcept;

  Config config_;
  std::size_t per_shard_capacity_;
  std::unique_ptr<Shard[]> shards_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> insertions_{0};
  std::atomic<std::uint64_t> flushes_{0};
  std::atomic<std::uint64_t> epoch_{0};

 public:
  /// Per-lane L1 front-cache over one shared EstimatorCache (PR 7
  /// tentpole). A Scratch is single-threaded by contract, so the L1 is a
  /// plain open-addressed table with no locks and no atomics: a repeat
  /// (W, S) tuple inside a lane resolves to its memoized row without
  /// touching the sharded shared_mutex memo at all — no lock traffic, no
  /// hash-map probe, and (for callers of the row-span API) no memcpy.
  ///
  /// Slots pin their entries via shared_ptr, so a row served from the L1
  /// stays valid even if the owning shard was capacity-flushed since —
  /// by the purity argument behind epoch(), a pinned row can go
  /// unreachable but never stale. sync() keys the table to
  /// (owner address, owner epoch): hopping the lane to a different cache
  /// or clear()-ing the owner drops every slot. A freed cache whose
  /// address is later reused (ABA) is indistinguishable from the
  /// original owner until the epochs diverge, and benign: whatever entry
  /// a slot pins is still the unique correct row for its key.
  class L1 {
   public:
    static constexpr std::size_t kSlots = 128;      ///< power of two
    static constexpr std::size_t kProbeLimit = 4;   ///< linear probes

    /// Re-keys the table to `owner`; drops all slots when the owner or
    /// its epoch changed since the last sync. Callers invoke this once
    /// per session before the find/put loop.
    void sync(const EstimatorCache& owner) {
      const std::uint64_t epoch = owner.epoch();
      if (owner_ == &owner && epoch_ == epoch) return;
      reset();
      owner_ = &owner;
      epoch_ = epoch;
    }

    /// The pinning shared_ptr of `key`'s slot, or nullptr. The returned
    /// pointer aliases the slot — copy the shared_ptr out before the
    /// next put()/reset() if the row must outlive table churn.
    const std::shared_ptr<const Entry>* find(const Key& key) noexcept {
      const std::size_t h = KeyHash{}(key);
      for (std::size_t p = 0; p < kProbeLimit; ++p) {
        const Slot& slot = slots_[(h + p) & (kSlots - 1)];
        if (slot.entry != nullptr && slot.key == key) {
          ++hits_;
          return &slot.entry;
        }
      }
      ++misses_;
      return nullptr;
    }

    void put(const Key& key, std::shared_ptr<const Entry> entry) {
      const std::size_t h = KeyHash{}(key);
      for (std::size_t p = 0; p < kProbeLimit; ++p) {
        Slot& slot = slots_[(h + p) & (kSlots - 1)];
        if (slot.entry == nullptr || slot.key == key) {
          slot.key = key;
          slot.entry = std::move(entry);
          return;
        }
      }
      // Every probed slot holds a different live key: displace the home
      // slot (recency wins; the displaced row is still in the shared
      // memo, so losing it costs one L2 lookup, not a recompute).
      Slot& home = slots_[h & (kSlots - 1)];
      home.key = key;
      home.entry = std::move(entry);
    }

    void reset() noexcept {
      for (Slot& slot : slots_) slot.entry.reset();
      owner_ = nullptr;
      epoch_ = 0;
    }

    std::uint64_t hits() const noexcept { return hits_; }
    std::uint64_t misses() const noexcept { return misses_; }

   private:
    struct Slot {
      Key key{};
      std::shared_ptr<const Entry> entry;
    };
    std::array<Slot, kSlots> slots_{};
    const EstimatorCache* owner_ = nullptr;
    std::uint64_t epoch_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
  };
};

}  // namespace veritas::core
