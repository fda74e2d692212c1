#include "core/estimator_cache.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <mutex>
#include <new>
#include <shared_mutex>

#include "util/expects.hpp"

namespace veritas::core {

namespace {

/// splitmix64-style avalanche: the raw bit patterns that make up a key
/// are highly structured (shared exponents, trailing zeros), so mix
/// before folding.
std::uint64_t mix(std::uint64_t x) noexcept {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// Slots of a shard's first index table (a power of two). A table
/// doubles before it passes half full.
constexpr std::size_t kInitialIndexSlots = 128;
constexpr std::size_t kNoSlot = ~std::size_t{0};

/// The unit slabs are allocated in: 16-byte alignment for the header
/// and the rows behind it.
struct alignas(16) Cell {
  std::byte bytes[16];
};

constexpr std::size_t round_up(std::size_t n) noexcept {
  return (n + sizeof(Cell) - 1) / sizeof(Cell) * sizeof(Cell);
}

/// One index slot: the key's full hash (compared before the key) and the
/// entry; `entry == nullptr` marks an empty slot.
struct Slot {
  std::uint64_t hash = 0;
  const EstimatorCache::Entry* entry = nullptr;
};

}  // namespace

struct alignas(64) EstimatorCache::Shard {
  mutable std::shared_mutex mutex;
  mutable std::atomic<std::uint64_t> hits{0};
  mutable std::atomic<std::uint64_t> misses{0};
  // Everything below is guarded by `mutex`.
  std::unique_ptr<Slot[]> index;  ///< null until the first insert
  std::size_t mask = 0;           ///< index slots - 1
  std::size_t count = 0;          ///< live entries
  /// Bumped by every change to the index, so an insert can tell whether
  /// the probe of the find() before it still holds.
  std::uint64_t version = 0;
  std::vector<std::shared_ptr<Cell[]>> slabs;  ///< live; tail last
  std::byte* tail = nullptr;                    ///< next free byte
  std::byte* tail_end = nullptr;
  std::uint64_t insertions = 0;
  std::uint64_t flushes = 0;
  std::uint64_t slabs_allocated = 0;
  std::uint64_t index_allocations = 0;

  /// The probe start of `hash`: its upper half, rotated down, so the
  /// probe does not reuse the low bits a power-of-two shard count picks
  /// the shard by.
  std::size_t home(std::uint64_t hash) const noexcept {
    return static_cast<std::size_t>(std::rotr(hash, 32)) & mask;
  }

  /// Linear probe for `key`: its entry, or nullptr with `slot` set to the
  /// empty slot that ends the probe (kNoSlot when there is no index).
  const Entry* probe(const Key& key, std::uint64_t hash,
                     std::size_t& slot) const noexcept {
    if (index == nullptr) {
      slot = kNoSlot;
      return nullptr;
    }
    for (std::size_t i = home(hash);; i = (i + 1) & mask) {
      const Slot& s = index[i];
      if (s.entry == nullptr) {
        slot = i;
        return nullptr;
      }
      if (s.hash == hash && s.entry->key_ == key) return s.entry;
    }
  }

  /// The first empty slot on `hash`'s probe path; the key is known to be
  /// absent.
  std::size_t free_slot(std::uint64_t hash) const noexcept {
    std::size_t i = home(hash);
    while (index[i].entry != nullptr) i = (i + 1) & mask;
    return i;
  }

  /// Allocates the first index table, or doubles the current one.
  void grow() {
    const std::size_t slots =
        index == nullptr ? kInitialIndexSlots : 2 * (mask + 1);
    std::unique_ptr<Slot[]> old = std::move(index);
    const std::size_t old_slots = old == nullptr ? 0 : mask + 1;
    index = std::make_unique<Slot[]>(slots);
    mask = slots - 1;
    ++index_allocations;
    for (std::size_t i = 0; i < old_slots; ++i) {
      if (old[i].entry != nullptr) index[free_slot(old[i].hash)] = old[i];
    }
    ++version;
  }

  /// Drops every entry: the index is emptied in place and the slabs are
  /// let go of (each is freed when its last pin drops).
  void retire() noexcept {
    if (index != nullptr) std::fill_n(index.get(), mask + 1, Slot{});
    count = 0;
    slabs.clear();
    tail = tail_end = nullptr;
    ++version;
  }

  /// Bump-allocates `bytes` in the tail slab, starting a new slab when
  /// the tail cannot hold them.
  std::byte* allocate(std::size_t bytes) {
    if (static_cast<std::size_t>(tail_end - tail) < bytes) {
      const std::size_t slab_bytes = std::max(kSlabBytes, bytes);
      slabs.push_back(
          std::make_shared_for_overwrite<Cell[]>(slab_bytes / sizeof(Cell)));
      ++slabs_allocated;
      tail = reinterpret_cast<std::byte*>(slabs.back().get());
      tail_end = tail + slab_bytes;
    }
    std::byte* out = tail;
    tail += bytes;
    return out;
  }
};

namespace {

constexpr std::size_t entry_bytes(std::size_t k, bool two_rows) noexcept {
  return round_up(sizeof(EstimatorCache::Entry)) +
         round_up(k * sizeof(double) * (two_rows ? 2 : 1));
}

}  // namespace

std::size_t EstimatorCache::KeyHash::operator()(
    const Key& key) const noexcept {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const std::uint64_t b : key.state_bits) {
    h = (h ^ mix(b)) * 0x2545f4914f6cdd1dULL;
  }
  h = (h ^ mix(key.size_bits)) * 0x2545f4914f6cdd1dULL;
  h = (h ^ mix(key.table_id)) * 0x2545f4914f6cdd1dULL;
  return static_cast<std::size_t>(h);
}

EstimatorCache::EstimatorCache(Config config)
    : config_(config),
      per_shard_capacity_(std::max<std::size_t>(
          1, std::max<std::size_t>(1, config.capacity) /
                 std::max<std::size_t>(1, config.shards))),
      shards_(std::make_unique<Shard[]>(
          std::max<std::size_t>(1, config.shards))) {
  config_.shards = std::max<std::size_t>(1, config.shards);
}

EstimatorCache::~EstimatorCache() = default;

std::size_t EstimatorCache::rows_per_slab(std::size_t k,
                                          bool two_rows) noexcept {
  return std::max<std::size_t>(1, kSlabBytes / entry_bytes(k, two_rows));
}

EstimatorCache::Key EstimatorCache::key_of(const net::TcpState& w,
                                           double size_bytes,
                                           std::uint64_t table_id) noexcept {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  Key key;
  key.state_bits = {bits(w.cwnd_segments), bits(w.ssthresh_segments),
                    bits(w.rto_s),         bits(w.min_rtt_s),
                    bits(w.rtt_s),         bits(w.last_send_gap_s),
                    0};
  // The seventh slot is reserved (kept zero) so the key layout can grow
  // a field without re-keying everything downstream.
  key.size_bits = bits(size_bytes);
  key.table_id = table_id;
  return key;
}

std::uint64_t EstimatorCache::hash_of(const Key& key) noexcept {
  return KeyHash{}(key);
}

void EstimatorCache::pin(const Shard& shard, std::size_t shard_index,
                         const Entry& entry, L1& lane, Pins& pins) const {
  const std::shared_ptr<Cell[]>& slab = shard.slabs[entry.slab_];
  if (lane.pinned_[shard_index] == slab.get()) return;
  lane.pinned_[shard_index] = slab.get();
  pins.emplace_back(slab, &entry);
}

const EstimatorCache::Entry* EstimatorCache::find(const Key& key,
                                                  std::uint64_t hash,
                                                  L1& lane,
                                                  Pins& pins) const {
  VERITAS_EXPECTS(lane.owner_ == this);
  const std::size_t s = hash % config_.shards;
  Shard& shard = shards_[s];
  std::shared_lock lock(shard.mutex);
  std::size_t slot = 0;
  if (const Entry* entry = shard.probe(key, hash, slot)) {
    shard.hits.fetch_add(1, std::memory_order_relaxed);
    pin(shard, s, *entry, lane, pins);
    return entry;
  }
  shard.misses.fetch_add(1, std::memory_order_relaxed);
  lane.probed_ = true;
  lane.probe_hash_ = hash;
  lane.probe_version_ = shard.version;
  lane.probe_slot_ = slot;
  return nullptr;
}

const EstimatorCache::Entry* EstimatorCache::insert(
    const Key& key, std::uint64_t hash, std::span<const double> mean,
    std::span<const double> plain, L1& lane, Pins& pins) {
  VERITAS_EXPECTS(lane.owner_ == this);
  VERITAS_EXPECTS(plain.empty() || plain.size() == mean.size());
  const std::size_t s = hash % config_.shards;
  Shard& shard = shards_[s];
  std::unique_lock lock(shard.mutex);

  // The failed find() of this key left its probe: while the shard is
  // unchanged since, the key is absent and the probe's empty slot is
  // where a re-probe would land.
  std::size_t slot = kNoSlot;
  if (lane.probed_ && lane.probe_hash_ == hash &&
      lane.probe_version_ == shard.version) {
    slot = lane.probe_slot_;
  } else if (const Entry* entry = shard.probe(key, hash, slot)) {
    lane.probed_ = false;
    pin(shard, s, *entry, lane, pins);
    return entry;
  }
  lane.probed_ = false;

  if (shard.count >= per_shard_capacity_) {
    shard.retire();
    ++shard.flushes;
    slot = kNoSlot;
  }
  if (shard.index == nullptr || 2 * (shard.count + 1) > shard.mask + 1) {
    shard.grow();
    slot = kNoSlot;
  }
  if (slot == kNoSlot) slot = shard.free_slot(hash);

  const std::size_t k = mean.size();
  const bool two_rows = !plain.empty();
  Entry* entry = new (shard.allocate(entry_bytes(k, two_rows))) Entry;
  entry->key_ = key;
  entry->k_ = static_cast<std::uint32_t>(k);
  entry->slab_ = static_cast<std::uint32_t>(shard.slabs.size() - 1);
  entry->two_rows_ = two_rows;
  double* rows = const_cast<double*>(entry->mean());
  std::memcpy(rows, mean.data(), k * sizeof(double));
  if (two_rows) std::memcpy(rows + k, plain.data(), k * sizeof(double));

  shard.index[slot] = {hash, entry};
  ++shard.count;
  ++shard.version;
  ++shard.insertions;
  pin(shard, s, *entry, lane, pins);
  return entry;
}

EstimatorCache::Stats EstimatorCache::stats() const {
  Stats s;
  for (std::size_t i = 0; i < config_.shards; ++i) {
    const Shard& shard = shards_[i];
    std::shared_lock lock(shard.mutex);
    s.hits += shard.hits.load(std::memory_order_relaxed);
    s.misses += shard.misses.load(std::memory_order_relaxed);
    s.insertions += shard.insertions;
    s.flushes += shard.flushes;
    s.entries += shard.count;
    s.slabs += shard.slabs_allocated;
    s.index_allocations += shard.index_allocations;
  }
  return s;
}

void EstimatorCache::clear() {
  for (std::size_t i = 0; i < config_.shards; ++i) {
    std::unique_lock lock(shards_[i].mutex);
    shards_[i].retire();
  }
  epoch_.fetch_add(1, std::memory_order_release);
}

void EstimatorCache::L1::sync(const EstimatorCache& owner) {
  owner_ = &owner;
  epoch_ = owner.epoch();
  pinned_.assign(owner.config_.shards, nullptr);
  probed_ = false;
}

}  // namespace veritas::core
