#include "core/estimator_cache.hpp"

#include <algorithm>
#include <bit>
#include <mutex>
#include <utility>

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

EstimatorCache::Shard& EstimatorCache::shard_for(
    const Key& key) const noexcept {
  return shards_[KeyHash{}(key) % config_.shards];
}

std::shared_ptr<const EstimatorCache::Entry> EstimatorCache::find(
    const Key& key) const {
  Shard& shard = shard_for(key);
  {
    std::shared_lock lock(shard.mutex);
    const auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

void EstimatorCache::insert(const Key& key,
                            std::shared_ptr<const Entry> entry) {
  Shard& shard = shard_for(key);
  std::unique_lock lock(shard.mutex);
  if (shard.map.size() >= per_shard_capacity_ &&
      shard.map.find(key) == shard.map.end()) {
    shard.map.clear();
    flushes_.fetch_add(1, std::memory_order_relaxed);
  }
  const auto [it, inserted] = shard.map.try_emplace(key, std::move(entry));
  if (inserted) insertions_.fetch_add(1, std::memory_order_relaxed);
}

EstimatorCache::Stats EstimatorCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.insertions = insertions_.load(std::memory_order_relaxed);
  s.flushes = flushes_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    std::shared_lock lock(shards_[i].mutex);
    s.entries += shards_[i].map.size();
  }
  return s;
}

void EstimatorCache::clear() {
  for (std::size_t i = 0; i < config_.shards; ++i) {
    std::unique_lock lock(shards_[i].mutex);
    shards_[i].map.clear();
  }
  // Published after the shards are empty so an L1 that syncs against the
  // new epoch can never re-pin a row the clear was meant to drop.
  epoch_.fetch_add(1, std::memory_order_release);
}

}  // namespace veritas::core
