// The lane-side handle on the shared (W, S) estimator cache
// (EstimatorCache::L1): find/insert round trips, owner/epoch re-keying,
// clear()-driven epoch invalidation, slab pins surviving capacity
// flushes and clears, lane hopping between engines, and end-to-end
// bit-identity of every row branch (miss, hit from another lane, warm
// repeat) against a cache-disabled engine.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/estimator_cache.hpp"
#include "core/inference_engine.hpp"
#include "core/test_helpers.hpp"
#include "trace/trace_generator.hpp"
#include "util/expects.hpp"

namespace {

using namespace veritas;
using core::ChunkObservation;
using core::Ehmm;
using core::EstimatorCache;

std::vector<ChunkObservation> session_obs(std::uint64_t seed,
                                          std::size_t chunks = 40) {
  const auto gtbw =
      trace::make_traces(trace::TraceFamily::kFccLike, 1, seed)[0];
  return core::observations_from_log(
      core::testing::deployed_log(gtbw, chunks));
}

void expect_matrix_eq(const math::Matrix& a, const math::Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t n = 0; n < a.rows(); ++n) {
    for (std::size_t i = 0; i < a.cols(); ++i) {
      EXPECT_EQ(a(n, i), b(n, i)) << "n=" << n << " i=" << i;
    }
  }
}

EstimatorCache::Key key_for(double size_bytes, std::uint64_t table_id = 1) {
  net::TcpState w;
  w.cwnd_segments = 10.0;
  return EstimatorCache::key_of(w, size_bytes, table_id);
}

const EstimatorCache::Entry* get(const EstimatorCache& cache,
                                 EstimatorCache::L1& lane,
                                 EstimatorCache::Pins& pins,
                                 const EstimatorCache::Key& key) {
  return cache.find(key, EstimatorCache::hash_of(key), lane, pins);
}

/// Stores the row {v, v + 1, v + 2} under `key`.
const EstimatorCache::Entry* put(EstimatorCache& cache,
                                 EstimatorCache::L1& lane,
                                 EstimatorCache::Pins& pins,
                                 const EstimatorCache::Key& key, double v) {
  const double row[3] = {v, v + 1.0, v + 2.0};
  return cache.insert(key, EstimatorCache::hash_of(key), row, {}, lane, pins);
}

EstimatorCache::Config one_shard(std::size_t capacity = 64) {
  EstimatorCache::Config config;
  config.capacity = capacity;
  config.shards = 1;
  return config;
}

TEST(EstimatorL1, FindPutRoundTripAndStats) {
  // The lane-side find/insert round trip: a miss leaves its probe for the
  // insert, a hit returns the stored entry itself, a repeat insert keeps
  // the first writer's row, and rows served from one slab take one pin.
  EstimatorCache cache(one_shard());
  EstimatorCache::L1 lane;
  EstimatorCache::Pins pins;
  lane.sync(cache);

  const EstimatorCache::Key key = key_for(1000.0);
  EXPECT_EQ(get(cache, lane, pins, key), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_TRUE(pins.empty());

  const EstimatorCache::Entry* stored = put(cache, lane, pins, key, 2.0);
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(stored->size(), 3u);
  EXPECT_EQ(stored->mean()[0], 2.0);
  EXPECT_EQ(stored->mean()[2], 4.0);
  EXPECT_EQ(stored->plain(), stored->mean());
  EXPECT_EQ(get(cache, lane, pins, key), stored);
  EXPECT_EQ(cache.stats().hits, 1u);

  // Same-key insert: the first writer wins and nothing is copied.
  EXPECT_EQ(put(cache, lane, pins, key, 9.0), stored);
  EXPECT_EQ(stored->mean()[0], 2.0);

  // Distinct keys coexist, without a find() first too.
  const EstimatorCache::Key other = key_for(2000.0);
  const EstimatorCache::Entry* second = put(cache, lane, pins, other, 5.0);
  EXPECT_EQ(get(cache, lane, pins, other), second);
  EXPECT_EQ(get(cache, lane, pins, key), stored);

  // Two rows: `plain` is stored behind `mean`.
  const EstimatorCache::Key twin = key_for(3000.0);
  const double mean[2] = {1.0, 2.0};
  const double plain[2] = {3.0, 4.0};
  const EstimatorCache::Entry* both = cache.insert(
      twin, EstimatorCache::hash_of(twin), mean, plain, lane, pins);
  EXPECT_EQ(both->mean()[1], 2.0);
  EXPECT_EQ(both->plain()[0], 3.0);
  EXPECT_EQ(both->plain()[1], 4.0);

  const EstimatorCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.slabs, 1u);
  EXPECT_EQ(pins.size(), 1u);
}

TEST(EstimatorL1, SyncDropsSlotsWhenTheOwnerChanges) {
  // sync() re-keys the handle to (owner, epoch) and forgets the session's
  // pins: a lane that hops caches sees only the new owner's rows, and
  // the first row it reads from a slab after a sync is pinned again.
  EstimatorCache a(one_shard()), b(one_shard());
  EstimatorCache::L1 lane;
  const EstimatorCache::Key key = key_for(1000.0);

  EstimatorCache::Pins pins;
  lane.sync(a);
  EXPECT_EQ(lane.owner(), &a);
  put(a, lane, pins, key, 1.0);
  ASSERT_NE(get(a, lane, pins, key), nullptr);
  EXPECT_EQ(pins.size(), 1u);

  EstimatorCache::Pins hop;
  lane.sync(b);
  EXPECT_EQ(lane.owner(), &b);
  EXPECT_EQ(get(b, lane, hop, key), nullptr);
  // A handle synced to one cache cannot probe another.
  EXPECT_THROW(get(a, lane, hop, key), ContractViolation);

  EstimatorCache::Pins back;
  lane.sync(a);
  ASSERT_NE(get(a, lane, back, key), nullptr);
  EXPECT_EQ(back.size(), 1u);
}

TEST(EstimatorL1, ClearBumpsTheEpochAndInvalidatesSlots) {
  EstimatorCache cache(one_shard());
  EXPECT_EQ(cache.epoch(), 0u);

  EstimatorCache::L1 lane;
  EstimatorCache::Pins pins;
  lane.sync(cache);
  const EstimatorCache::Key key = key_for(1000.0);
  const EstimatorCache::Entry* before = put(cache, lane, pins, key, 3.0);

  cache.clear();
  EXPECT_EQ(cache.epoch(), 1u);
  EXPECT_EQ(cache.stats().entries, 0u);
  // The pin outlives the clear: the row stays readable...
  EXPECT_EQ(before->mean()[0], 3.0);
  EXPECT_EQ(before->mean()[2], 5.0);
  // ...but is unreachable, and the next sync picks up the new epoch.
  lane.sync(cache);
  EXPECT_EQ(lane.epoch(), 1u);
  EstimatorCache::Pins after;
  EXPECT_EQ(get(cache, lane, after, key), nullptr);
}

TEST(EstimatorL1, CapacityFlushDoesNotBumpTheEpochOrDropPins) {
  // Entries are pure functions of their key, so a shard flush must not
  // invalidate pins: the pinned row can go unreachable in the cache but
  // never stale, and its slab lives until the pin drops.
  EstimatorCache::Config config;
  config.capacity = 8;
  config.shards = 2;
  EstimatorCache tiny(config);

  EstimatorCache::L1 lane;
  EstimatorCache::Pins pins;
  lane.sync(tiny);
  const EstimatorCache::Entry* pinned =
      put(tiny, lane, pins, key_for(500.0), 7.0);

  // Blow well past capacity so every shard flushes at least once; the
  // junk rows' own pins drop as they go.
  EstimatorCache::L1 churn;
  for (int i = 0; i < 64; ++i) {
    EstimatorCache::Pins junk;
    churn.sync(tiny);
    put(tiny, churn, junk, key_for(1000.0 + i), double(i));
  }
  EXPECT_GT(tiny.stats().flushes, 0u);
  EXPECT_EQ(tiny.epoch(), 0u);

  EXPECT_EQ(pinned->mean()[0], 7.0);
  EXPECT_EQ(pinned->mean()[2], 9.0);
}

TEST(EstimatorL1, WarmScratchRepeatInferBypassesTheSharedMemo) {
  // Second inference through the same scratch: with one cache level
  // there is nothing in front of the shared memo, so every row of the
  // repeat is a single probe that hits — no misses, no insertions, one
  // pin per slab — and the results are bit-identical.
  const auto gtbw =
      trace::make_traces(trace::TraceFamily::kFccLike, 1, 37)[0];
  const sim::SessionLog log = core::testing::deployed_log(gtbw, 40);

  const core::InferenceEngine engine{core::VeritasConfig{}};
  ASSERT_NE(engine.estimator_cache(), nullptr);

  Ehmm::Scratch lane;
  const core::VeritasResult first = engine.infer(log, lane);
  const EstimatorCache::Stats after_first = engine.estimator_cache()->stats();

  const core::VeritasResult second = engine.infer(log, lane);
  const EstimatorCache::Stats after_second =
      engine.estimator_cache()->stats();
  EXPECT_GE(after_second.hits - after_first.hits,
            core::observations_from_log(log).size());
  EXPECT_EQ(after_second.misses, after_first.misses);
  EXPECT_EQ(after_second.insertions, after_first.insertions);
  EXPECT_LE(lane.emission_refs.size(), after_second.slabs);
  EXPECT_EQ(lane.estimator_l1.owner(), engine.estimator_cache().get());

  EXPECT_EQ(first.log_likelihood, second.log_likelihood);
  ASSERT_EQ(first.map_states_mbps.size(), second.map_states_mbps.size());
  for (std::size_t i = 0; i < first.map_states_mbps.size(); ++i) {
    EXPECT_EQ(first.map_states_mbps[i], second.map_states_mbps[i]);
  }
  expect_matrix_eq(first.posterior_marginals, second.posterior_marginals);
}

TEST(EstimatorL1, AllThreeRowBranchesAreBitIdentical) {
  // The rows path serves a tuple three ways — a genuine miss/compute, a
  // hit on a row another lane computed, and a hit on a row this lane
  // computed — and all three must produce the same bits as a
  // cache-disabled engine. Lane A's first infer exercises the misses;
  // lane B's infer the cross-lane hits; lane A's repeat its own hits.
  const auto gtbw =
      trace::make_traces(trace::TraceFamily::kFccLike, 1, 41)[0];
  const sim::SessionLog log = core::testing::deployed_log(gtbw, 40);

  core::VeritasConfig off;
  off.estimator_cache_bytes = 0;
  const core::InferenceEngine uncached(off);
  Ehmm::Scratch plain;
  const core::VeritasResult reference = uncached.infer(log, plain);

  const core::InferenceEngine cached{core::VeritasConfig{}};
  Ehmm::Scratch a, b;
  const core::VeritasResult miss_branch = cached.infer(log, a);
  const core::VeritasResult other_lane_branch = cached.infer(log, b);
  const core::VeritasResult same_lane_branch = cached.infer(log, a);

  for (const core::VeritasResult* r :
       {&miss_branch, &other_lane_branch, &same_lane_branch}) {
    EXPECT_EQ(r->log_likelihood, reference.log_likelihood);
    ASSERT_EQ(r->map_states_mbps.size(), reference.map_states_mbps.size());
    for (std::size_t i = 0; i < reference.map_states_mbps.size(); ++i) {
      EXPECT_EQ(r->map_states_mbps[i], reference.map_states_mbps[i]);
    }
    expect_matrix_eq(r->posterior_marginals, reference.posterior_marginals);
  }
}

TEST(EstimatorL1, ClearMidLaneRecomputesIdentically) {
  // clear() between two inferences through one scratch: the handle
  // re-syncs against the new epoch, the memo re-warms from scratch
  // (insertions grow again), and the recomputed session is bit-identical.
  const auto gtbw =
      trace::make_traces(trace::TraceFamily::kFccLike, 1, 43)[0];
  const sim::SessionLog log = core::testing::deployed_log(gtbw, 30);

  const core::InferenceEngine engine{core::VeritasConfig{}};
  Ehmm::Scratch lane;
  const core::VeritasResult before = engine.infer(log, lane);
  const std::uint64_t insertions_before =
      engine.estimator_cache()->stats().insertions;

  engine.estimator_cache()->clear();
  const core::VeritasResult after = engine.infer(log, lane);
  EXPECT_GT(engine.estimator_cache()->stats().insertions, insertions_before);

  EXPECT_EQ(before.log_likelihood, after.log_likelihood);
  expect_matrix_eq(before.posterior_marginals, after.posterior_marginals);
}

TEST(EstimatorL1, LaneHoppingBetweenCachedEnginesStaysCorrect) {
  // One scratch serving two engines with distinct caches (and distinct
  // candidate tables): the handle re-keys on every hop, so neither
  // engine ever observes the other's rows. Each result matches a fresh-scratch
  // reference bitwise.
  const auto gtbw =
      trace::make_traces(trace::TraceFamily::kFccLike, 1, 47)[0];
  const sim::SessionLog log = core::testing::deployed_log(gtbw, 30);

  core::VeritasConfig narrow;
  narrow.max_mbps = 8.0;
  core::VeritasConfig wide;
  wide.max_mbps = 12.0;
  const core::InferenceEngine first(narrow);
  const core::InferenceEngine second(wide);

  Ehmm::Scratch lane;
  for (int hop = 0; hop < 2; ++hop) {
    const core::VeritasResult via_first = first.infer(log, lane);
    const core::VeritasResult via_second = second.infer(log, lane);

    Ehmm::Scratch fresh_a, fresh_b;
    const core::VeritasResult ref_first = first.infer(log, fresh_a);
    const core::VeritasResult ref_second = second.infer(log, fresh_b);
    EXPECT_EQ(via_first.log_likelihood, ref_first.log_likelihood);
    EXPECT_EQ(via_second.log_likelihood, ref_second.log_likelihood);
    expect_matrix_eq(via_first.posterior_marginals,
                     ref_first.posterior_marginals);
    expect_matrix_eq(via_second.posterior_marginals,
                     ref_second.posterior_marginals);
  }
}

// Chaos over the shared cache: worker lanes replay sessions through one
// under-provisioned cache while a mutator thread interleaves clear()s
// (epoch bumps) and junk insertions (capacity flushes). Every lane must
// keep producing bit-identical results throughout — the slab pins keep
// served rows alive across flushes and clears. Run under TSan and ASan
// in CI.
TEST(EstimatorL1Chaos, LanesStayBitIdenticalUnderClearsAndFlushes) {
  const Ehmm ehmm = core::testing::small_ehmm();
  std::vector<std::vector<ChunkObservation>> sessions;
  for (std::uint64_t s = 0; s < 3; ++s) {
    sessions.push_back(session_obs(60 + s, 24));
  }

  // Bitwise reference per session through a private, ample cache.
  std::vector<double> expected_ll;
  std::vector<math::Matrix> expected_gamma;
  for (const auto& obs : sessions) {
    Ehmm::Scratch scratch;
    const Ehmm::InferencePass pass = ehmm.infer_fused(obs, scratch);
    expected_ll.push_back(pass.forward_backward.log_likelihood);
    expected_gamma.push_back(pass.forward_backward.gamma);
  }

  EstimatorCache::Config config;
  config.capacity = 64;
  config.shards = 2;
  auto shared = std::make_shared<EstimatorCache>(config);

  constexpr int kRounds = 30;
  std::atomic<bool> stop{false};
  std::vector<double> worst(4, 1.0);
  std::vector<std::thread> lanes;
  for (std::size_t t = 0; t < worst.size(); ++t) {
    lanes.emplace_back([&, t] {
      Ehmm::Scratch scratch;
      scratch.estimator_cache = shared;
      double local = 0.0;
      for (int round = 0; round < kRounds; ++round) {
        const std::size_t s = (t + round) % sessions.size();
        const Ehmm::InferencePass pass =
            ehmm.infer_fused(sessions[s], scratch);
        if (pass.forward_backward.log_likelihood != expected_ll[s]) {
          local = std::max(local, 1.0);
        }
        local = std::max(
            local, pass.forward_backward.gamma.max_abs_diff(
                       expected_gamma[s]));
      }
      worst[t] = local;
    });
  }
  std::thread mutator([&] {
    std::uint64_t junk = 0;
    EstimatorCache::L1 lane;
    // do-while: at least one clear + churn cycle even if this thread is
    // scheduled only after the lanes already drained (single-core CI).
    do {
      shared->clear();
      EstimatorCache::Pins pins;
      lane.sync(*shared);
      // Junk rows under a foreign table id: churns shard occupancy (and
      // with it capacity flushes) without ever being readable by the
      // model above.
      for (int i = 0; i < 48; ++i) {
        const double value = double(++junk);
        put(*shared, lane, pins, key_for(value, /*table_id=*/~0ull), value);
      }
      std::this_thread::yield();
    } while (!stop.load(std::memory_order_relaxed));
  });
  for (auto& lane : lanes) lane.join();
  stop.store(true, std::memory_order_relaxed);
  mutator.join();

  for (const double w : worst) EXPECT_EQ(w, 0.0);
  EXPECT_GT(shared->epoch(), 0u);
}

}  // namespace
