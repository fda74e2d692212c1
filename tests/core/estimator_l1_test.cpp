// The per-lane lock-free L1 front-cache over the shared (W, S)
// estimator memo (PR 7 tentpole): direct table semantics (find/put,
// owner/epoch re-keying, displacement), clear()-driven epoch
// invalidation, capacity-flush survival through the shared_ptr pins,
// lane hopping between engines, and end-to-end bit-identity of the
// L1-hit / L0-hit / miss branches of the zero-copy emission rows path.
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

std::shared_ptr<const EstimatorCache::Entry> entry_with(double v) {
  auto entry = std::make_shared<EstimatorCache::Entry>();
  entry->mean = {v, v + 1.0, v + 2.0};
  return entry;
}

TEST(EstimatorL1, FindPutRoundTripAndStats) {
  EstimatorCache cache;
  EstimatorCache::L1 l1;
  l1.sync(cache);

  const EstimatorCache::Key key = key_for(1000.0);
  EXPECT_EQ(l1.find(key), nullptr);
  EXPECT_EQ(l1.misses(), 1u);

  l1.put(key, entry_with(2.0));
  const std::shared_ptr<const EstimatorCache::Entry>* hit = l1.find(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ((*hit)->mean[0], 2.0);
  EXPECT_EQ(l1.hits(), 1u);

  // Same-key put overwrites in place rather than burning a second slot.
  l1.put(key, entry_with(9.0));
  hit = l1.find(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ((*hit)->mean[0], 9.0);

  // Distinct keys coexist.
  const EstimatorCache::Key other = key_for(2000.0);
  l1.put(other, entry_with(5.0));
  ASSERT_NE(l1.find(other), nullptr);
  ASSERT_NE(l1.find(key), nullptr);
}

TEST(EstimatorL1, SyncDropsSlotsWhenTheOwnerChanges) {
  EstimatorCache a, b;
  EstimatorCache::L1 l1;
  const EstimatorCache::Key key = key_for(1000.0);

  l1.sync(a);
  l1.put(key, entry_with(1.0));
  l1.sync(a);  // same owner, same epoch: no-op
  ASSERT_NE(l1.find(key), nullptr);

  l1.sync(b);  // lane hop: every slot dropped
  EXPECT_EQ(l1.find(key), nullptr);

  l1.sync(a);  // hopping back does not resurrect anything
  EXPECT_EQ(l1.find(key), nullptr);
}

TEST(EstimatorL1, ClearBumpsTheEpochAndInvalidatesSlots) {
  EstimatorCache cache;
  EXPECT_EQ(cache.epoch(), 0u);

  EstimatorCache::L1 l1;
  l1.sync(cache);
  const EstimatorCache::Key key = key_for(1000.0);
  l1.put(key, entry_with(3.0));
  ASSERT_NE(l1.find(key), nullptr);

  cache.clear();
  EXPECT_EQ(cache.epoch(), 1u);
  // The stale pin survives until the next sync()...
  l1.sync(cache);
  // ...at which point the epoch mismatch drops it.
  EXPECT_EQ(l1.find(key), nullptr);
}

TEST(EstimatorL1, CapacityFlushDoesNotBumpTheEpochOrDropPins) {
  // Entries are pure functions of their key, so a shard flush must not
  // invalidate L1 pins: the pinned row can go unreachable in the shared
  // memo but never stale. The L1 keeps serving it bit-for-bit.
  EstimatorCache::Config config;
  config.capacity = 8;
  config.shards = 2;
  EstimatorCache tiny(config);

  EstimatorCache::L1 l1;
  l1.sync(tiny);
  const EstimatorCache::Key pinned_key = key_for(500.0);
  const auto pinned = entry_with(7.0);
  tiny.insert(pinned_key, pinned);
  l1.put(pinned_key, pinned);

  // Blow well past capacity so every shard flushes at least once.
  for (int i = 0; i < 64; ++i) {
    tiny.insert(key_for(1000.0 + i), entry_with(double(i)));
  }
  EXPECT_GT(tiny.stats().flushes, 0u);
  EXPECT_EQ(tiny.epoch(), 0u);

  l1.sync(tiny);  // no-op: same owner, same epoch
  const std::shared_ptr<const EstimatorCache::Entry>* hit =
      l1.find(pinned_key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ((*hit)->mean[0], 7.0);
  EXPECT_EQ((*hit)->mean[2], 9.0);
}

TEST(EstimatorL1, WarmScratchRepeatInferBypassesTheSharedMemo) {
  // Second inference through the same scratch: every emission tuple is
  // already pinned in the lane's L1, so the shared memo sees zero new
  // traffic (no hits, no misses, no insertions) and the results are
  // bit-identical.
  const auto gtbw =
      trace::make_traces(trace::TraceFamily::kFccLike, 1, 37)[0];
  const sim::SessionLog log = core::testing::deployed_log(gtbw, 40);

  const core::InferenceEngine engine{core::VeritasConfig{}};
  ASSERT_NE(engine.estimator_cache(), nullptr);

  Ehmm::Scratch lane;
  const core::VeritasResult first = engine.infer(log, lane);
  const EstimatorCache::Stats after_first = engine.estimator_cache()->stats();
  const std::uint64_t l1_hits_after_first = lane.estimator_l1.hits();

  const core::VeritasResult second = engine.infer(log, lane);
  const EstimatorCache::Stats after_second =
      engine.estimator_cache()->stats();
  EXPECT_EQ(after_second.hits, after_first.hits);
  EXPECT_EQ(after_second.misses, after_first.misses);
  EXPECT_EQ(after_second.insertions, after_first.insertions);
  EXPECT_GT(lane.estimator_l1.hits(), l1_hits_after_first);

  EXPECT_EQ(first.log_likelihood, second.log_likelihood);
  ASSERT_EQ(first.map_states_mbps.size(), second.map_states_mbps.size());
  for (std::size_t i = 0; i < first.map_states_mbps.size(); ++i) {
    EXPECT_EQ(first.map_states_mbps[i], second.map_states_mbps[i]);
  }
  expect_matrix_eq(first.posterior_marginals, second.posterior_marginals);
}

TEST(EstimatorL1, AllThreeRowBranchesAreBitIdentical) {
  // The rows path has three ways to serve a tuple — L1 hit, shared-memo
  // hit (cold L1), and a genuine miss/compute — and all three must
  // produce the same bits as a cache-disabled engine. Lane A's first
  // infer exercises miss + within-session L1 hits; lane B's infer the
  // L0-hit branch (warm memo, cold L1); lane A's repeat the pure-L1
  // branch.
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
  const core::VeritasResult l0_branch = cached.infer(log, b);
  const core::VeritasResult l1_branch = cached.infer(log, a);

  for (const core::VeritasResult* r :
       {&miss_branch, &l0_branch, &l1_branch}) {
    EXPECT_EQ(r->log_likelihood, reference.log_likelihood);
    ASSERT_EQ(r->map_states_mbps.size(), reference.map_states_mbps.size());
    for (std::size_t i = 0; i < reference.map_states_mbps.size(); ++i) {
      EXPECT_EQ(r->map_states_mbps[i], reference.map_states_mbps[i]);
    }
    expect_matrix_eq(r->posterior_marginals, reference.posterior_marginals);
  }
}

TEST(EstimatorL1, ClearMidLaneRecomputesIdentically) {
  // clear() between two inferences through one scratch: the L1 re-syncs
  // against the new epoch, the memo re-warms from scratch (insertions
  // grow again), and the recomputed session is bit-identical.
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
  // candidate tables): the L1 re-keys on every hop, so neither engine
  // ever observes the other's rows. Each result matches a fresh-scratch
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

// Chaos over the two-level cache: worker lanes replay sessions through
// one under-provisioned shared memo while a mutator thread interleaves
// clear()s (epoch bumps) and junk insertions (capacity flushes). Every
// lane must keep producing bit-identical results throughout — the L1
// pins keep served rows alive across flushes, and the epoch re-sync
// keeps them coherent across clears. Run under TSan in CI.
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
    // do-while: at least one clear + churn cycle even if this thread is
    // scheduled only after the lanes already drained (single-core CI).
    do {
      shared->clear();
      // Junk rows under a foreign table id: churns shard occupancy (and
      // with it capacity flushes) without ever being readable by the
      // model above.
      for (int i = 0; i < 48; ++i) {
        const double value = double(++junk);
        shared->insert(key_for(value, /*table_id=*/~0ull), entry_with(value));
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
