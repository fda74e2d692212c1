// Decision equivalence of abr::Mpc's pruned horizon search against the
// exhaustive levels^horizon recursion (tests/abr/mpc_reference.hpp):
// every decision must match exactly, over full simulator replays and
// over seeded random contexts that reach the edge cases of the bound
// (buffer above capacity, truncated horizon at the end of the video,
// zero and large penalties).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "abr/mpc.hpp"
#include "mpc_reference.hpp"
#include "net/network_path.hpp"
#include "sim/session.hpp"
#include "trace/trace_generator.hpp"
#include "util/rng.hpp"
#include "video/ladder_presets.hpp"
#include "video/video.hpp"

namespace veritas::abr {
namespace {

struct Penalties {
  double rebuffer;
  double switching;
};

// The default objective, a free-for-all (both bound terms vanish) and
// one where stalls and switches dominate every bitrate reward.
constexpr Penalties kPenalties[] = {{8.0, 1.0}, {0.0, 0.0}, {1000.0, 50.0}};

std::vector<video::Ladder> ladders() {
  return {video::default_ladder(), video::high_ladder(),
          video::low_high_ladder()};
}

video::Video short_video(video::Ladder ladder, double duration_s) {
  video::VideoConfig cfg = video::default_video_config(42);
  cfg.ladder = std::move(ladder);
  cfg.duration_s = duration_s;
  return video::Video(cfg);
}

TEST(MpcEquivalence, SessionReplaysMatchExhaustiveSearch) {
  constexpr trace::TraceFamily kFamilies[] = {
      trace::TraceFamily::kFccLike, trace::TraceFamily::kPoor,
      trace::TraceFamily::kGood, trace::TraceFamily::kWideRange,
      trace::TraceFamily::kSquareWave};
  std::vector<video::Video> videos;
  for (video::Ladder& ladder : ladders()) {
    videos.push_back(short_video(std::move(ladder), 40.0));
  }
  std::size_t sessions = 0;
  std::size_t decisions = 0;
  std::uint64_t seed = 100;
  for (const trace::TraceFamily family : kFamilies) {
    const net::NetworkPath path(trace::make_traces(family, 1, ++seed)[0],
                                0.08);
    for (const video::Video& video : videos) {
      for (const double buffer_s : {2.0, 5.0, 15.0, 30.0}) {
        sim::SessionConfig session;
        session.buffer_capacity_s = buffer_s;
        for (std::size_t horizon = 1; horizon <= 6; ++horizon) {
          for (const bool robust : {true, false}) {
            for (const Penalties& penalties : kPenalties) {
              MpcConfig cfg;
              cfg.horizon = horizon;
              cfg.robust = robust;
              cfg.rebuffer_penalty = penalties.rebuffer;
              cfg.switch_penalty = penalties.switching;
              Mpc mpc(cfg);
              testing::ReferenceMpc reference(cfg);
              const sim::SessionResult got =
                  sim::run_session(video, mpc, path, session);
              const sim::SessionResult want =
                  sim::run_session(video, reference, path, session);
              ASSERT_EQ(got.qualities, want.qualities)
                  << trace::family_name(family) << " levels="
                  << video.num_qualities() << " buffer=" << buffer_s
                  << " horizon=" << horizon << " robust=" << robust
                  << " penalties=" << penalties.rebuffer << "/"
                  << penalties.switching;
              ASSERT_EQ(got.total_stall_s, want.total_stall_s);
              ++sessions;
              decisions += got.qualities.size();
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(sessions, 5u * 3u * 4u * 6u * 2u * 3u);
  EXPECT_GT(decisions, 40000u);
}

TEST(MpcEquivalence, RandomContextsMatchExhaustiveSearch) {
  util::Rng rng(2024);
  std::vector<video::Video> videos;
  for (video::Ladder& ladder : ladders()) {
    videos.push_back(short_video(std::move(ladder), 60.0));
  }
  std::size_t decisions = 0;
  std::size_t above_capacity = 0;
  std::size_t truncated = 0;
  for (int trial = 0; trial < 240; ++trial) {
    const video::Video& video =
        videos[static_cast<std::size_t>(rng.uniform_int(0, 2))];
    const Penalties& penalties =
        kPenalties[static_cast<std::size_t>(rng.uniform_int(0, 2))];
    MpcConfig cfg;
    cfg.horizon = static_cast<std::size_t>(rng.uniform_int(1, 6));
    cfg.throughput_window = static_cast<std::size_t>(rng.uniform_int(1, 6));
    cfg.robust = rng.bernoulli(0.5);
    cfg.rebuffer_penalty = penalties.rebuffer;
    cfg.switch_penalty = penalties.switching;
    Mpc mpc(cfg);
    testing::ReferenceMpc reference(cfg);

    // One "session" of unrelated contexts: the predictor's error
    // tracker and the last-quality switch term carry across them.
    std::vector<DownloadedChunk> history;
    const std::size_t chunks = video.num_chunks();
    for (int n = 0; n < 12; ++n) {
      AbrContext ctx;
      ctx.video = &video;
      ctx.next_chunk =
          rng.bernoulli(0.4)
              ? chunks - 1 - static_cast<std::size_t>(rng.uniform_int(0, 4))
              : static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<std::int64_t>(chunks) - 1));
      ctx.buffer_capacity_s = rng.uniform(2.0, 30.0);
      ctx.buffer_s = rng.uniform(0.0, 1.5 * ctx.buffer_capacity_s);
      ctx.history = history;
      above_capacity += ctx.buffer_s > ctx.buffer_capacity_s;
      truncated += chunks - ctx.next_chunk < cfg.horizon;

      const std::size_t want = reference.choose_quality(ctx);
      ASSERT_EQ(mpc.choose_quality(ctx), want)
          << "trial=" << trial << " n=" << n << " chunk=" << ctx.next_chunk
          << " buffer=" << ctx.buffer_s << "/" << ctx.buffer_capacity_s;
      ++decisions;

      DownloadedChunk done;
      done.chunk_index = ctx.next_chunk;
      done.quality = want;
      done.size_bytes = video.chunk_size_bytes(ctx.next_chunk, want);
      // Throughput log-uniform over ~0.05-50 Mbps.
      const double mbps = std::exp(rng.uniform(std::log(0.05), std::log(50.0)));
      done.duration_s = done.size_bytes * 8.0 / 1e6 / mbps;
      history.push_back(done);
    }
  }
  EXPECT_EQ(decisions, 240u * 12u);
  EXPECT_GT(above_capacity, 300u);
  EXPECT_GT(truncated, 300u);
}

}  // namespace
}  // namespace veritas::abr
