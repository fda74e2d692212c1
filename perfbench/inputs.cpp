#include "inputs.hpp"

#include <algorithm>
#include <map>

#include "abr/abr_factory.hpp"
#include "net/network_path.hpp"
#include "sim/player.hpp"
#include "sim/session.hpp"
#include "trace/trace_generator.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "video/ladder_presets.hpp"

namespace perfbench {

namespace {

constexpr double kRttS = 0.08;
constexpr double kBufferS = 5.0;
/// Pauses per paused session and their length. 330 s is past the dense
/// A^Δ table (64 windows of δ = 5 s), so every pause is an overflow delta.
constexpr std::size_t kPausesPerSession = 2;
constexpr double kMinPauseS = 330.0;
constexpr double kMaxPauseS = 900.0;

/// run_session (sim/session.cpp) with user pauses: before chunk n the
/// player idles for pauses[n] seconds with playback stopped, so the
/// buffer keeps its level and the connection sees a long idle gap.
veritas::sim::SessionLog simulate_with_pauses(
    const veritas::video::Video& video, veritas::abr::AbrAlgorithm& abr,
    const veritas::net::NetworkPath& path,
    const std::map<std::size_t, double>& pauses) {
  using namespace veritas;
  const double chunk_s = video.chunk_duration_s();
  abr.reset();
  net::TcpConnection connection = path.make_connection();
  sim::PlayerBuffer buffer(kBufferS);
  sim::SessionLog log;
  log.chunk_duration_s = chunk_s;
  log.rtt_s = path.rtt_s();
  std::vector<abr::DownloadedChunk> history;
  double now = 0.0;
  for (std::size_t n = 0; n < video.num_chunks(); ++n) {
    if (const auto it = pauses.find(n); it != pauses.end()) now += it->second;
    if (!buffer.has_room(chunk_s)) {
      const double wait = buffer.time_until_room(chunk_s);
      buffer.advance(wait);
      now += wait;
    }
    abr::AbrContext context;
    context.video = &video;
    context.next_chunk = n;
    context.buffer_s = buffer.level_s();
    context.buffer_capacity_s = kBufferS;
    context.history = history;
    const std::size_t quality = abr.choose_quality(context);
    const double size_bytes = video.chunk_size_bytes(n, quality);
    const net::TcpState w = connection.snapshot(now);
    const net::DownloadResult download =
        connection.download(path.bandwidth(), now, size_bytes);
    buffer.advance(download.duration_s());
    buffer.push_chunk(chunk_s);
    buffer.start_playback();

    sim::ChunkLog chunk;
    chunk.index = n;
    chunk.quality = quality;
    chunk.size_bytes = size_bytes;
    chunk.start_s = download.start_s;
    chunk.end_s = download.end_s;
    chunk.tcp_at_start = w;
    chunk.buffer_at_start_s = context.buffer_s;
    log.chunks.push_back(chunk);
    history.push_back({n, quality, size_bytes, download.duration_s()});
    now = download.end_s;
  }
  return log;
}

/// FCC-like regime trace (trace_generator.cpp's kFccLike preset) of a
/// given length, for sessions that outlast the 600 s default.
veritas::trace::BandwidthTrace fcc_like_trace(double duration_s,
                                              std::uint64_t seed) {
  veritas::util::Rng rng(seed);
  veritas::trace::RegimeTraceConfig regime;
  regime.duration_s = duration_s;
  regime.high_mbps = rng.uniform(4.5, 8.0);
  regime.low_mbps = std::max(2.0, regime.high_mbps - rng.uniform(1.5, 3.5));
  regime.absolute_min_mbps = 2.0;
  regime.absolute_max_mbps = 8.0;
  return veritas::trace::regime_trace(regime, rng.fork(1)());
}

Corpus make_corpus(std::size_t count, std::uint64_t seed, std::size_t threads,
                   bool with_pauses) {
  using namespace veritas;
  Corpus corpus;
  corpus.logs.resize(count);
  corpus.gtbw.resize(count);
  corpus.abr.resize(count);
  std::vector<std::map<std::size_t, double>> pauses(count);
  const util::Rng root(seed ^ (with_pauses ? 0x9a05edULL : 0xf1ee7ULL));
  const std::size_t chunks = bench_video().num_chunks();
  for (std::size_t i = 0; i < count; ++i) {
    util::Rng rng = root.fork(i);
    corpus.abr[i] = fleet_abrs()[std::size_t(
        rng.uniform_int(0, std::int64_t(fleet_abrs().size()) - 1))];
    if (with_pauses) {
      while (pauses[i].size() < kPausesPerSession) {
        const auto at = std::size_t(rng.uniform_int(20, std::int64_t(chunks) - 20));
        pauses[i][at] = rng.uniform(kMinPauseS, kMaxPauseS);
      }
    }
  }
  if (!with_pauses) {
    corpus.gtbw =
        trace::make_traces(trace::TraceFamily::kFccLike, count, root.fork(count)());
  } else {
    for (std::size_t i = 0; i < count; ++i) {
      double paused_s = 0.0;
      for (const auto& [at, s] : pauses[i]) paused_s += s;
      corpus.gtbw[i] = fcc_like_trace(
          bench_video().duration_s() + paused_s + 300.0, root.fork(count + i)());
    }
  }
  util::ThreadPool pool(threads > 1 ? threads - 1 : 0);
  pool.parallel_for(count, [&](std::size_t, std::size_t i) {
    const net::NetworkPath path(corpus.gtbw[i], kRttS);
    const auto abr = abr::make_abr(corpus.abr[i], i);
    if (with_pauses) {
      corpus.logs[i] = simulate_with_pauses(bench_video(), *abr, path, pauses[i]);
    } else {
      sim::SessionConfig config;
      config.buffer_capacity_s = kBufferS;
      corpus.logs[i] = sim::run_session(bench_video(), *abr, path, config).log;
    }
  });
  return corpus;
}

}  // namespace

const veritas::video::Video& bench_video() {
  static const veritas::video::Video video(
      veritas::video::default_video_config());
  return video;
}

Corpus fleet_corpus(std::size_t count, std::uint64_t seed,
                    std::size_t threads) {
  return make_corpus(count, seed, threads, false);
}

Corpus paused_corpus(std::size_t count, std::uint64_t seed,
                     std::size_t threads) {
  return make_corpus(count, seed, threads, true);
}

}  // namespace perfbench
