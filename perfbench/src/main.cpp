// perfbench: host cost of simulating the paper's jobs.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//
// Runs one warm-up job per transport, then the workload's fixed job over
// TCP and over SCTP, alternating, until S seconds have passed (at least
// kMinReps jobs per transport), checks every job's operations and model
// digest, and prints a report followed by one JSON line:
//   --trace 0  end-to-end metrics (wall per job, setup, peak RSS); times
//              are scaled by a host-speed probe run between rounds
//              (probe.hpp)
//   --trace 1  per-layer metrics: counters from a run with a packet
//              observer, untraced timings, and a sampling profile folded
//              into layers (see fold.hpp). On farm_loss the shard.*
//              metrics come from the 2-shard manyflow job, profiled in
//              the same budget (kShardJobShare).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "fold.hpp"
#include "jobs.hpp"
#include "probe.hpp"
#include "profiler.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

constexpr Transport kTransports[] = {Transport::kTcp, Transport::kSctp};
constexpr int kMinReps = 3;
constexpr long kSampleHz = 10'000;
constexpr std::size_t kSampleCapacity = 1 << 21;  // ~3.5 min at 10 kHz
// The workload whose traced run also profiles the sharded job, that job,
// and the share of the budget it gets. No listed workload times a sharded
// job end to end: about half of its wall is one shard waiting on a futex
// for the other, so it follows the host's scheduler, and its median spread
// 0.3 of itself between runs on a shared 4-core host.
constexpr Workload kShardJobHost = Workload::kFarmLoss;
constexpr Workload kShardJob = Workload::kManyflowSharded;
constexpr double kShardJobShare = 0.3;

struct Args {
  Workload workload = Workload::kPingpongLoss;
  std::uint64_t seed = 2005;
  double seconds = 10;
  bool trace = false;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      const auto w = parse_workload(val);
      if (!w) return std::nullopt;
      a.workload = *w;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      a.trace = std::strcmp(val, "0") != 0;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || !have_workload || a.seconds <= 0) return std::nullopt;
  return a;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::size_t idx(Transport t) { return static_cast<std::size_t>(t); }

/// Operations attempted and failed over every job of the run. A job's
/// operations all fail when its model digest differs from the first job's
/// of the same workload and transport.
struct Checker {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::optional<std::uint64_t> digest[kWorkloads.size()][2];

  void check(Workload w, Transport t, const JobResult& r) {
    const JobStats& s = r.stats;
    std::uint64_t fail = s.attempted - std::min(s.completed, s.attempted);
    const std::uint64_t d = s.digest();
    auto& first = digest[static_cast<std::size_t>(w)][idx(t)];
    if (!first) {
      first = d;
    } else if (*first != d) {
      std::fprintf(stderr,
                   "perfbench: %s/%s model digest %016" PRIx64
                   " differs from the first job's %016" PRIx64 "\n",
                   to_string(w), to_string(t), d, *first);
      fail = s.attempted;
    }
    attempted += s.attempted;
    failed += fail;
  }
};

/// Timings of repeated jobs, per transport, each with the host probe's
/// time around its round.
struct Series {
  std::vector<double> wall[2];
  std::vector<double> setup[2];
  std::vector<double> parks[2];
  std::vector<double> probe[2];
  std::vector<double> probes;  // every probe run

  void add(Transport t, const JobResult& r, double probe_s) {
    wall[idx(t)].push_back(r.wall_s);
    setup[idx(t)].push_back(r.setup_s);
    parks[idx(t)].push_back(static_cast<double>(r.stats.shard_parks));
    probe[idx(t)].push_back(probe_s);
  }
  /// As measured.
  double wall_s(Transport t) const { return median(wall[idx(t)]); }
  /// Scaled to the reference host speed (see probe.hpp).
  double scaled_wall_s(Transport t) const {
    return scaled_median(wall[idx(t)], probe[idx(t)], kProbeRefS);
  }
  double scaled_setup_s(Transport t) const {
    return scaled_median(setup[idx(t)], probe[idx(t)], kProbeRefS);
  }
};

/// Alternates TCP and SCTP jobs (swapping the order every round) until
/// `budget_s` has passed and each transport ran at least `min_reps` jobs;
/// `each(t)` runs one job over transport t and returns it. The host probe
/// runs before the first round and after every round, and each job goes
/// into `series` with the mean of the two probe times around its round.
template <typename Fn>
void repeat(double budget_s, int min_reps, Series& series, Fn each) {
  const double end = now_s() + budget_s;
  double before = host_probe_s();
  series.probes.push_back(before);
  for (int round = 0;; ++round) {
    JobResult r[2];
    for (int k = 0; k < 2; ++k) r[k] = each(kTransports[(round + k) % 2]);
    const double after = host_probe_s();
    series.probes.push_back(after);
    for (int k = 0; k < 2; ++k) {
      series.add(kTransports[(round + k) % 2], r[k], (before + after) / 2);
    }
    before = after;
    if (round + 1 >= min_reps && now_s() >= end) break;
  }
}

void print_series(const Series& s, const JobStats* stats) {
  for (const Transport t : kTransports) {
    const auto& w = s.wall[idx(t)];
    const auto q = quartiles(w);
    std::printf(
        "  %-4s jobs %3zu  wall median %.4f s (q1 %.4f, q3 %.4f, iqr/median "
        "%.3f), scaled %.4f s  setup median %.6f s, scaled %.6f s",
        to_string(t), w.size(), s.wall_s(t), q[0], q[2], iqr_share(w),
        s.scaled_wall_s(t), median(s.setup[idx(t)]), s.scaled_setup_s(t));
    if (stats != nullptr) {
      const JobStats& st = stats[idx(t)];
      std::printf("  vsec %.4f  events %" PRIu64 "  digest %016" PRIx64,
                  static_cast<double>(st.vtime_ns) / 1e9, st.events,
                  st.digest());
    }
    std::printf("\n");
  }
  std::printf("  host probe: %zu runs, median %.5f s (reference %.3f s)\n",
              s.probes.size(), median(s.probes), kProbeRefS);
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

void print_result(const Checker& c, const std::vector<Metric>& metrics) {
  std::printf("operations: attempted %" PRIu64 ", failed %" PRIu64
              ", error_rate %.6g\n",
              c.attempted, c.failed,
              c.attempted == 0 ? 1.0
                               : static_cast<double>(c.failed) /
                                     static_cast<double>(c.attempted));
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              c.failed == 0 && c.attempted > 0 ? "true" : "false",
              c.attempted, c.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// ------------------------------------------------------------ --trace 0

int run_untraced(const Args& a) {
  Checker checker;
  JobStats stats[2];
  // Warm-up: one job per transport, checked but not timed. Peak RSS is
  // read after them: later jobs only add allocator fragmentation, which
  // varies with how many of them fit into the time budget.
  for (const Transport t : kTransports) {
    const JobResult r = run_job(a.workload, t, a.seed, false);
    checker.check(a.workload, t, r);
    stats[idx(t)] = r.stats;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

  Series series;
  repeat(a.seconds, kMinReps, series, [&](Transport t) {
    const JobResult r = run_job(a.workload, t, a.seed, false);
    checker.check(a.workload, t, r);
    return r;
  });

  std::printf("perfbench %s seed %" PRIu64 ", untraced:\n",
              to_string(a.workload), a.seed);
  print_series(series, stats);
  std::printf("  peak RSS %.1f MiB\n", peak_rss_mb);
  // Times are scaled to the reference host speed. setup_s: one TCP plus
  // one SCTP set-up, each the median of its jobs.
  const std::vector<Metric> metrics = {
      {"wall_s.tcp", "s", series.scaled_wall_s(Transport::kTcp)},
      {"wall_s.sctp", "s", series.scaled_wall_s(Transport::kSctp)},
      {"setup_s", "s",
       series.scaled_setup_s(Transport::kTcp) +
           series.scaled_setup_s(Transport::kSctp)},
      {"peak_rss_mb", "MiB", peak_rss_mb},
  };
  print_result(checker, metrics);
  return 0;
}

// ------------------------------------------------------------ --trace 1

double share(const LayerCounts& c, Layer l) {
  std::uint64_t total = 0;
  for (const auto n : c) total += n;
  return ratio(static_cast<double>(c[static_cast<std::size_t>(l)]),
               static_cast<double>(total));
}

double attributed(const LayerCounts& c) {
  double s = 0;
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    if (is_named(static_cast<Layer>(i))) s += share(c, static_cast<Layer>(i));
  }
  return s;
}

/// Counters, untraced timings and a folded sampling profile of one job,
/// over both transports.
struct Profile {
  JobResult counted[2];   // with a packet observer (host cost not timed)
  Series plain;           // untraced, the base of every per-time metric
  Series traced;          // sampled
  LayerCounts layers[2];  // the sampled jobs' samples, by layer
  std::size_t samples[2] = {0, 0};
};

/// Profiles workload `w` within `budget_s`: one packet-counted job per
/// transport, untraced jobs for 40% of the budget, sampled jobs (set-up,
/// run and tear-down) for the rest.
Profile profile(Workload w, std::uint64_t seed, double budget_s,
                Checker& checker, Sampler& sampler, Symbolizer& sym) {
  Profile p;
  for (const Transport t : kTransports) {
    p.counted[idx(t)] = run_job(w, t, seed, true);
    checker.check(w, t, p.counted[idx(t)]);
  }
  const double start = now_s();
  repeat(budget_s * 0.4, kMinReps, p.plain, [&](Transport t) {
    const JobResult r = run_job(w, t, seed, false);
    checker.check(w, t, r);
    return r;
  });
  std::vector<std::uintptr_t> samples[2];
  const double left = budget_s - (now_s() - start);
  repeat(left > 0 ? left : 0, 1, p.traced, [&](Transport t) {
    sampler.start(kSampleHz);
    const JobResult r = run_job(w, t, seed, false);
    sampler.stop();
    const auto s = sampler.take();
    samples[idx(t)].insert(samples[idx(t)].end(), s.begin(), s.end());
    checker.check(w, t, r);
    return r;
  });
  for (const Transport t : kTransports) {
    p.layers[idx(t)] = sym.fold(samples[idx(t)]);
    p.samples[idx(t)] = samples[idx(t)].size();
  }
  return p;
}

void print_profile(Workload w, std::uint64_t seed, const Profile& p) {
  const JobStats stats[2] = {p.counted[0].stats, p.counted[1].stats};
  std::printf("perfbench %s seed %" PRIu64 ", untraced:\n", to_string(w),
              seed);
  print_series(p.plain, stats);
  std::printf("sampled at %ld Hz:\n", kSampleHz);
  print_series(p.traced, nullptr);
  std::printf("\n%-12s %9s %9s\n", "layer share", "tcp", "sctp");
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    const auto l = static_cast<Layer>(i);
    std::printf("%-12s %8.2f%% %8.2f%%\n", to_string(l),
                100 * share(p.layers[0], l), 100 * share(p.layers[1], l));
  }
  std::printf("%-12s %8.2f%% %8.2f%%\n", "attributed",
              100 * attributed(p.layers[0]), 100 * attributed(p.layers[1]));
  std::printf("%-12s %9zu %9zu\n\n", "samples", p.samples[0], p.samples[1]);
}

int run_traced(const Args& a) {
  Checker checker;
  Sampler sampler(kSampleCapacity);
  Symbolizer sym;
  const bool with_shards = a.workload == kShardJobHost;
  const double start = now_s();
  const Profile main =
      profile(a.workload, a.seed,
              with_shards ? a.seconds * (1 - kShardJobShare) : a.seconds,
              checker, sampler, sym);
  print_profile(a.workload, a.seed, main);
  std::optional<Profile> sharded;
  if (with_shards) {
    const double left = a.seconds - (now_s() - start);
    sharded = profile(kShardJob, a.seed, left > 0 ? left : 0, checker,
                      sampler, sym);
    print_profile(kShardJob, a.seed, *sharded);
  }
  if (sampler.dropped() != 0) {
    std::fprintf(stderr, "perfbench: %" PRIu64 " samples dropped\n",
                 sampler.dropped());
  }
  // The shard.* metrics' job: the workload's own, or the sharded one.
  const Profile& sp = sharded ? *sharded : main;

  std::vector<Metric> m = {{"host.probe_s", "s", median(main.plain.probes)}};
  for (const Transport t : kTransports) {
    const std::string sfx = std::string(".") + to_string(t);
    const JobStats& s = main.counted[idx(t)].stats;
    const JobStats& ss = sp.counted[idx(t)].stats;
    const LayerCounts& c = main.layers[idx(t)];
    const double wall = main.plain.wall_s(t);
    const double vsec = static_cast<double>(s.vtime_ns) / 1e9;
    const auto cnt = [](std::uint64_t v) { return static_cast<double>(v); };
    // ns of untraced wall per unit of work, by the layer's sample share.
    const auto ns_per = [&](Layer l, std::uint64_t work) {
      return ratio(share(c, l) * wall * 1e9, cnt(work));
    };
    m.push_back({"host.raw_wall_s" + sfx, "s", wall});
    m.push_back({"sim.events" + sfx, "count", cnt(s.events)});
    m.push_back({"sim.events_per_s" + sfx, "1/s", ratio(cnt(s.events), wall)});
    m.push_back({"sim.vsec" + sfx, "s", vsec});
    m.push_back({"sim.wall_per_vsec" + sfx, "s/s", ratio(wall, vsec)});
    m.push_back({"sim.self_share" + sfx, "ratio", share(c, Layer::kSim)});
    m.push_back({"fiber.suspends" + sfx, "count", cnt(s.rpi_blocks)});
    m.push_back({"fiber.self_share" + sfx, "ratio", share(c, Layer::kFiber)});
    m.push_back({"shard.rounds" + sfx, "count", cnt(ss.shard_rounds)});
    m.push_back({"shard.messages" + sfx, "count", cnt(ss.shard_messages)});
    m.push_back(
        {"shard.ingest_skips" + sfx, "count", cnt(ss.shard_ingest_skips)});
    m.push_back(
        {"shard.parks" + sfx, "count", median(sp.plain.parks[idx(t)])});
    m.push_back({"shard.events_per_round" + sfx, "count",
                 ratio(cnt(ss.events), cnt(ss.shard_rounds))});
    m.push_back({"shard.wall_s" + sfx, "s", sp.plain.scaled_wall_s(t)});
    m.push_back({"shard.wait_share" + sfx, "ratio",
                 share(sp.layers[idx(t)], Layer::kShardWait)});
    m.push_back({"net.packets" + sfx, "count", cnt(s.link_packets)});
    m.push_back({"net.bytes" + sfx, "B", cnt(s.link_bytes)});
    m.push_back({"net.drops_queue" + sfx, "count", cnt(s.drops_queue)});
    m.push_back({"net.drops_loss" + sfx, "count", cnt(s.drops_loss)});
    m.push_back({"net.self_share" + sfx, "ratio", share(c, Layer::kNet)});
    m.push_back({"net.ns_per_packet" + sfx, "ns",
                 ns_per(Layer::kNet, s.link_packets)});
    m.push_back({"lb.forwarded" + sfx, "count", cnt(s.lb_forwarded)});
    m.push_back({"net.copy_bytes_per_byte" + sfx, "B/B",
                 ratio(cnt(s.copy_bytes), cnt(s.ingest_bytes))});
    m.push_back({"mem.self_share" + sfx, "ratio", share(c, Layer::kMem)});
    // The transport's own layer, measured on its own job.
    const PacketCounts& pk = main.counted[idx(t)].packets;
    const std::string tp = to_string(t);
    const std::uint64_t packets = t == Transport::kTcp ? pk.tcp : pk.sctp;
    const std::uint64_t rtx = t == Transport::kTcp ? pk.tcp_rtx : pk.sctp_rtx;
    const Layer tl = t == Transport::kTcp ? Layer::kTcp : Layer::kSctp;
    m.push_back({tp + ".packets", "count", cnt(packets)});
    m.push_back({tp + ".rtx_packets", "count", cnt(rtx)});
    m.push_back({tp + ".useful_ratio", "ratio",
                 packets == 0 ? 0 : 1 - ratio(cnt(rtx), cnt(packets))});
    m.push_back({tp + ".self_share", "ratio", share(c, tl)});
    m.push_back({tp + ".ns_per_packet", "ns", ns_per(tl, packets)});
    m.push_back({"rpi.sends" + sfx, "count", cnt(s.rpi_sends)});
    m.push_back({"rpi.eager_msgs" + sfx, "count", cnt(s.rpi_eager)});
    m.push_back({"rpi.rendezvous_msgs" + sfx, "count", cnt(s.rpi_rendezvous)});
    m.push_back({"rpi.unexpected_msgs" + sfx, "count", cnt(s.rpi_unexpected)});
    m.push_back({"rpi.ctl_msgs" + sfx, "count", cnt(s.rpi_ctl)});
    m.push_back({"rpi.self_share" + sfx, "ratio", share(c, Layer::kRpi)});
    m.push_back(
        {"rpi.ns_per_send" + sfx, "ns", ns_per(Layer::kRpi, s.rpi_sends)});
    m.push_back({"app.self_share" + sfx, "ratio", share(c, Layer::kApp)});
    m.push_back({"trace.overhead" + sfx, "ratio",
                 ratio(main.traced.scaled_wall_s(t),
                       main.plain.scaled_wall_s(t))});
    m.push_back({"trace.attributed_share" + sfx, "ratio", attributed(c)});
  }
  print_result(checker, m);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto args = perfbench::parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: %s --workload "
                 "pingpong_loss|farm_loss|service_fattree|manyflow_sharded "
                 "[--seed N] [--seconds S] [--trace 0|1]\n",
                 argc > 0 ? argv[0] : "perfbench");
    return 2;
  }
  return args->trace ? perfbench::run_traced(*args)
                     : perfbench::run_untraced(*args);
}
