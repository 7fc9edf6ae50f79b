#include "jobs.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "apps/service.hpp"
#include "core/world.hpp"
#include "net/buffer.hpp"
#include "net/observer.hpp"
#include "net/packet.hpp"

namespace perfbench {

using namespace sctpmpi;

// ------------------------------------------------------------ job shapes

namespace {

// pingpong_loss: paper Table 1 message sizes, 2% loss, ranks 0 <-> 1.
struct PingpongPhase {
  std::size_t size;
  int iterations;
};
constexpr PingpongPhase kPingpongPhases[] = {{30 * 1024, 400},
                                             {300 * 1024, 40}};
constexpr double kPingpongLoss = 0.02;

// farm_loss: paper Fig. 10 short tasks (fanout 1, 10 requests per worker
// over 10 tags), 8 ranks, 2% loss.
constexpr int kFarmRanks = 8;
constexpr int kFarmTasks = 1500;
constexpr std::size_t kFarmTaskSize = 30 * 1024;
constexpr int kFarmOutstanding = 10;
constexpr int kFarmTags = 10;
constexpr sim::SimTime kFarmWork = 6 * sim::kMillisecond;
constexpr double kFarmLoss = 0.02;

// service_fattree: 11 client hosts x kServiceClientsPerHost clients,
// Poisson arrivals, ~400 B log-normal requests, no faults.
constexpr unsigned kServiceClientsPerHost = 500;
constexpr std::uint64_t kServiceRequests = 30000;
constexpr double kServiceRateHz = 40000;

// manyflow_sharded: apps/manyflow's default message shape on a k=4
// fat-tree, 16 ranks, 2 shards.
constexpr int kManyflowRanks = 16;
constexpr unsigned kManyflowShards = 2;
constexpr int kManyflowMsgsPerPeer = 64;
constexpr std::size_t kManyflowMsgSize = 8 * 1024;
constexpr int kManyflowFanout = 3;
constexpr int kManyflowRecvWindow = 32;

constexpr int kCtlTag = 0;
constexpr int kDataTag = 1;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t fnv1a(std::initializer_list<std::uint64_t> words) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint64_t w : words) {
    for (int i = 0; i < 8; ++i) {
      h ^= (w >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
  return h;
}

class PacketCounter final : public net::PacketObserver {
 public:
  void on_packet(sim::SimTime, const std::string&, const net::Packet& pkt,
                 net::PacketVerdict verdict) override {
    if (verdict != net::PacketVerdict::kSent) return;
    const bool rtx = (pkt.flags & net::kPktFlagRetransmit) != 0;
    switch (pkt.proto) {
      case net::IpProto::kTcp:
        ++counts.tcp;
        counts.tcp_rtx += rtx;
        break;
      case net::IpProto::kSctp:
        ++counts.sctp;
        counts.sctp_rtx += rtx;
        break;
      default:  // UDP health probes of the service balancer
        break;
    }
  }
  PacketCounts counts;
};

PacketCounts sum(const std::vector<PacketCounter>& cs) {
  PacketCounts s;
  for (const auto& c : cs) {
    s.tcp += c.counts.tcp;
    s.sctp += c.counts.sctp;
    s.tcp_rtx += c.counts.tcp_rtx;
    s.sctp_rtx += c.counts.sctp_rtx;
  }
  return s;
}

void read_links(const net::Cluster& cluster, JobStats& s) {
  const net::LinkStats ls = cluster.total_link_stats();
  s.link_packets = ls.tx_packets;
  s.link_bytes = ls.tx_bytes;
  s.drops_loss = ls.drops_loss;
  s.drops_queue = ls.drops_queue;
}

}  // namespace

// ----------------------------------------------------- the rank programs

// The MPI jobs' rank programs. They stand in for apps/pingpong, apps/farm
// and apps/manyflow (which destroy their World before returning) and are
// charged to the app layer by the profiler.
namespace app {

/// Per-rank tally of operations that finished with correct data. Each
/// rank writes only its own slot; the World joins its threads before the
/// slots are read.
struct Tally {
  std::uint64_t ok = 0;
};

namespace {

std::byte pattern(std::uint64_t op, int rank) {
  return static_cast<std::byte>((op * 7 + static_cast<std::uint64_t>(rank) +
                                 1) & 0xFF);
}

bool all_equal(std::span<const std::byte> buf, std::byte v) {
  return std::all_of(buf.begin(), buf.end(),
                     [v](std::byte b) { return b == v; });
}

void pingpong(core::Mpi& mpi, Tally& tally) {
  const int peer = 1 - mpi.rank();
  constexpr int kTag = 0;  // MPBench: all messages share one tag
  std::uint64_t op = 0;
  for (const PingpongPhase& phase : kPingpongPhases) {
    std::vector<std::byte> tx(phase.size);
    std::vector<std::byte> rx(phase.size);
    for (int i = 0; i < phase.iterations; ++i, ++op) {
      std::fill(tx.begin(), tx.end(), pattern(op, mpi.rank()));
      core::MpiStatus st;
      if (mpi.rank() == 0) {
        mpi.send(tx, peer, kTag);
        st = mpi.recv(rx, peer, kTag);
      } else {
        st = mpi.recv(rx, peer, kTag);
        mpi.send(tx, peer, kTag);
      }
      if (st.count == phase.size && all_equal(rx, pattern(op, peer))) {
        ++tally.ok;
      }
    }
  }
}

// Manager/worker protocol of apps/farm at fanout 1: a worker keeps
// kFarmOutstanding requests at the manager and replaces each answered
// one; once the pool is dry the manager answers with terminations that
// carry the worker's task total.
void farm(core::Mpi& mpi, Tally& tally) {
  const int nworkers = mpi.size() - 1;
  std::vector<std::byte> task(kFarmTaskSize);
  if (mpi.rank() == 0) {
    int next_task = 0;
    int next_tag = 1;
    int workers_finished = 0;
    std::vector<int> terms_sent(static_cast<std::size_t>(mpi.size()), 0);
    std::vector<std::uint32_t> tasks_to(static_cast<std::size_t>(mpi.size()),
                                        0);
    std::byte req[8];
    while (workers_finished < nworkers) {
      const core::MpiStatus st = mpi.recv(req, core::kAnySource, kCtlTag);
      const auto w = static_cast<std::size_t>(st.source);
      if (next_task < kFarmTasks) {
        const auto id = static_cast<std::uint32_t>(next_task++);
        std::fill(task.begin(), task.end(), pattern(id, 0));
        std::memcpy(task.data(), &id, sizeof id);
        mpi.send(task, st.source, next_tag);
        next_tag = next_tag % kFarmTags + 1;
        ++tasks_to[w];
      } else {
        const std::uint32_t count = tasks_to[w];
        std::byte term[sizeof count];
        std::memcpy(term, &count, sizeof count);
        mpi.send(term, st.source, kCtlTag);
        if (++terms_sent[w] == kFarmOutstanding) ++workers_finished;
      }
    }
    return;
  }
  // Pre-posted wildcard receives: every unanswered request can yield one
  // task or one termination.
  constexpr int kSlots = 2 * kFarmOutstanding;
  std::vector<std::vector<std::byte>> bufs(
      kSlots, std::vector<std::byte>(kFarmTaskSize));
  std::vector<core::Request> recvs(kSlots);
  for (int i = 0; i < kSlots; ++i) {
    recvs[static_cast<std::size_t>(i)] =
        mpi.irecv(bufs[static_cast<std::size_t>(i)], 0, core::kAnyTag);
  }
  const std::byte req{1};
  for (int i = 0; i < kFarmOutstanding; ++i) {
    mpi.send(std::span(&req, 1), 0, kCtlTag);
  }
  int terms_seen = 0;
  std::uint32_t done = 0;
  std::uint32_t target = 0;
  while (terms_seen < kFarmOutstanding || done < target) {
    core::MpiStatus st;
    const auto idx = static_cast<std::size_t>(mpi.waitany(recvs, &st));
    auto& buf = bufs[idx];
    if (st.tag == kCtlTag) {
      ++terms_seen;
      std::uint32_t count = 0;
      std::memcpy(&count, buf.data(), sizeof count);
      target = std::max(target, count);
    } else {
      std::uint32_t id = 0;
      std::memcpy(&id, buf.data(), sizeof id);
      if (st.count == kFarmTaskSize &&
          all_equal(std::span(buf).subspan(sizeof id), pattern(id, 0))) {
        ++tally.ok;
      }
    }
    recvs[idx] = mpi.irecv(buf, 0, core::kAnyTag);
    if (st.tag == kCtlTag) continue;
    mpi.compute(kFarmWork);
    ++done;
    mpi.send(std::span(&req, 1), 0, kCtlTag);
  }
}

// apps/manyflow: each rank streams eager messages to ranks r+1..r+fanout
// while reaping pre-posted wildcard receives without blocking.
void manyflow(core::Mpi& mpi, Tally& tally) {
  const int n = mpi.size();
  const int fan = std::min(kManyflowFanout, n - 1);
  const int expect = fan * kManyflowMsgsPerPeer;
  const int window = std::min(kManyflowRecvWindow, expect);
  std::vector<std::vector<std::byte>> rbufs(
      static_cast<std::size_t>(window),
      std::vector<std::byte>(kManyflowMsgSize));
  std::vector<core::Request> recvs(static_cast<std::size_t>(window));
  for (int i = 0; i < window; ++i) {
    recvs[static_cast<std::size_t>(i)] = mpi.irecv(
        rbufs[static_cast<std::size_t>(i)], core::kAnySource, kDataTag);
  }
  const std::vector<std::byte> payload(kManyflowMsgSize,
                                       pattern(0, mpi.rank()));
  std::vector<core::Request> sends(static_cast<std::size_t>(fan));
  int received = 0;
  auto reap = [&](std::size_t slot, const core::MpiStatus& st) {
    ++received;
    if (st.count == kManyflowMsgSize &&
        all_equal(rbufs[slot], pattern(0, st.source))) {
      ++tally.ok;
    }
    if (expect - received >= window) {
      recvs[slot] = mpi.irecv(rbufs[slot], core::kAnySource, kDataTag);
    }
  };
  for (int j = 0; j < kManyflowMsgsPerPeer; ++j) {
    for (int p = 0; p < fan; ++p) {
      sends[static_cast<std::size_t>(p)] =
          mpi.isend(payload, (mpi.rank() + 1 + p) % n, kDataTag);
    }
    for (std::size_t i = 0; i < recvs.size(); ++i) {
      core::MpiStatus st;
      if (recvs[i].valid() && mpi.test(recvs[i], &st)) reap(i, st);
    }
    mpi.waitall(sends);
  }
  while (received < expect) {
    core::MpiStatus st;
    reap(static_cast<std::size_t>(mpi.waitany(recvs, &st)), st);
  }
}

}  // namespace

/// The rank program of MPI workload `w`; rank r tallies into tallies[r].
std::function<void(core::Mpi&)> rank_program(Workload w,
                                             std::vector<Tally>& tallies) {
  return [w, &tallies](core::Mpi& mpi) {
    Tally& tally = tallies[static_cast<std::size_t>(mpi.rank())];
    switch (w) {
      case Workload::kPingpongLoss: pingpong(mpi, tally); break;
      case Workload::kFarmLoss: farm(mpi, tally); break;
      case Workload::kManyflowSharded: manyflow(mpi, tally); break;
      case Workload::kServiceFattree: break;
    }
  };
}

}  // namespace app

// ---------------------------------------------------------------- running

namespace {

core::WorldConfig world_config(Workload w, Transport t, std::uint64_t seed) {
  core::WorldConfig cfg;
  cfg.transport = t == Transport::kTcp ? core::TransportKind::kTcp
                                       : core::TransportKind::kSctp;
  cfg.seed = seed;
  switch (w) {
    case Workload::kPingpongLoss:
      cfg.ranks = 2;
      cfg.loss = kPingpongLoss;
      break;
    case Workload::kFarmLoss:
      cfg.ranks = kFarmRanks;
      cfg.loss = kFarmLoss;
      break;
    case Workload::kManyflowSharded:
      cfg.ranks = kManyflowRanks;
      cfg.topology = net::TopologyKind::kFatTree;
      cfg.fattree.k = 4;
      cfg.shards = kManyflowShards;
      break;
    case Workload::kServiceFattree:
      break;
  }
  return cfg;
}

std::uint64_t operations(Workload w) {
  switch (w) {
    case Workload::kPingpongLoss: {
      std::uint64_t n = 0;
      for (const auto& p : kPingpongPhases) n += p.iterations;
      return n;
    }
    case Workload::kFarmLoss:
      return kFarmTasks;
    case Workload::kManyflowSharded:
      return static_cast<std::uint64_t>(kManyflowRanks) * kManyflowFanout *
             kManyflowMsgsPerPeer;
    case Workload::kServiceFattree:
      return kServiceRequests;
  }
  return 0;
}

JobResult run_mpi(Workload w, Transport t, std::uint64_t seed,
                  bool count_packets) {
  const core::WorldConfig cfg = world_config(w, t, seed);
  std::vector<app::Tally> tallies(static_cast<std::size_t>(cfg.ranks));
  JobResult r;
  JobStats& s = r.stats;
  s.attempted = operations(w);
  const net::CopyStats copies0 = net::CopyStats::get();

  const double t0 = now_s();
  auto world = std::make_unique<core::World>(cfg);
  r.setup_s = now_s() - t0;

  // One observer per shard: observers are single-threaded, and a host's
  // kSent callback runs on its own shard. Single-shard runs watch every
  // link too, through Cluster::set_observer.
  std::vector<PacketCounter> counters(count_packets ? world->shards() : 0);
  if (count_packets) {
    net::Cluster& cl = world->cluster();
    if (world->shards() == 1) {
      cl.set_observer(&counters[0]);
    } else {
      for (unsigned h = 0; h < cl.host_count(); ++h) {
        cl.host(h).set_observer(&counters[cl.shard_of_host(h)]);
      }
    }
  }

  bool ran = true;
  try {
    world->run(app::rank_program(w, tallies));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s/%s seed %llu failed: %s\n",
                 to_string(w), to_string(t),
                 static_cast<unsigned long long>(seed), e.what());
    ran = false;
  }

  if (ran) {
    if (w == Workload::kPingpongLoss) {
      s.completed = std::min(tallies[0].ok, tallies[1].ok);
    } else {
      for (const auto& tl : tallies) s.completed += tl.ok;
    }
  }
  s.vtime_ns = static_cast<std::uint64_t>(world->elapsed());
  sim::ShardGroup& g = world->shard_group();
  for (unsigned i = 0; i < g.count(); ++i) {
    s.events += g.shard(i).events_processed();
  }
  s.shard_rounds = g.stats().rounds;
  s.shard_messages = g.stats().messages;
  s.shard_ingest_skips = g.stats().ingest_skips;
  s.shard_parks = g.stats().parks;
  read_links(world->cluster(), s);
  for (int rank = 0; rank < cfg.ranks; ++rank) {
    const core::RpiStats& rs = world->rpi(rank).stats();
    s.rpi_sends += rs.sends_started;
    s.rpi_recvs += rs.recvs_started;
    s.rpi_eager += rs.eager_msgs;
    s.rpi_rendezvous += rs.rendezvous_msgs;
    s.rpi_unexpected += rs.unexpected_msgs;
    s.rpi_ctl += rs.ctl_msgs;
    s.rpi_blocks += rs.blocks;
  }
  if (count_packets) {
    world->cluster().set_observer(nullptr);
    r.packets = sum(counters);
  }

  world.reset();
  r.wall_s = now_s() - t0;
  const net::CopyStats copies1 = net::CopyStats::get();
  s.copy_bytes = copies1.payload_copy_bytes - copies0.payload_copy_bytes;
  s.ingest_bytes = copies1.ingest_bytes - copies0.ingest_bytes;
  return r;
}

apps::ServiceParams service_params(Transport t, std::uint64_t seed) {
  // The service tier's own scale scenario (bench/micro_service.cpp,
  // tails_fattree): failure-detection clocks in seconds and small socket
  // buffers so thousands of clients fit, ~400 B median requests.
  apps::ServiceParams p;
  p.transport = t == Transport::kTcp ? apps::ServiceTransport::kTcp
                                     : apps::ServiceTransport::kSctp;
  p.topology = apps::ServiceTopology::kFatTree;
  p.fattree_k = 4;  // 16 hosts: 11 client hosts, 4 backends, 1 balancer
  p.backends = 4;
  p.seed = seed;
  p.clients_per_host = kServiceClientsPerHost;
  p.requests = kServiceRequests;
  p.arrival_rate_hz = kServiceRateHz;
  p.tcp.min_rto = 200 * sim::kMillisecond;
  p.tcp.initial_rto = 400 * sim::kMillisecond;
  p.tcp.max_rto = 2 * sim::kSecond;
  p.tcp.max_data_retries = 3;
  p.sctp.rto_min = 200 * sim::kMillisecond;
  p.sctp.rto_initial = 400 * sim::kMillisecond;
  p.sctp.rto_max = 2 * sim::kSecond;
  p.sctp.assoc_max_retrans = 3;
  p.sctp.path_max_retrans = 2;
  p.sctp.hb_interval = 2 * sim::kSecond;
  p.tcp.sndbuf = 8 * 1024;
  p.tcp.rcvbuf = 4 * 1024;
  p.sctp.sndbuf = 8 * 1024;
  p.sctp.rcvbuf = 4 * 1024;
  p.size_mu = 6.0;
  p.size_sigma = 1.0;
  p.size_max = 1024;
  return p;
}

JobResult run_service(Transport t, std::uint64_t seed, bool count_packets) {
  JobResult r;
  JobStats& s = r.stats;
  s.attempted = kServiceRequests;
  const net::CopyStats copies0 = net::CopyStats::get();

  const double t0 = now_s();
  auto svc = std::make_unique<apps::ServiceSim>(service_params(t, seed));
  r.setup_s = now_s() - t0;

  PacketCounter counter;
  if (count_packets) svc->cluster().set_observer(&counter);
  const apps::ServiceResult res = svc->run();
  // A lossless fleet retries nothing: a retried request is a failed one.
  s.completed = res.completed > res.retried ? res.completed - res.retried : 0;
  s.service_digest = res.digest;
  sim::Simulator& simulator = svc->cluster().host(0).sim();
  s.vtime_ns = static_cast<std::uint64_t>(simulator.now());
  s.events = simulator.events_processed();
  read_links(svc->cluster(), s);
  s.lb_forwarded = svc->lb().stats().forwarded;
  if (count_packets) {
    svc->cluster().set_observer(nullptr);
    r.packets = counter.counts;
  }

  svc.reset();
  r.wall_s = now_s() - t0;
  const net::CopyStats copies1 = net::CopyStats::get();
  s.copy_bytes = copies1.payload_copy_bytes - copies0.payload_copy_bytes;
  s.ingest_bytes = copies1.ingest_bytes - copies0.ingest_bytes;
  return r;
}

}  // namespace

const char* to_string(Workload w) {
  switch (w) {
    case Workload::kPingpongLoss: return "pingpong_loss";
    case Workload::kFarmLoss: return "farm_loss";
    case Workload::kServiceFattree: return "service_fattree";
    case Workload::kManyflowSharded: return "manyflow_sharded";
  }
  return "?";
}

const char* to_string(Transport t) {
  return t == Transport::kTcp ? "tcp" : "sctp";
}

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w : kWorkloads) {
    if (name == to_string(w)) return w;
  }
  return std::nullopt;
}

std::uint64_t JobStats::digest() const {
  return fnv1a({completed, vtime_ns, events, link_packets, link_bytes,
                drops_loss, drops_queue, lb_forwarded, rpi_sends, rpi_recvs,
                rpi_eager, rpi_rendezvous, rpi_unexpected, rpi_ctl,
                rpi_blocks, service_digest});
}

JobResult run_job(Workload w, Transport t, std::uint64_t seed,
                  bool count_packets) {
  return w == Workload::kServiceFattree ? run_service(t, seed, count_packets)
                                        : run_mpi(w, t, seed, count_packets);
}

}  // namespace perfbench
