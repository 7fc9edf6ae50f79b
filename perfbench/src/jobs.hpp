// The benchmark's four simulated jobs and the counters read after each.
//
// Every job is built and run through public entry points only:
// core::World (ctor, run, rpi(r).stats(), shard_group(), cluster()) for the
// MPI jobs, whose rank programs live in this directory so the World can be
// read after World::run, and apps::ServiceSim for the service fleet. A job
// runs on the calling thread; manyflow_sharded adds one shard thread.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>

namespace perfbench {

enum class Workload {
  kPingpongLoss,     // paper Table 1: 2 ranks, 30 KiB / 300 KiB, 2% loss
  kFarmLoss,         // paper Fig. 10: 8-rank farm, 30 KiB tasks, 2% loss
  kServiceFattree,   // open-loop service fleet on a k=4 fat-tree, no loss
  kManyflowSharded,  // apps/manyflow on a k=4 fat-tree, 2 shard threads
};

inline constexpr std::array<Workload, 4> kWorkloads = {
    Workload::kPingpongLoss, Workload::kFarmLoss, Workload::kServiceFattree,
    Workload::kManyflowSharded};

enum class Transport { kTcp, kSctp };

const char* to_string(Workload w);
const char* to_string(Transport t);
std::optional<Workload> parse_workload(std::string_view name);

/// Packets leaving a host's transport stack (PacketVerdict::kSent), by
/// protocol and retransmit flag, from a net::PacketObserver.
struct PacketCounts {
  std::uint64_t tcp = 0;
  std::uint64_t sctp = 0;
  std::uint64_t tcp_rtx = 0;
  std::uint64_t sctp_rtx = 0;
};

/// Counters read from the job's public interfaces after its run.
struct JobStats {
  std::uint64_t attempted = 0;  // operations the job set out to do
  std::uint64_t completed = 0;  // ... that finished with correct data
  std::uint64_t vtime_ns = 0;   // virtual time simulated
  std::uint64_t events = 0;     // simulator events, all shards
  // Sharded driver (ShardGroup::Stats). `parks` depends on wall clock.
  std::uint64_t shard_rounds = 0;
  std::uint64_t shard_messages = 0;
  std::uint64_t shard_ingest_skips = 0;
  std::uint64_t shard_parks = 0;
  // Network: all links, the balancer, and payload copies (CopyStats).
  std::uint64_t link_packets = 0;
  std::uint64_t link_bytes = 0;
  std::uint64_t drops_loss = 0;
  std::uint64_t drops_queue = 0;
  std::uint64_t lb_forwarded = 0;
  std::uint64_t copy_bytes = 0;
  std::uint64_t ingest_bytes = 0;
  // RPI counters summed over ranks.
  std::uint64_t rpi_sends = 0;
  std::uint64_t rpi_recvs = 0;
  std::uint64_t rpi_eager = 0;
  std::uint64_t rpi_rendezvous = 0;
  std::uint64_t rpi_unexpected = 0;
  std::uint64_t rpi_ctl = 0;
  std::uint64_t rpi_blocks = 0;  // rank-process suspends (fiber switches)
  std::uint64_t service_digest = 0;  // ServiceResult::digest

  /// Model digest: virtual time, events, link packets and drops, RPI
  /// counters, completed operations and the service completion digest.
  /// The sharded run loop's counters (rounds, parks) and copy accounting
  /// are left out, so a change that only makes the simulator faster keeps
  /// it.
  std::uint64_t digest() const;
};

struct JobResult {
  JobStats stats;
  PacketCounts packets;  // zero unless run with count_packets
  double setup_s = 0;    // World / ServiceSim construction
  double wall_s = 0;     // construction + run + destruction
};

/// Runs one job. With `count_packets` a packet observer is attached for
/// the run (it does not change the simulation, but costs host time).
JobResult run_job(Workload w, Transport t, std::uint64_t seed,
                  bool count_packets);

}  // namespace perfbench
