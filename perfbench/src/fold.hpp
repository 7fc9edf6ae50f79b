// Folds profiler samples into the simulator's layers.
//
// A sample is a program-counter address; the profiler symbolizes it to a
// demangled function name (benchmark binary) or to a shared object plus
// its nearest exported symbol (libc, libstdc++). The functions here map
// such a name to the src/ module that owns the code:
//
//   sctpmpi::sim        -> sim    (heap, timer wheel, due-now FIFO)
//     Process*, Fiber*, sctpmpi_fiber_* -> fiber
//     ShardGroup, SpscQueue             -> shard (wait_epoch_: shard_wait)
//   sctpmpi::net        -> net    (links, switches, balancer, buffers)
//   sctpmpi::tcp / sctp -> tcp / sctp
//   sctpmpi::core       -> rpi    (RPI modules and the MPI facade)
//   sctpmpi::apps       -> app    (also the benchmark's own rank programs,
//                                  namespace perfbench::app)
//   libc copies and allocation, operator new/delete -> mem
//   futex waits (libc syscall/futex wrappers)       -> shard_wait
//
// Type-erased thunks are charged to what they run:
// sim::UniqueFunction::InlineOps<F> to the namespace of F, and library
// templates (std::, __gnu_cxx::) to the last template argument that names
// a project namespace (std::_Function_handler<Sig, F> -> F,
// std::vector<net::Packet> -> net).
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <string_view>

namespace perfbench {

enum class Layer {
  kSim,
  kFiber,
  kShard,
  kShardWait,
  kNet,
  kTcp,
  kSctp,
  kRpi,
  kApp,
  kMem,
  kBench,  // the benchmark's own harness code (not a simulator layer)
  kOther,  // unattributed
};

inline constexpr std::size_t kLayerCount = 12;

inline constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "sim",  "fiber", "shard", "shard_wait", "net", "tcp",
    "sctp", "rpi",   "app",   "mem",        "bench", "other"};

inline const char* to_string(Layer l) {
  return kLayerNames[static_cast<std::size_t>(l)];
}

/// True for layers of the simulator (everything but kBench and kOther).
inline bool is_named(Layer l) {
  return l != Layer::kBench && l != Layer::kOther;
}

/// The qualified name of the function a demangled symbol denotes, without
/// return type, parameter list or clone suffix; "(anonymous namespace)"
/// is rewritten to "{anon}". "void ns::f<int>(int) [clone .cold]" ->
/// "ns::f<int>".
std::string qualified_name(std::string_view demangled);

/// Layer of a demangled symbol from the benchmark binary.
Layer layer_of_symbol(std::string_view demangled);

/// Layer of a sample in a shared object, given the object's path and the
/// demangled name of its nearest exported symbol (may be empty).
Layer layer_of_shared(std::string_view object, std::string_view symbol);

}  // namespace perfbench
