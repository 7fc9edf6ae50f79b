// Sampling profiler for the traced run.
//
// Sampler arms a CLOCK_MONOTONIC POSIX timer that sends SIGPROF to the
// calling thread (the thread that runs the single-shard simulator, or
// shard 0 of a sharded run). The handler only stores the interrupted
// program counter into a preallocated buffer, so it is safe on the
// simulator's 1 MiB fiber stacks. Symbolizer maps the stored addresses to
// layers afterwards: the benchmark binary's own symbol table (`nm -C`)
// for its code, dladdr() for shared objects (libc, libstdc++).
#pragma once

#include <signal.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <ctime>
#include <string>
#include <unordered_map>
#include <vector>

#include "fold.hpp"

namespace perfbench {

class Sampler {
 public:
  /// Preallocates room for `capacity` samples; extra samples are counted
  /// as dropped.
  explicit Sampler(std::size_t capacity);
  ~Sampler();
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Starts sampling the calling thread at `hz` samples per second of wall
  /// time. Only one Sampler may run at a time.
  void start(long hz);
  void stop();

  /// Returns the samples taken so far and empties the buffer (call while
  /// stopped).
  std::vector<std::uintptr_t> take();
  std::uint64_t dropped() const { return dropped_.load(); }

 private:
  static void on_signal(int sig, siginfo_t* info, void* uc);

  std::vector<std::uintptr_t> buf_;
  std::atomic<std::size_t> n_{0};
  std::atomic<std::uint64_t> dropped_{0};
  timer_t timer_{};
  bool running_ = false;
};

/// Per-layer sample counts.
using LayerCounts = std::array<std::uint64_t, kLayerCount>;

class Symbolizer {
 public:
  /// Reads the symbol table of the running executable.
  Symbolizer();

  Layer layer_of(std::uintptr_t pc);
  LayerCounts fold(const std::vector<std::uintptr_t>& samples);

 private:
  struct Sym {
    std::uintptr_t addr = 0;
    std::uintptr_t size = 0;
    std::string name;
  };
  const Sym* find_(std::uintptr_t pc) const;

  std::vector<Sym> syms_;        // sorted by runtime address
  std::string exe_;              // dladdr name of the executable
  std::unordered_map<std::uintptr_t, Layer> cache_;
};

}  // namespace perfbench
