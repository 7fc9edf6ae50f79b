#include "probe.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <unordered_map>
#include <vector>

namespace perfbench {
namespace {

// Sizes: the heap and the node map are about the size of a farm job's
// event heap and connection tables; the open-addressing table (8 MiB)
// spills out of the per-core caches.
constexpr std::size_t kHeapSize = 1 << 15;
constexpr int kHeapOps = 100'000;
constexpr int kMapOps = 50'000;
constexpr std::size_t kTableSlots = 1 << 20;
constexpr int kTableOps = 400'000;
constexpr std::size_t kLiveBlocks = 1024;
constexpr int kAllocOps = 100'000;

std::uint64_t next(std::uint64_t& x) {
  x = x * 6364136223846793005ull + 1442695040888963407ull;
  return x;
}

std::uint64_t heap_ops(std::vector<std::uint64_t>& heap) {
  const std::greater<> later;
  heap.clear();
  std::uint64_t x = 1;
  for (std::size_t i = 0; i < kHeapSize; ++i) {
    heap.push_back(next(x));
    std::push_heap(heap.begin(), heap.end(), later);
  }
  std::uint64_t sum = 0;
  for (int i = 0; i < kHeapOps; ++i) {
    sum += heap.front();
    std::pop_heap(heap.begin(), heap.end(), later);
    heap.back() = next(x);
    std::push_heap(heap.begin(), heap.end(), later);
  }
  return sum;
}

std::uint64_t map_ops() {
  std::unordered_map<std::uint64_t, std::uint64_t> m;
  std::uint64_t x = 2;
  for (int i = 0; i < kMapOps; ++i) {
    m[next(x) >> 46] += static_cast<std::uint64_t>(i);
  }
  return m.size();
}

std::uint64_t table_ops(std::vector<std::uint64_t>& table) {
  std::fill(table.begin(), table.end(), 0);
  constexpr std::uint64_t kMask = kTableSlots - 1;
  std::uint64_t x = 3;
  std::uint64_t hits = 0;
  for (int i = 0; i < kTableOps; ++i) {
    const std::uint64_t key = (next(x) >> 21) | 1;
    std::uint64_t h = (key * 0x9E3779B97F4A7C15ull) >> 44;
    while (table[h & kMask] != 0 && table[h & kMask] != key) ++h;
    hits += table[h & kMask] == key;
    table[h & kMask] = key;
  }
  return hits;
}

std::uint64_t alloc_ops() {
  std::vector<void*> live(kLiveBlocks, nullptr);
  std::uint64_t x = 4;
  for (int i = 0; i < kAllocOps; ++i) {
    const std::size_t j = next(x) >> 54;  // 0 .. kLiveBlocks - 1
    std::free(live[j]);
    const std::size_t size = 32 + ((next(x) >> 40) & 2047);
    live[j] = std::malloc(size);
    static_cast<volatile char*>(live[j])[size - 1] = 1;
  }
  for (void* p : live) std::free(p);
  return x;
}

}  // namespace

double host_probe_s() {
  static std::vector<std::uint64_t> heap = [] {
    std::vector<std::uint64_t> v;
    v.reserve(kHeapSize);
    return v;
  }();
  static std::vector<std::uint64_t> table(kTableSlots);
  const auto t0 = std::chrono::steady_clock::now();
  volatile std::uint64_t sink = heap_ops(heap) + map_ops() +
                                table_ops(table) + alloc_ops();
  (void)sink;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace perfbench
