#include "profiler.hpp"

#include <cxxabi.h>
#include <dlfcn.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>

// Known address in the executable: relates nm's addresses to run-time
// addresses (PIE load bias).
extern "C" __attribute__((noinline, used)) void perfbench_symbol_anchor() {}

namespace perfbench {

namespace {

// The running sampler, read by the signal handler.
std::atomic<Sampler*> g_active{nullptr};

std::uintptr_t pc_of(void* uc) {
  const auto* ctx = static_cast<const ucontext_t*>(uc);
#if defined(__x86_64__)
  return static_cast<std::uintptr_t>(ctx->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return static_cast<std::uintptr_t>(ctx->uc_mcontext.pc);
#else
#error "perfbench: no program-counter accessor for this architecture"
#endif
}

std::string demangle(const char* sym) {
  int status = 0;
  std::unique_ptr<char, void (*)(void*)> out(
      abi::__cxa_demangle(sym, nullptr, nullptr, &status), std::free);
  return status == 0 && out ? std::string(out.get()) : std::string(sym);
}

std::string self_exe() {
  char path[4096];
  const ssize_t n = readlink("/proc/self/exe", path, sizeof path - 1);
  if (n <= 0) throw std::runtime_error("profiler: cannot resolve own path");
  return std::string(path, static_cast<std::size_t>(n));
}

}  // namespace

// ---------------------------------------------------------------- Sampler

Sampler::Sampler(std::size_t capacity) : buf_(capacity) {
  struct sigaction sa {};
  sa.sa_sigaction = &Sampler::on_signal;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, nullptr) != 0) {
    throw std::runtime_error("profiler: sigaction failed");
  }
}

Sampler::~Sampler() {
  stop();
  // A SIGPROF still pending must not kill the process (default action).
  signal(SIGPROF, SIG_IGN);
}

void Sampler::on_signal(int, siginfo_t*, void* uc) {
  Sampler* s = g_active.load(std::memory_order_relaxed);
  if (s == nullptr) return;
  const std::size_t i = s->n_.load(std::memory_order_relaxed);
  if (i < s->buf_.size()) {
    s->buf_[i] = pc_of(uc);
    s->n_.store(i + 1, std::memory_order_relaxed);
  } else {
    s->dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Sampler::start(long hz) {
  if (running_) return;
  g_active.store(this);
  sigevent sev{};
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev._sigev_un._tid = static_cast<pid_t>(gettid());
  if (timer_create(CLOCK_MONOTONIC, &sev, &timer_) != 0) {
    g_active.store(nullptr);
    throw std::runtime_error("profiler: timer_create failed");
  }
  const long period_ns = 1'000'000'000L / hz;
  itimerspec its{};
  its.it_interval.tv_sec = period_ns / 1'000'000'000L;
  its.it_interval.tv_nsec = period_ns % 1'000'000'000L;
  its.it_value = its.it_interval;
  running_ = true;
  if (timer_settime(timer_, 0, &its, nullptr) != 0) {
    stop();
    throw std::runtime_error("profiler: timer_settime failed");
  }
}

void Sampler::stop() {
  if (!running_) return;
  timer_delete(timer_);
  running_ = false;
  g_active.store(nullptr);
}

std::vector<std::uintptr_t> Sampler::take() {
  const std::size_t n = n_.load();
  std::vector<std::uintptr_t> out(buf_.begin(),
                                  buf_.begin() + static_cast<long>(n));
  n_.store(0);
  return out;
}

// ------------------------------------------------------------- Symbolizer

Symbolizer::Symbolizer() {
  Dl_info self{};
  if (dladdr(reinterpret_cast<void*>(&perfbench_symbol_anchor), &self) == 0 ||
      self.dli_fname == nullptr) {
    throw std::runtime_error("profiler: dladdr failed on the executable");
  }
  exe_ = self.dli_fname;

  const std::string cmd = "nm -C -S --defined-only -n '" + self_exe() + "'";
  FILE* p = popen(cmd.c_str(), "r");
  if (p == nullptr) throw std::runtime_error("profiler: cannot run nm");
  std::uintptr_t anchor = 0;
  bool have_anchor = false;
  char line[16384];
  while (std::fgets(line, sizeof line, p) != nullptr) {
    std::string_view l(line);
    while (!l.empty() && (l.back() == '\n' || l.back() == '\r')) {
      l.remove_suffix(1);
    }
    // "<addr> [<size>] <type> <name>"
    const std::size_t a = l.find(' ');
    if (a == std::string_view::npos) continue;
    Sym s;
    s.addr = std::strtoull(std::string(l.substr(0, a)).c_str(), nullptr, 16);
    std::size_t rest = a + 1;
    const std::size_t b = l.find(' ', rest);
    if (b == std::string_view::npos) continue;
    if (b - rest > 1) {  // a size column is present
      s.size = std::strtoull(std::string(l.substr(rest, b - rest)).c_str(),
                             nullptr, 16);
      rest = b + 1;
    }
    if (rest + 2 > l.size()) continue;
    const char type = l[rest];
    s.name = std::string(l.substr(rest + 2));
    if (s.name == "perfbench_symbol_anchor") {
      anchor = s.addr;
      have_anchor = true;
    }
    if (type == 't' || type == 'T' || type == 'w' || type == 'W' ||
        type == 'i') {
      syms_.push_back(std::move(s));
    }
  }
  const int rc = pclose(p);
  if (rc != 0 || !have_anchor) {
    throw std::runtime_error("profiler: nm failed to list the executable");
  }
  const std::uintptr_t bias =
      reinterpret_cast<std::uintptr_t>(&perfbench_symbol_anchor) - anchor;
  for (auto& s : syms_) s.addr += bias;
  std::sort(syms_.begin(), syms_.end(),
            [](const Sym& x, const Sym& y) { return x.addr < y.addr; });
}

const Symbolizer::Sym* Symbolizer::find_(std::uintptr_t pc) const {
  auto it = std::upper_bound(
      syms_.begin(), syms_.end(), pc,
      [](std::uintptr_t v, const Sym& s) { return v < s.addr; });
  if (it == syms_.begin()) return nullptr;
  --it;
  if (it->size != 0 && pc >= it->addr + it->size) return nullptr;
  return &*it;
}

Layer Symbolizer::layer_of(std::uintptr_t pc) {
  if (auto it = cache_.find(pc); it != cache_.end()) return it->second;
  Layer l = Layer::kOther;
  Dl_info info{};
  if (dladdr(reinterpret_cast<void*>(pc), &info) != 0 &&
      info.dli_fname != nullptr) {
    if (exe_ == info.dli_fname) {
      if (const Sym* s = find_(pc)) l = layer_of_symbol(s->name);
    } else {
      l = layer_of_shared(info.dli_fname, info.dli_sname != nullptr
                                              ? demangle(info.dli_sname)
                                              : std::string());
    }
  }
  cache_.emplace(pc, l);
  return l;
}

LayerCounts Symbolizer::fold(const std::vector<std::uintptr_t>& samples) {
  LayerCounts c{};
  for (const std::uintptr_t pc : samples) {
    ++c[static_cast<std::size_t>(layer_of(pc))];
  }
  return c;
}

}  // namespace perfbench
