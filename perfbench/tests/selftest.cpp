// Self-test of the benchmark's own logic: the layer folding rules on fixed
// symbol names, the order statistics, and the determinism of every job
// (two in-process repetitions, and a packet-counting one, must produce the
// same model digest). Exits non-zero on any failure.
#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>

#include "fold.hpp"
#include "jobs.hpp"
#include "stats.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

void expect_near(double got, double want, const std::string& what) {
  expect(std::fabs(got - want) < 1e-9,
         what + ": got " + std::to_string(got) + ", want " +
             std::to_string(want));
}

using perfbench::Layer;

void expect_layer(std::string_view sym, Layer want) {
  const Layer got = perfbench::layer_of_symbol(sym);
  expect(got == want, std::string(sym.substr(0, 120)) + " -> " +
                          perfbench::to_string(got) + ", want " +
                          perfbench::to_string(want));
}

void test_qualified_name() {
  using perfbench::qualified_name;
  const std::pair<std::string_view, std::string_view> cases[] = {
      {"sctpmpi::sim::Simulator::pop_root_()",
       "sctpmpi::sim::Simulator::pop_root_"},
      {"sctpmpi::sim::Process::suspend() [clone .cold]",
       "sctpmpi::sim::Process::suspend"},
      {"void sctpmpi::net::f<int>(int)", "sctpmpi::net::f<int>"},
      {"perfbench::(anonymous namespace)::run_mpi(int)",
       "perfbench::{anon}::run_mpi"},
      {"std::less<int>::operator()(int const&, int const&) const",
       "std::less<int>::operator()"},
      {"sctpmpi::net::operator<<(std::ostream&, sctpmpi::net::IpAddr)",
       "sctpmpi::net::operator<<"},
      {"decltype(auto) std::__do_visit<int>(int&&)", "std::__do_visit<int>"},
      {"sctpmpi::net::Packet const", "sctpmpi::net::Packet const"},
      {"sctpmpi_fiber_switch", "sctpmpi_fiber_switch"},
  };
  for (const auto& [in, want] : cases) {
    const std::string got = qualified_name(in);
    expect(got == want, "qualified_name(" + std::string(in) + ") = " + got);
  }
}

void test_layers() {
  // Event core and its two sub-layers.
  expect_layer("sctpmpi::sim::Simulator::pop_root_()", Layer::kSim);
  expect_layer("sctpmpi::sim::Simulator::sift_up_(unsigned int, "
               "sctpmpi::sim::Simulator::Entry const&)",
               Layer::kSim);
  expect_layer("sctpmpi::sim::Process::suspend() [clone .cold]",
               Layer::kFiber);
  expect_layer("sctpmpi::sim::Fiber::switch_in()", Layer::kFiber);
  expect_layer("sctpmpi_fiber_switch", Layer::kFiber);
  expect_layer("sctpmpi::sim::ShardGroup::worker_(unsigned int, "
               "sctpmpi::sim::ShardGroup::Control&, "
               "sctpmpi::sim::ShardGroup::RunOptions const&)",
               Layer::kShard);
  expect_layer("sctpmpi::sim::ShardGroup::wait_epoch_(unsigned int, unsigned "
               "long, sctpmpi::sim::ShardGroup::Control&, "
               "sctpmpi::sim::ShardGroup::Stats&)",
               Layer::kShardWait);
  expect_layer("void std::__atomic_wait_address_v<unsigned long, "
               "std::__atomic_base<unsigned long>::wait(unsigned long, "
               "std::memory_order) const::{lambda()#1}>(unsigned long const*, "
               "unsigned long, std::__atomic_base<unsigned long>::wait("
               "unsigned long, std::memory_order) const::{lambda()#1})",
               Layer::kShardWait);
  // InlineOps<F> thunks are charged to F's namespace.
  expect_layer("sctpmpi::sim::UniqueFunction::InlineOps<sctpmpi::sim::Process"
               "::sleep_for(long)::{lambda()#1}>::invoke(void*)",
               Layer::kFiber);
  expect_layer("sctpmpi::sim::UniqueFunction::InlineOps<sctpmpi::net::Link::"
               "enqueue(sctpmpi::net::Packet&&)::{lambda()#1}>::invoke(void*)",
               Layer::kNet);
  expect_layer("sctpmpi::sim::UniqueFunction::InlineOps<sctpmpi::tcp::"
               "TcpSocket::arm_rto_()::{lambda()#1}>::relocate(void*, void*)",
               Layer::kTcp);
  expect_layer("sctpmpi::sim::UniqueFunction::InlineOps<int>::invoke(void*)",
               Layer::kSim);
  // Project namespaces.
  expect_layer("sctpmpi::net::Link::enqueue(sctpmpi::net::Packet&&)",
               Layer::kNet);
  expect_layer("sctpmpi::net::(anonymous namespace)::route(int)", Layer::kNet);
  expect_layer("sctpmpi::net::operator<<(std::ostream&, sctpmpi::net::IpAddr)",
               Layer::kNet);
  expect_layer("non-virtual thunk to sctpmpi::tcp::TcpStack::on_ip_packet("
               "sctpmpi::net::Packet&&)",
               Layer::kTcp);
  expect_layer("sctpmpi::sctp::Association::on_sack(sctpmpi::sctp::SackChunk "
               "const&)",
               Layer::kSctp);
  expect_layer("sctpmpi::core::RpiSctp::progress_()", Layer::kRpi);
  expect_layer("sctpmpi::apps::ServiceEngine::pump_client_(sctpmpi::apps::"
               "ServiceEngine::Client&)",
               Layer::kApp);
  expect_layer("perfbench::app::(anonymous namespace)::farm(sctpmpi::core::"
               "Mpi&, perfbench::app::Tally&)",
               Layer::kApp);
  expect_layer("perfbench::(anonymous namespace)::run_mpi(perfbench::Workload, "
               "perfbench::Transport, unsigned long, bool)",
               Layer::kBench);
  // Library templates: the last argument naming a project namespace.
  expect_layer("std::_Function_handler<void (sctpmpi::core::Mpi&), perfbench::"
               "app::rank_program(perfbench::Workload, std::vector<perfbench::"
               "app::Tally, std::allocator<perfbench::app::Tally> >&)::{lambda("
               "sctpmpi::core::Mpi&)#1}>::_M_invoke(std::_Any_data const&, "
               "sctpmpi::core::Mpi&)",
               Layer::kApp);
  expect_layer(
      "void std::vector<sctpmpi::net::Packet, std::allocator<sctpmpi::net::"
      "Packet> >::_M_realloc_insert<sctpmpi::net::Packet>(__gnu_cxx::"
      "__normal_iterator<sctpmpi::net::Packet*, std::vector<sctpmpi::net::"
      "Packet, std::allocator<sctpmpi::net::Packet> > >, sctpmpi::net::"
      "Packet&&)",
      Layer::kNet);
  expect_layer(
      "std::_Rb_tree_iterator<std::pair<unsigned int const, std::unique_ptr<"
      "sctpmpi::sctp::Association, std::default_delete<sctpmpi::sctp::"
      "Association> > > > std::_Rb_tree<unsigned int, std::pair<unsigned int "
      "const, std::unique_ptr<sctpmpi::sctp::Association, std::default_delete<"
      "sctpmpi::sctp::Association> > >, std::_Select1st<std::pair<unsigned int "
      "const, std::unique_ptr<sctpmpi::sctp::Association, std::default_delete<"
      "sctpmpi::sctp::Association> > > >, std::less<unsigned int>, "
      "std::allocator<std::pair<unsigned int const, std::unique_ptr<sctpmpi::"
      "sctp::Association, std::default_delete<sctpmpi::sctp::Association> > > "
      "> >::_M_emplace_hint_unique<>(std::_Rb_tree_const_iterator<std::pair<"
      "unsigned int const, std::unique_ptr<sctpmpi::sctp::Association, "
      "std::default_delete<sctpmpi::sctp::Association> > > >)",
      Layer::kSctp);
  expect_layer(
      "decltype(auto) std::__do_visit<std::__detail::__variant::"
      "__variant_idx_cookie, std::__detail::__variant::_Move_ctor_base<false, "
      "sctpmpi::sctp::DataChunk, sctpmpi::sctp::SackChunk>>(int&&)",
      Layer::kSctp);
  expect_layer(
      "std::_Rb_tree<unsigned long, std::pair<unsigned long const, unsigned "
      "int>, std::_Select1st<std::pair<unsigned long const, unsigned int> >, "
      "std::less<unsigned long>, std::allocator<std::pair<unsigned long "
      "const, unsigned int> > >::_M_erase(std::_Rb_tree_node<std::pair<"
      "unsigned long const, unsigned int> >*)",
      Layer::kOther);
  expect_layer("_init", Layer::kOther);

  // Shared objects.
  using perfbench::layer_of_shared;
  const char* libc = "/lib/x86_64-linux-gnu/libc.so.6";
  const char* libstdcxx = "/lib/x86_64-linux-gnu/libstdc++.so.6";
  expect(layer_of_shared(libc, "__memcpy_chk") == Layer::kMem, "libc copy");
  expect(layer_of_shared(libc, "") == Layer::kMem, "libc, no symbol");
  expect(layer_of_shared(libc, "syscall") == Layer::kShardWait,
         "libc syscall (futex)");
  expect(layer_of_shared(libstdcxx, "operator new(unsigned long)") ==
             Layer::kMem,
         "operator new");
  expect(layer_of_shared(libstdcxx, "std::_Rb_tree_increment(std::"
                                    "_Rb_tree_node_base*)") == Layer::kOther,
         "libstdc++ tree walk");
  expect(layer_of_shared("/lib/x86_64-linux-gnu/libm.so.6", "log") ==
             Layer::kOther,
         "libm");
}

void test_stats() {
  using perfbench::iqr_share;
  using perfbench::median;
  using perfbench::quartiles;
  expect_near(median({5, 1, 4, 2, 3}), 3, "median odd");
  expect_near(median({3.5, 1.25, 9.0, 4.0}), 3.75, "median even");
  expect_near(median({}), 0, "median empty");
  // Reference values: Python statistics.quantiles(v, n=4).
  auto q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  expect_near(q[0], 2.75, "q1 of 1..10");
  expect_near(q[1], 5.5, "q2 of 1..10");
  expect_near(q[2], 8.25, "q3 of 1..10");
  q = quartiles({3.5, 1.25, 9.0, 4.0});
  expect_near(q[0], 1.8125, "q1 of 4 values");
  expect_near(q[2], 7.75, "q3 of 4 values");
  q = quartiles({0.2, 0.1});
  expect_near(q[0], 0.075, "q1 of 2 values");
  expect_near(q[2], 0.225, "q3 of 2 values");
  q = quartiles({5, 1, 4, 2, 3});
  expect_near(q[0], 1.5, "q1 of 5 values");
  expect_near(q[2], 4.5, "q3 of 5 values");
  expect_near(iqr_share({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 5.5 / 5.5,
              "iqr share");
  expect_near(iqr_share({2, 2, 2}), 0, "iqr share of constant");
  // Jobs of 0.2, 0.3, 0.5 s next to probes of 0.02, 0.06, 0.05 s scale to
  // 0.3, 0.15, 0.3 s on a host where the probe takes 0.03 s.
  expect_near(perfbench::scaled_median({0.2, 0.3, 0.5}, {0.02, 0.06, 0.05},
                                       0.03),
              0.3, "scaled median");
  expect_near(perfbench::scaled_median({}, {}, 0.03), 0,
              "scaled median empty");
}

void test_job_determinism() {
  using namespace perfbench;
  for (const Workload w : kWorkloads) {
    for (const Transport t : {Transport::kTcp, Transport::kSctp}) {
      const std::string name = std::string(to_string(w)) + "/" + to_string(t);
      const JobResult a = run_job(w, t, 2005, false);
      const JobResult b = run_job(w, t, 2005, false);
      const JobResult c = run_job(w, t, 2005, true);
      expect(a.stats.attempted > 0 && a.stats.completed == a.stats.attempted,
             name + ": every operation completes");
      expect(a.stats.digest() == b.stats.digest(),
             name + ": digest equal across repetitions");
      expect(a.stats.digest() == c.stats.digest(),
             name + ": packet counting does not change the model");
      const std::uint64_t mine =
          t == Transport::kTcp ? c.packets.tcp : c.packets.sctp;
      const std::uint64_t other =
          t == Transport::kTcp ? c.packets.sctp : c.packets.tcp;
      expect(mine > 0 && other == 0, name + ": packets counted by protocol");
      std::printf("  %-22s digest %016llx  %.3f s\n", name.c_str(),
                  static_cast<unsigned long long>(a.stats.digest()), a.wall_s);
    }
  }
  // A different seed gives a different loss pattern.
  expect(run_job(Workload::kPingpongLoss, Transport::kTcp, 2005, false)
                 .stats.digest() !=
             run_job(Workload::kPingpongLoss, Transport::kTcp, 2006, false)
                 .stats.digest(),
         "seed changes the model");
}

}  // namespace

int main() {
  test_qualified_name();
  test_layers();
  test_stats();
  test_job_determinism();
  std::printf("%s (%d failure%s)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures, g_failures == 1 ? "" : "s");
  return g_failures == 0 ? 0 : 1;
}
