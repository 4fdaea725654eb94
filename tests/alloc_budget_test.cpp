// Allocation budgets for the round loop.
//
// A counting global operator new/delete counts every heap allocation made
// between a protocol's first on_round_begin and the return of
// Network::run_outcome, on the sequential executor. begin() and the
// Network's construction are outside the window: a protocol sizes its
// per-node state there, once. What remains is what the rounds themselves
// allocate — buffers that grow on first use, and anything allocated per
// message or per round. The budgets below leave room for the first kind and
// none for the second: at n = 2048 a per-message allocation costs tens of
// thousands.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "baselines/mis_protocol.h"
#include "core/ball_broadcast.h"
#include "core/cluster_protocol.h"
#include "core/schedule.h"
#include "graph/generators.h"
#include "sim/flood.h"
#include "sim/network.h"
#include "spanner/spanner.h"
#include "util/rng.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace ultra {
namespace {

using graph::Graph;
using graph::VertexId;

// Forwards the run to `inner` and opens the counting window at the first
// on_round_begin.
class Counted : public sim::Protocol {
 public:
  explicit Counted(sim::Protocol& inner) : inner_(inner) {}
  void begin(sim::Network& net) override { inner_.begin(net); }
  void on_round_begin(sim::Network& net) override {
    g_counting.store(true, std::memory_order_relaxed);
    inner_.on_round_begin(net);
  }
  void on_round(sim::Mailbox& mb) override { inner_.on_round(mb); }
  [[nodiscard]] bool done(const sim::Network& net) const override {
    return inner_.done(net);
  }

 private:
  sim::Protocol& inner_;
};

// Runs `protocol` to completion on a fresh sequential network and returns
// the allocations its rounds made.
std::uint64_t round_allocations(const Graph& g, std::uint64_t cap,
                                sim::Protocol& protocol) {
  sim::Network net(g, cap);
  Counted counted(protocol);
  g_allocations.store(0);
  const sim::RunOutcome out =
      net.run_outcome(counted, {.max_rounds = 1u << 16});
  g_counting.store(false);
  EXPECT_TRUE(out.completed()) << out.diagnostic;
  return g_allocations.load();
}

constexpr VertexId kN = 2048;
constexpr std::uint64_t kM = 16384;
constexpr std::uint64_t kCap = 11;  // ceil(log2 2048): the skeleton's cap

Graph probe_graph(std::uint64_t seed) {
  util::Rng rng(seed);
  return graph::connected_gnm(kN, kM, rng);
}

std::vector<std::uint8_t> every_13th(VertexId n) {
  std::vector<std::uint8_t> is_source(n, 0);
  for (VertexId v = 0; v < n; v += 13) is_source[v] = 1;
  return is_source;
}

TEST(AllocBudget, ClusterProtocolSkeleton) {
  for (const std::uint64_t seed : {1, 2, 3}) {
    SCOPED_TRACE(seed);
    const Graph g = probe_graph(seed);
    const core::SkeletonSchedule schedule =
        core::plan_schedule(kN, {.D = 4, .eps = 1.0, .seed = seed});
    spanner::Spanner out(g);
    core::ClusterProtocol protocol(g, schedule, seed, &out);
    EXPECT_LE(round_allocations(g, kCap, protocol), 4u * kN);
    EXPECT_GT(out.size(), 0u);
  }
}

TEST(AllocBudget, BallBroadcast) {
  const Graph g = probe_graph(1);
  sim::BallBroadcast balls(every_13th(kN), 4);
  EXPECT_LE(round_allocations(g, kCap, balls), 4u * kN);
}

TEST(AllocBudget, BfsFlood) {
  const Graph g = probe_graph(1);
  sim::BfsFlood flood(0);
  EXPECT_LE(round_allocations(g, kCap, flood), 256u);
}

TEST(AllocBudget, TruncatedMinIdFlood) {
  const Graph g = probe_graph(1);
  sim::TruncatedMinIdFlood flood(every_13th(kN), 4);
  EXPECT_LE(round_allocations(g, kCap, flood), 256u);
}

TEST(AllocBudget, LubyMis) {
  const Graph g = probe_graph(1);
  baselines::LubyMisProtocol mis(1);
  EXPECT_LE(round_allocations(g, kCap, mis), 256u);
}

}  // namespace
}  // namespace ultra
