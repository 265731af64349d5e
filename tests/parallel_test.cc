// Tests for the parallel partitioned staircase join: identical results and
// consistent counters for any worker count, and the one worker-count rule
// (ParallelWorkers) as every backend applies it through the facade.

#include <gtest/gtest.h>

#include <string>

#include "api/database.h"
#include "core/parallel.h"
#include "test_util.h"
#include "util/rng.h"
#include "xmlgen/xmark.h"

namespace sj {
namespace {

using testing::RandomContext;
using testing::RandomDocument;

using ParallelParam = std::tuple<uint64_t, Axis, unsigned>;

class ParallelPropertyTest : public ::testing::TestWithParam<ParallelParam> {
};

TEST_P(ParallelPropertyTest, MatchesSerialJoin) {
  auto [seed, axis, threads] = GetParam();
  auto doc = RandomDocument(seed, {.target_nodes = 500});
  Rng rng(seed ^ 0xF00);
  for (uint32_t percent : {5u, 35u}) {
    NodeSequence ctx = RandomContext(rng, *doc, percent);
    JoinStats serial_stats, parallel_stats;
    auto serial = StaircaseJoin(*doc, ctx, axis, {}, &serial_stats);
    auto parallel =
        ParallelStaircaseJoin(*doc, ctx, axis, {}, threads, &parallel_stats);
    ASSERT_TRUE(serial.ok());
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    EXPECT_EQ(parallel.value(), serial.value())
        << AxisName(axis) << " threads=" << threads << " seed=" << seed;
    EXPECT_EQ(parallel_stats.result_size, serial_stats.result_size);
    EXPECT_EQ(parallel_stats.context_size, serial_stats.context_size);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ThreadCounts, ParallelPropertyTest,
    ::testing::Combine(::testing::Values(7, 8),
                       ::testing::Values(Axis::kDescendant,
                                         Axis::kDescendantOrSelf,
                                         Axis::kAncestor,
                                         Axis::kAncestorOrSelf),
                       ::testing::Values(1u, 2u, 3u, 8u, 64u)));

TEST(ParallelTest, DegeneratesToSerialForRegionAxes) {
  auto doc = RandomDocument(9);
  Rng rng(1);
  NodeSequence ctx = RandomContext(rng, *doc, 20);
  for (Axis axis : {Axis::kFollowing, Axis::kPreceding}) {
    EXPECT_EQ(ParallelStaircaseJoin(*doc, ctx, axis, {}, 8).value(),
              StaircaseJoin(*doc, ctx, axis).value());
  }
}

TEST(ParallelTest, MoreWorkersThanPartitions) {
  auto doc = RandomDocument(10);
  NodeSequence ctx = {1};  // a single partition
  EXPECT_EQ(ParallelStaircaseJoin(*doc, ctx, Axis::kDescendant, {}, 16)
                .value(),
            StaircaseJoin(*doc, ctx, Axis::kDescendant).value());
}

TEST(ParallelTest, RejectsBadContext) {
  auto doc = RandomDocument(11);
  EXPECT_FALSE(
      ParallelStaircaseJoin(*doc, {4, 2}, Axis::kDescendant, {}, 4).ok());
}

TEST(ParallelWorkersTest, CapsByAxisContextAndPinBudget) {
  // Resident columns: no pin budget, the request stands.
  EXPECT_EQ(ParallelWorkers(Axis::kDescendant, 4, 100, 0), 4u);
  EXPECT_EQ(ParallelWorkers(Axis::kAncestorOrSelf, 4, 100, 0), 4u);
  // Serial: one thread asked for, one context node, a region axis.
  EXPECT_EQ(ParallelWorkers(Axis::kDescendant, 1, 100, 0), 1u);
  EXPECT_EQ(ParallelWorkers(Axis::kDescendant, 4, 1, 0), 1u);
  EXPECT_EQ(ParallelWorkers(Axis::kFollowing, 4, 100, 0), 1u);
  // A pool of P pages affords (P - 1) / 3 workers.
  EXPECT_EQ(ParallelWorkers(Axis::kDescendant, 4, 100, 4), 1u);
  EXPECT_EQ(ParallelWorkers(Axis::kDescendant, 4, 100, 7), 2u);
  EXPECT_EQ(ParallelWorkers(Axis::kDescendant, 4, 100, 10), 3u);
  EXPECT_EQ(ParallelWorkers(Axis::kDescendant, 4, 100, 256), 4u);
  EXPECT_EQ(ParallelWorkers(Axis::kDescendant, 4, 100, 1), 1u);
}

/// num_threads = 4 sessions on the pool-backed backends, over the shared
/// pool and over private pools too small for four workers: results are
/// node-identical to memory and EXPLAIN reports the capped worker count.
TEST(ParallelWorkersTest, PoolBackedSessionsCapWorkersByPoolSize) {
  xmlgen::XMarkOptions gen;
  gen.size_mb = 0.3;
  gen.rich_text = false;
  DatabaseOptions open;
  open.build.store_values = false;
  auto db = std::move(Database::FromXmark(gen, open)).value();
  ASSERT_GE(db->buffer_pool()->capacity(), 13u);  // shared: all 4 fit

  // Step 2 joins many disjoint open_auction subtrees: partitionable.
  constexpr const char* kQuery =
      "/descendant::open_auction/descendant::bidder";
  SessionOptions base;
  base.hints.pushdown = PushdownMode::kNever;
  base.hints.twig = TwigMode::kNever;
  Session memory = std::move(db->CreateSession(base)).value();
  auto expected = memory.Run(kQuery);
  ASSERT_TRUE(expected.ok()) << expected.status();
  ASSERT_GE(expected.value().trace.size(), 2u);
  ASSERT_GE(expected.value().trace[1].stats.context_size, 4u);

  struct Case {
    size_t private_pool_pages;  // 0: the shared pool
    unsigned workers;           // what ParallelWorkers allows
  };
  for (StorageBackend backend :
       {StorageBackend::kPaged, StorageBackend::kCompressed}) {
    for (Case c : {Case{0, 4}, Case{4, 1}, Case{10, 3}}) {
      SessionOptions o = base;
      o.backend = backend;
      o.num_threads = 4;
      o.private_pool_pages = c.private_pool_pages;
      Session session = std::move(db->CreateSession(o)).value();
      auto r = session.Run(kQuery);
      const std::string label =
          std::string(backend == StorageBackend::kPaged ? "paged"
                                                        : "compressed") +
          " pool=" + std::to_string(c.private_pool_pages);
      ASSERT_TRUE(r.ok()) << label << ": " << r.status();
      EXPECT_EQ(r.value().nodes, expected.value().nodes) << label;
      const StepTrace& step = r.value().trace[1];
      EXPECT_EQ(step.stats.workers, c.workers) << label;
      const std::string explain = r.value().Explain();
      if (c.workers > 1) {
        EXPECT_NE(explain.find("parallel "), std::string::npos) << label;
        EXPECT_NE(explain.find("(" + std::to_string(c.workers) + " workers)"),
                  std::string::npos)
            << label << "\n" << explain;
      } else {
        EXPECT_EQ(explain.find("workers)"), std::string::npos)
            << label << "\n" << explain;
      }
    }
  }
}

}  // namespace
}  // namespace sj
