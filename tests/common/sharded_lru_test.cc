/// \file sharded_lru_test.cc
/// \brief ShardedLru's second-request admission and single-flight, driven
/// deterministically: the leader's computation holds until every other
/// caller has joined its flight, so no outcome depends on thread timing.
#include "common/sharded_lru.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

namespace rj {
namespace {

using IntLru = ShardedLru<int, int, std::hash<int>>;

IntLru MakeLru(std::size_t capacity_bytes = 1 << 20) {
  return IntLru(capacity_bytes, /*num_shards=*/1,
                [](const int&, const int&) { return sizeof(int); });
}

TEST(ShardedLruTest, SecondRequestAdmissionStoresOnTheSecondRequest) {
  IntLru lru = MakeLru();
  int computed = 0;
  const auto compute = [&]() -> Result<int> {
    ++computed;
    return 42;
  };
  for (int request = 1; request <= 3; ++request) {
    SCOPED_TRACE(::testing::Message() << "request " << request);
    auto r = lru.GetOrCompute(7, compute, nullptr, nullptr,
                              LruAdmission::kSecondRequest);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r.value(), 42);
    // The first request computes and drops, the second computes and
    // stores, the third hits.
    EXPECT_EQ(computed, request == 1 ? 1 : 2);
    EXPECT_EQ(lru.stats().entries, request == 1 ? 0u : 1u);
  }
  EXPECT_EQ(lru.stats().misses, 2u);
  EXPECT_EQ(lru.stats().hits, 1u);
}

TEST(ShardedLruTest, ConcurrentFirstRequestsComputeOnceAndRetain) {
  IntLru lru = MakeLru();
  constexpr std::size_t kThreads = 4;
  std::atomic<int> computed{0};
  std::atomic<bool> timed_out{false};
  const auto compute = [&]() -> Result<int> {
    ++computed;
    // Hold the flight until the other callers wait on it (each counts one
    // shared flight before it blocks).
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (lru.stats().shared_flights < kThreads - 1) {
      if (std::chrono::steady_clock::now() > deadline) {
        timed_out = true;
        break;
      }
      std::this_thread::yield();
    }
    return 42;
  };

  std::atomic<std::size_t> wrong{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto r = lru.GetOrCompute(7, compute, nullptr, nullptr,
                                LruAdmission::kSecondRequest);
      if (!r.ok() || *r.value() != 42) ++wrong;
    });
  }
  for (std::thread& t : threads) t.join();

  ASSERT_FALSE(timed_out.load()) << "followers never joined the flight";
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(computed.load(), 1);
  const CacheStats stats = lru.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.shared_flights, kThreads - 1);
  // The followers' joining counts as the key's second request: stored.
  EXPECT_EQ(stats.entries, 1u);
  auto warm = lru.GetOrCompute(7, compute, nullptr, nullptr,
                               LruAdmission::kSecondRequest);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(computed.load(), 1);
}

}  // namespace
}  // namespace rj
