#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <vector>

namespace gretel::util {
namespace {

TEST(ThreadPool, ZeroThreadsRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 0u);
  std::vector<int> hits(10, 0);
  pool.parallel_for(10, [&](std::size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(3);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, DisjointWritesAreDeterministic) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 500;
  std::vector<std::uint64_t> serial(kN), parallel(kN);
  const auto f = [](std::size_t i) {
    std::uint64_t v = i + 1;
    for (int k = 0; k < 100; ++k) v = v * 6364136223846793005ull + 1;
    return v;
  };
  for (std::size_t i = 0; i < kN; ++i) serial[i] = f(i);
  pool.parallel_for(kN, [&](std::size_t i) { parallel[i] = f(i); });
  EXPECT_EQ(serial, parallel);
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  ThreadPool pool(2);
  std::uint64_t total = 0;
  for (int job = 0; job < 200; ++job) {
    std::vector<std::uint64_t> out(16, 0);
    pool.parallel_for(out.size(),
                      [&](std::size_t i) { out[i] = i + job; });
    total += std::accumulate(out.begin(), out.end(), std::uint64_t{0});
  }
  // Σ_job Σ_i (i + job) = 200·120 + 16·Σ job
  EXPECT_EQ(total, 200u * 120u + 16u * (199u * 200u / 2));
}

TEST(ThreadPool, EmptyAndSingleJobs) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

// Back-to-back jobs whose size changes every call, on more threads than
// cores, each with a fresh temporary std::function: a worker that woke for
// one job must never claim indices of the next with the earlier fn or n.
TEST(ThreadPool, BackToBackJobsOfVaryingSize) {
  ThreadPool pool(8);
  constexpr int kJobs = 100000;
  constexpr std::size_t kMaxN = 36;
  std::vector<std::atomic<int>> hits(kMaxN);
  std::atomic<std::uint64_t> out_of_range{0};
  std::uint64_t bad_jobs = 0;
  int first_bad_job = -1;
  for (int job = 0; job < kJobs; ++job) {
    const std::size_t n = 4 + 8 * static_cast<std::size_t>(job % 5);
    pool.parallel_for(n, [&hits, &out_of_range, n](std::size_t i) {
      if (i >= n) {
        out_of_range.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    bool ok = true;
    for (std::size_t i = 0; i < kMaxN; ++i) {
      const int expected = i < n ? 1 : 0;
      if (hits[i].exchange(0, std::memory_order_relaxed) != expected) {
        ok = false;
      }
    }
    if (!ok) {
      ++bad_jobs;
      if (first_bad_job < 0) first_bad_job = job;
    }
  }
  EXPECT_EQ(out_of_range.load(), 0u);
  EXPECT_EQ(bad_jobs, 0u) << "first bad job: " << first_bad_job;
}

}  // namespace
}  // namespace gretel::util
