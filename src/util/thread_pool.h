// Fork-join worker pool for the fan-out fingerprint matcher.
//
// One coordinator thread repeatedly issues index-parallel jobs; the workers
// are persistent so a job costs two condition-variable round trips, not N
// thread spawns.  parallel_for() blocks until every index has run, and the
// calling thread participates, so a pool of W threads applies W+1 cores to
// the job.  Determinism contract: the pool only changes *which thread* runs
// fn(i), never whether or how often — callers that write disjoint outputs
// indexed by i and reduce serially afterwards get bit-identical results for
// any pool size, including zero (a pool with 0 threads runs everything
// inline on the caller).
//
// Job ownership: each parallel_for() call owns its job record (fn, n, the
// next-index counter and the count of workers inside the job) on the
// coordinator's stack, and publishes a pointer to it under the lock.  A
// worker joins a job only under the lock and only while that job is still
// published, and registers as active when it does.  parallel_for() does not
// return while any worker is inside the job: it unpublishes the job and
// waits for the active count to reach zero.  So a worker that wakes late
// can never claim indices of a later job with an earlier job's fn or n.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gretel::util {

class ThreadPool {
 public:
  // Spawns `num_threads` workers; 0 is valid and makes parallel_for inline.
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  // Runs fn(i) exactly once for every i in [0, n), spread across the
  // workers and the calling thread; returns once all n calls completed.
  // Only one thread may call parallel_for at a time (the coordinator).
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& fn);

 private:
  // One parallel_for call's job; lives on the coordinator's stack.
  struct Job {
    const std::function<void(std::size_t)>* fn;
    std::size_t n;
    std::atomic<std::size_t> next{0};  // next unclaimed index
    std::size_t active = 0;            // workers inside; guarded by mutex_
  };

  void worker_loop();
  static void run_indices(Job& job);

  std::mutex mutex_;
  std::condition_variable job_cv_;   // workers wait for a new generation
  std::condition_variable done_cv_;  // coordinator waits for workers to leave
  bool stop_ = false;

  // Current job, published under mutex_ with a generation bump and
  // unpublished (nullptr) before parallel_for waits for the workers.
  std::uint64_t generation_ = 0;
  Job* job_ = nullptr;

  std::vector<std::thread> workers_;
};

}  // namespace gretel::util
