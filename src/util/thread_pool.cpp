#include "util/thread_pool.h"

namespace gretel::util {

ThreadPool::ThreadPool(std::size_t num_threads) {
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  job_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run_indices(Job& job) {
  for (;;) {
    const auto i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.n) return;
    (*job.fn)(i);
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      job_cv_.wait(lock, [&] {
        return stop_ || (job_ != nullptr && generation_ != seen);
      });
      if (stop_) return;
      seen = generation_;
      job = job_;
      ++job->active;
    }
    run_indices(*job);
    // Last touch of *job: once active drops to 0 under the lock, the
    // coordinator may return and the job record goes out of scope.
    std::lock_guard<std::mutex> lock(mutex_);
    if (--job->active == 0) done_cv_.notify_all();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (workers_.empty() || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  Job job{&fn, n};
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &job;
    ++generation_;
  }
  job_cv_.notify_all();
  run_indices(job);
  // Every index is now claimed, each either run here or held by a worker
  // that is still counted in job.active.  Unpublish so no late waker can
  // join, then wait for the joined workers to leave.
  std::unique_lock<std::mutex> lock(mutex_);
  job_ = nullptr;
  done_cv_.wait(lock, [&] { return job.active == 0; });
}

}  // namespace gretel::util
