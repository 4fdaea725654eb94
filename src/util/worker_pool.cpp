#include "util/worker_pool.h"

#include <algorithm>

namespace ultra::util {

WorkerPool::WorkerPool(unsigned threads) {
  if (threads == 0) threads = std::thread::hardware_concurrency();
  size_ = std::clamp(threads, 1u, 64u);
  errors_.resize(size_);
}

WorkerPool::~WorkerPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::run_erased(const void* job, Call call) {
  if (size_ == 1) {
    call(job, 0);
    return;
  }
  // Start the workers still missing (all of them on the first run). A
  // worker starts at the current generation, so it waits for the job below.
  threads_.reserve(size_ - 1);
  while (threads_.size() + 1 < size_) {
    const auto index = static_cast<unsigned>(threads_.size() + 1);
    threads_.emplace_back(
        [this, index, seen = generation_] { worker_main(index, seen); });
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    job_ = job;
    call_ = call;
    unfinished_ = size_ - 1;
    ++generation_;
  }
  work_cv_.notify_all();

  try {
    call(job, 0);
  } catch (...) {
    errors_[0] = std::current_exception();
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this] { return unfinished_ == 0; });
  }
  // Every call has returned. The lowest index's exception wins; all slots
  // are cleared for the next run first.
  std::exception_ptr first;
  for (std::exception_ptr& err : errors_) {
    if (err && !first) first = err;
    err = nullptr;
  }
  if (first) std::rethrow_exception(first);
}

void WorkerPool::worker_main(unsigned index, std::uint64_t seen) {
  for (;;) {
    const void* job = nullptr;
    Call call = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      job = job_;
      call = call_;
    }
    try {
      call(job, index);
    } catch (...) {
      errors_[index] = std::current_exception();
    }
    const std::lock_guard<std::mutex> lock(mu_);
    if (--unfinished_ == 0) idle_cv_.notify_one();
  }
}

}  // namespace ultra::util
