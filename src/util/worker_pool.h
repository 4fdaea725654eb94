// A fixed-size fork–join worker pool: the one place in src/ that starts
// threads. The round executor (sim::Network under ExecutionMode::kParallel)
// and the query engine (serve::QueryEngine) both fan out through it.
//
// run(job) calls job(i) exactly once for every worker index i in
// [0, size()) and returns only after every call has returned. Index 0 runs
// inline on the calling thread; indices 1.. run on persistent threads that
// the first run with size() > 1 starts and the destructor joins, so later
// runs reuse them. The job is taken by reference and called through a
// function pointer: a run allocates nothing (only the first multi-worker run
// does, to start the threads).
//
// Exceptions: a call that throws ends only itself. run() still waits for
// every other call, then rethrows the exception of the lowest index that
// threw — so no call is left running on an abandoned job, and the pool
// serves the next run normally.
//
// One run at a time: run() is not reentrant and must not be called
// concurrently on one pool.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace ultra::util {

class WorkerPool {
 public:
  // threads: the worker count; 0 picks the hardware concurrency. Either way
  // the count is clamped to [1, 64]. A pool of one starts no thread.
  explicit WorkerPool(unsigned threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  [[nodiscard]] unsigned size() const noexcept { return size_; }

  // Calls job(i) for i in [0, size()) as described above. `job` must be
  // callable as job(unsigned) from several threads at once.
  template <class Job>
  void run(Job&& job) {
    using J = std::remove_reference_t<Job>;
    run_erased(&job, [](const void* j, unsigned i) {
      (*static_cast<J*>(const_cast<void*>(j)))(i);
    });
  }

 private:
  using Call = void (*)(const void*, unsigned);

  void run_erased(const void* job, Call call);
  void worker_main(unsigned index, std::uint64_t seen);

  unsigned size_;
  std::vector<std::exception_ptr> errors_;  // per index, for the running job
  std::mutex mu_;                    // guards the job fields below
  std::condition_variable work_cv_;  // caller -> workers: job published
  std::condition_variable idle_cv_;  // workers -> caller: all calls returned
  const void* job_ = nullptr;
  Call call_ = nullptr;
  std::uint64_t generation_ = 0;  // bumped once per published job
  unsigned unfinished_ = 0;
  bool stop_ = false;
  // Workers 1..size_-1. Declared last: they use every member above.
  std::vector<std::thread> threads_;
};

}  // namespace ultra::util
