//===- support/ThreadPool.h - Work-stealing thread pool ----------*- C++ -*-===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size work-stealing thread pool used to parallelize the per-COP
/// encode+solve loop of the detectors (detect/WindowDriver.cpp): candidates
/// within one window are decided by independent SMT queries, so they
/// schedule as independent tasks while the window-level bookkeeping stays
/// sequential.
///
/// Each worker owns a deque. The owner pushes and pops at the back (LIFO —
/// freshly spawned work is hot in cache); idle workers steal from the
/// *front* of a victim's deque (FIFO — the oldest, likely largest, task).
/// Submissions from non-pool threads are distributed round-robin.
///
/// submit() returns a std::future carrying the task's result or exception.
/// parallelFor() distributes an index range over the workers, blocks until
/// every index completed, and rethrows the first body exception after the
/// barrier. The destructor drains every queued task before joining.
///
//===----------------------------------------------------------------------===//

#ifndef RVP_SUPPORT_THREADPOOL_H
#define RVP_SUPPORT_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace rvp {

/// Move-only type-erased nullary callable. std::function requires copyable
/// targets, which std::packaged_task (the carrier behind submit()) is not.
class UniqueTask {
public:
  UniqueTask() = default;

  template <typename Fn,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<Fn>, UniqueTask>>>
  UniqueTask(Fn &&F)
      : Impl(std::make_unique<Model<std::decay_t<Fn>>>(
            std::forward<Fn>(F))) {}

  void operator()() { Impl->run(); }
  explicit operator bool() const { return Impl != nullptr; }

private:
  struct Concept {
    virtual ~Concept() = default;
    virtual void run() = 0;
  };
  template <typename Fn> struct Model : Concept {
    template <typename U>
    explicit Model(U &&F) : F(std::forward<U>(F)) {}
    void run() override { F(); }
    Fn F;
  };
  std::unique_ptr<Concept> Impl;
};

class ThreadPool {
public:
  /// Spawns \p Workers threads; 0 means defaultWorkerCount().
  explicit ThreadPool(unsigned Workers = 0);

  /// Drains every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned numWorkers() const {
    return static_cast<unsigned>(Threads.size());
  }

  /// std::thread::hardware_concurrency(), never less than 1.
  static unsigned defaultWorkerCount();

  /// The most workers a tool's --jobs flag may ask for (readJobs in
  /// support/CommandLine.h), so a negative or huge value is a usage error
  /// rather than a request for billions of threads.
  static constexpr unsigned MaxWorkers = 256;

  /// Index of the pool worker running the calling thread, or -1 on threads
  /// this pool does not own (e.g. the thread blocked in parallelFor).
  int currentWorkerIndex() const;

  /// Schedules \p F and returns a future for its result; an exception
  /// escaping \p F is captured and rethrown from future::get().
  template <typename Fn>
  auto submit(Fn &&F)
      -> std::future<std::invoke_result_t<std::decay_t<Fn>>> {
    using R = std::invoke_result_t<std::decay_t<Fn>>;
    std::packaged_task<R()> Task(std::forward<Fn>(F));
    std::future<R> Result = Task.get_future();
    schedule(UniqueTask(std::move(Task)));
    return Result;
  }

  /// Runs Body(I) for every I in [Begin, End) across the workers and waits
  /// for all of them. Every index runs exactly once even when bodies throw;
  /// the first exception (by completion time) is rethrown after the
  /// barrier. Runs inline when called from a worker of this pool (no
  /// nested scheduling) or when the pool has no workers.
  void parallelFor(size_t Begin, size_t End,
                   const std::function<void(size_t)> &Body);

private:
  struct WorkerQueue {
    std::mutex Mutex;
    std::deque<UniqueTask> Tasks;
  };

  void schedule(UniqueTask Task);
  bool tryPop(unsigned Self, UniqueTask &Out);
  void workerLoop(unsigned Index);

  std::vector<std::unique_ptr<WorkerQueue>> Queues;
  std::vector<std::thread> Threads;
  std::mutex SleepMutex;
  std::condition_variable SleepCv;
  std::atomic<size_t> QueuedTasks{0};
  std::atomic<unsigned> NextQueue{0};
  bool Stopping = false; ///< guarded by SleepMutex
};

} // namespace rvp

#endif // RVP_SUPPORT_THREADPOOL_H
