//===- support/ThreadPool.h - Shared-queue thread pool ----------*- C++ -*-===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size thread pool over one shared FIFO queue. It has two callers:
/// the per-COP encode+solve loop of the detectors (detect/WindowDriver.cpp),
/// which decides the candidates of one window as independent queries
/// through parallelFor(), and rvpredictd (server/Server.cpp), which submits
/// one coarse task per session window.
///
/// submit() queues a task and returns nothing; an exception escaping the
/// task is dropped, never killing its worker. parallelFor() distributes an
/// index range over the workers, blocks until every index completed, and
/// rethrows the first body exception after the barrier. The destructor
/// drains every queued task before joining.
///
//===----------------------------------------------------------------------===//

#ifndef RVP_SUPPORT_THREADPOOL_H
#define RVP_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rvp {

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

  /// Queues \p Task for the next free worker. An exception escaping it is
  /// dropped; callers that care catch it themselves.
  void submit(std::function<void()> Task);

  /// Runs Body(I, Slot) for every I in [Begin, End) across the workers and
  /// waits for all of them. Slot is in [0, numWorkers()) and no two threads
  /// run bodies with the same slot at once, so it can index per-runner
  /// state; a single index runs inline on the caller with slot 0. Every
  /// index runs exactly once even when bodies throw; the first exception
  /// (by completion time) is rethrown after the barrier.
  ///
  /// Precondition: not called from a task of this pool (the caller blocks
  /// a worker the loop may need).
  void parallelFor(size_t Begin, size_t End,
                   const std::function<void(size_t, unsigned)> &Body);

private:
  void workerLoop(unsigned Index);

  std::vector<std::thread> Threads;
  std::mutex Mutex;
  std::condition_variable Ready;
  std::deque<std::function<void()>> Tasks; ///< guarded by Mutex
  bool Stopping = false;                   ///< guarded by Mutex
};

} // namespace rvp

#endif // RVP_SUPPORT_THREADPOOL_H
