//===- support/ThreadPool.cpp - Shared-queue thread pool ------------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include "support/StringUtils.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace rvp {

unsigned ThreadPool::defaultWorkerCount() {
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(unsigned Workers) {
  if (Workers == 0)
    Workers = defaultWorkerCount();
  Threads.reserve(Workers);
  for (unsigned I = 0; I < Workers; ++I)
    Threads.emplace_back([this, I] { workerLoop(I); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Guard(Mutex);
    Stopping = true;
  }
  Ready.notify_all();
  for (std::thread &T : Threads)
    T.join();
}

void ThreadPool::submit(std::function<void()> Task) {
  {
    std::lock_guard<std::mutex> Guard(Mutex);
    Tasks.push_back(std::move(Task));
  }
  Ready.notify_one();
}

void ThreadPool::workerLoop(unsigned Index) {
  // Label this worker's profile track so solve spans land on named
  // per-worker rows in Perfetto. Pools are constructed after the collector
  // is attached (the driver creates them per run).
  if (ProfileCollector *P = Telemetry::instance().profiler())
    P->setThreadName(formatString("worker-%u", Index));
  for (;;) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      Ready.wait(Lock, [this] { return Stopping || !Tasks.empty(); });
      if (Tasks.empty())
        return; // stopping, and the queue is drained
      Task = std::move(Tasks.front());
      Tasks.pop_front();
    }
    try {
      Task();
    } catch (...) {
      // A throwing task must not take its worker down with it.
    }
  }
}

void ThreadPool::parallelFor(
    size_t Begin, size_t End,
    const std::function<void(size_t, unsigned)> &Body) {
  if (Begin >= End)
    return;
  if (End - Begin == 1) {
    Body(Begin, 0);
    return;
  }

  // Shared with the runners, which may still hold it after this call
  // returns: the last runner wakes the caller while inside the state.
  struct LoopState {
    std::atomic<size_t> Next;
    std::mutex Mutex;
    std::condition_variable Cv;
    std::exception_ptr Error;
    size_t Running = 0;
  };
  auto State = std::make_shared<LoopState>();
  State->Next.store(Begin, std::memory_order_relaxed);
  const auto Runners =
      static_cast<unsigned>(std::min<size_t>(numWorkers(), End - Begin));
  State->Running = Runners;

  // One runner task per slot; each claims indices until the range is
  // exhausted. &Body stays valid because this thread blocks until every
  // runner has made its last Body call.
  for (unsigned Slot = 0; Slot < Runners; ++Slot) {
    submit([State, &Body, End, Slot] {
      for (;;) {
        size_t I = State->Next.fetch_add(1, std::memory_order_relaxed);
        if (I >= End)
          break;
        try {
          Body(I, Slot);
        } catch (...) {
          std::lock_guard<std::mutex> Guard(State->Mutex);
          if (!State->Error)
            State->Error = std::current_exception();
        }
      }
      std::lock_guard<std::mutex> Guard(State->Mutex);
      if (--State->Running == 0)
        State->Cv.notify_one();
    });
  }

  std::unique_lock<std::mutex> Lock(State->Mutex);
  State->Cv.wait(Lock, [&] { return State->Running == 0; });
  if (State->Error)
    std::rethrow_exception(State->Error);
}

} // namespace rvp
