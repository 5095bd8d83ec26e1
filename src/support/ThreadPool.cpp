//===- support/ThreadPool.cpp - Work-stealing thread pool -----------------===//
//
// Part of the rvpredict-cpp project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include "support/StringUtils.h"
#include "support/Telemetry.h"

#include <algorithm>

namespace rvp {

namespace {
/// Identity of the pool worker running the current thread. Pool-qualified so
/// that currentWorkerIndex() answers -1 on threads owned by *other* pools.
thread_local const ThreadPool *CurrentPool = nullptr;
thread_local int CurrentIndex = -1;
} // namespace

unsigned ThreadPool::defaultWorkerCount() {
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(unsigned Workers) {
  if (Workers == 0)
    Workers = defaultWorkerCount();
  Queues.reserve(Workers);
  for (unsigned I = 0; I < Workers; ++I)
    Queues.push_back(std::make_unique<WorkerQueue>());
  Threads.reserve(Workers);
  for (unsigned I = 0; I < Workers; ++I)
    Threads.emplace_back([this, I] { workerLoop(I); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Guard(SleepMutex);
    Stopping = true;
  }
  SleepCv.notify_all();
  for (std::thread &T : Threads)
    T.join();
}

int ThreadPool::currentWorkerIndex() const {
  return CurrentPool == this ? CurrentIndex : -1;
}

void ThreadPool::schedule(UniqueTask Task) {
  int Self = currentWorkerIndex();
  unsigned Target = Self >= 0
                        ? static_cast<unsigned>(Self)
                        : NextQueue.fetch_add(1, std::memory_order_relaxed) %
                              Queues.size();
  {
    std::lock_guard<std::mutex> Guard(Queues[Target]->Mutex);
    Queues[Target]->Tasks.push_back(std::move(Task));
  }
  QueuedTasks.fetch_add(1, std::memory_order_release);
  // Taking (and immediately dropping) SleepMutex orders the counter update
  // against a worker that already evaluated the wait predicate: either it
  // saw the task, or it is fully asleep and receives the notify.
  { std::lock_guard<std::mutex> Guard(SleepMutex); }
  SleepCv.notify_one();
}

bool ThreadPool::tryPop(unsigned Self, UniqueTask &Out) {
  {
    WorkerQueue &Own = *Queues[Self];
    std::lock_guard<std::mutex> Guard(Own.Mutex);
    if (!Own.Tasks.empty()) {
      Out = std::move(Own.Tasks.back());
      Own.Tasks.pop_back();
      QueuedTasks.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  for (size_t Offset = 1; Offset < Queues.size(); ++Offset) {
    WorkerQueue &Victim = *Queues[(Self + Offset) % Queues.size()];
    std::lock_guard<std::mutex> Guard(Victim.Mutex);
    if (!Victim.Tasks.empty()) {
      Out = std::move(Victim.Tasks.front());
      Victim.Tasks.pop_front();
      QueuedTasks.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void ThreadPool::workerLoop(unsigned Index) {
  CurrentPool = this;
  CurrentIndex = static_cast<int>(Index);
  // Label this worker's profile track so solve spans land on named
  // per-worker rows in Perfetto. Pools are constructed after the collector
  // is attached (the driver creates them per run).
  if (ProfileCollector *P = Telemetry::instance().profiler())
    P->setThreadName(formatString("worker-%u", Index));
  for (;;) {
    UniqueTask Task;
    if (tryPop(Index, Task)) {
      Task();
      continue;
    }
    std::unique_lock<std::mutex> Lock(SleepMutex);
    if (Stopping && QueuedTasks.load(std::memory_order_acquire) == 0)
      return;
    SleepCv.wait(Lock, [this] {
      return Stopping || QueuedTasks.load(std::memory_order_acquire) != 0;
    });
    if (Stopping && QueuedTasks.load(std::memory_order_acquire) == 0)
      return;
  }
}

void ThreadPool::parallelFor(size_t Begin, size_t End,
                             const std::function<void(size_t)> &Body) {
  if (Begin >= End)
    return;
  if (Threads.empty() || currentWorkerIndex() >= 0 || End - Begin == 1) {
    for (size_t I = Begin; I < End; ++I)
      Body(I);
    return;
  }

  struct LoopState {
    std::atomic<size_t> Next;
    std::atomic<size_t> Done{0};
    size_t End = 0;
    size_t Total = 0;
    std::mutex Mutex;
    std::condition_variable Cv;
    std::exception_ptr Error;
    bool Finished = false;
  };
  auto State = std::make_shared<LoopState>();
  State->Next.store(Begin, std::memory_order_relaxed);
  State->End = End;
  State->Total = End - Begin;

  // One claimer task per worker; each drains indices until the range is
  // exhausted. &Body stays valid because this thread blocks until Done ==
  // Total, which happens before the last Body call returns control here.
  size_t Runners = std::min<size_t>(Threads.size(), State->Total);
  for (size_t R = 0; R < Runners; ++R) {
    schedule(UniqueTask([State, &Body] {
      for (;;) {
        size_t I = State->Next.fetch_add(1, std::memory_order_relaxed);
        if (I >= State->End)
          break;
        try {
          Body(I);
        } catch (...) {
          std::lock_guard<std::mutex> Guard(State->Mutex);
          if (!State->Error)
            State->Error = std::current_exception();
        }
        if (State->Done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            State->Total) {
          {
            std::lock_guard<std::mutex> Guard(State->Mutex);
            State->Finished = true;
          }
          State->Cv.notify_one();
        }
      }
    }));
  }

  std::unique_lock<std::mutex> Lock(State->Mutex);
  State->Cv.wait(Lock, [&] { return State->Finished; });
  if (State->Error)
    std::rethrow_exception(State->Error);
}

} // namespace rvp
