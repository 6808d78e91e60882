#include "exec/executor.hpp"

#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <stop_token>
#include <thread>
#include <utility>
#include <vector>

namespace dcv::exec {

namespace {

/// One run() call: its job, the workers still inside it and the first
/// exception one of them threw.
struct Call {
  const std::function<void(unsigned)>& job;
  unsigned pending;
  std::exception_ptr error;
  std::condition_variable done;
};

/// One cached thread and the call it is handed, if any. Destroying it
/// stops the thread's wait and joins it.
struct Worker {
  std::condition_variable_any wake;
  Call* call = nullptr;
  unsigned index = 0;
  std::jthread thread;  // last: joined while the members it reads live
};

/// The process-wide thread cache. One mutex guards it and every Call. Idle
/// workers wait on a stack, so a call reuses the threads the previous call
/// just parked. At exit its destruction joins every thread.
class Cache {
 public:
  void run(unsigned workers, const std::function<void(unsigned)>& job) {
    Call call{job, workers, nullptr, {}};
    {
      const std::lock_guard lock(mutex_);
      // Every thread starts before any is handed the call, so a failed
      // start leaves no worker holding it.
      while (idle_.size() < workers - 1) {
        Worker& fresh = *workers_.emplace_back(std::make_unique<Worker>());
        fresh.thread = std::jthread(
            [this, &fresh](std::stop_token stop) { loop(fresh, stop); });
        idle_.push_back(&fresh);
      }
      for (unsigned w = 1; w < workers; ++w) {
        Worker& worker = *idle_.back();
        idle_.pop_back();
        worker.call = &call;
        worker.index = w;
        worker.wake.notify_one();
      }
    }
    work(call, 0, nullptr);
    std::unique_lock lock(mutex_);
    call.done.wait(lock, [&] { return call.pending == 0; });
    if (call.error) std::rethrow_exception(call.error);
  }

 private:
  void loop(Worker& worker, std::stop_token stop) {
    std::unique_lock lock(mutex_);
    const auto handed = [&] { return worker.call != nullptr; };
    while (worker.wake.wait(lock, stop, handed)) {
      Call& call = *std::exchange(worker.call, nullptr);
      lock.unlock();
      work(call, worker.index, &worker);
      lock.lock();
    }
  }

  /// Runs worker `w` of `call`, then counts it out. A cached `worker` is
  /// parked first, so once run() returns its caller's next call finds the
  /// thread idle. The count drops under the lock: the caller, who frees
  /// the call once it reads 0, cannot wake before the notify is done.
  void work(Call& call, unsigned w, Worker* worker) {
    std::exception_ptr error;
    try {
      call.job(w);
    } catch (...) {
      error = std::current_exception();
    }
    const std::lock_guard lock(mutex_);
    if (worker != nullptr) idle_.push_back(worker);
    if (error && !call.error) call.error = std::move(error);
    if (--call.pending == 0) call.done.notify_one();
  }

  std::mutex mutex_;
  std::vector<Worker*> idle_;
  std::vector<std::unique_ptr<Worker>> workers_;  // last: joined first
};

}  // namespace

unsigned default_threads(unsigned configured) {
  if (configured != 0) return configured;
  return std::clamp(std::thread::hardware_concurrency(), 1u, 16u);
}

void run(unsigned workers, const std::function<void(unsigned)>& job) {
  if (workers <= 1) {
    if (workers == 1) job(0);
    return;
  }
  static Cache cache;
  cache.run(workers, job);
}

}  // namespace dcv::exec
