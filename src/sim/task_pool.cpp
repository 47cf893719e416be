#include "sim/task_pool.hpp"

#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/kernels.hpp"

namespace qucp::kern {

namespace {

thread_local bool t_in_pool = false;

class TaskPool {
 public:
  explicit TaskPool(int width) {
    threads_.reserve(static_cast<std::size_t>(width));
    for (int i = 0; i < width; ++i) {
      threads_.emplace_back([this] { worker_loop(); });
    }
  }

  /// Never destroyed (see instance()), so the workers are never joined.
  ~TaskPool() = delete;

  /// Started on first use with the ambient cap as its width. Deliberately
  /// leaked: a static-lifetime caller (a service torn down during exit)
  /// may still fan out after function-local statics are destroyed.
  static TaskPool& instance() {
    static TaskPool* const pool = new TaskPool(ambient_parallel_threads());
    return *pool;
  }

  void run(std::size_t count, const std::function<void(std::size_t)>& fn,
           std::size_t cap) {
    Call call;
    call.fn = &fn;
    call.count = count;
    call.cap = cap;
    std::unique_lock<std::mutex> lock(mutex_);
    calls_.push_back(&call);
    work_cv_.notify_all();
    call.done_cv.wait(lock, [&call] { return call.finished(); });
    if (call.error) std::rethrow_exception(call.error);
  }

 private:
  /// One run() call, on its caller's stack. Every field is guarded by
  /// mutex_. A call sits in calls_ while it has tasks left to hand out.
  struct Call {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t count = 0;
    std::size_t cap = 1;     ///< max tasks of this call running at once
    std::size_t next = 0;    ///< next task index to hand out
    std::size_t active = 0;  ///< tasks running now
    std::exception_ptr error;
    std::condition_variable done_cv;

    [[nodiscard]] bool finished() const {
      return active == 0 && (next == count || error);
    }
  };

  /// Oldest listed call with a free slot under its cap, or null.
  Call* claimable() const {
    for (Call* call : calls_) {
      if (call->active < call->cap) return call;
    }
    return nullptr;
  }

  void worker_loop() {
    t_in_pool = true;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      Call* call = nullptr;
      work_cv_.wait(lock, [&] { return (call = claimable()) != nullptr; });
      const std::size_t index = call->next++;
      ++call->active;
      if (call->next == call->count) std::erase(calls_, call);
      lock.unlock();
      std::exception_ptr error;
      try {
        (*call->fn)(index);
      } catch (...) {
        error = std::current_exception();
      }
      lock.lock();
      --call->active;
      if (error && !call->error) {
        call->error = error;
        std::erase(calls_, call);  // hand out no further tasks
      }
      if (call->finished()) {
        // The caller cannot return (and free `call`) before we release
        // mutex_, so notifying under the lock is the last touch.
        call->done_cv.notify_one();
      } else {
        // This call may have been at its cap: let an idle worker take the
        // slot just freed if this one moves on to an older call.
        work_cv_.notify_one();
      }
    }
  }

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::vector<Call*> calls_;  ///< FIFO: the oldest call is served first
  std::vector<std::thread> threads_;
};

}  // namespace

bool in_pool_task() noexcept { return t_in_pool; }

void run_tasks(std::size_t count,
               const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  const int cap = parallel_threads();
  if (cap <= 1 || t_in_pool) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  TaskPool::instance().run(count, fn, static_cast<std::size_t>(cap));
}

}  // namespace qucp::kern
