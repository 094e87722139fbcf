// Minimal C++20 coroutine task for resumable probe sequences.
//
// A probe body written as a Task<R> coroutine suspends exactly where its
// transport parks (a stalled net::FaultyTransport stretch, surfaced through
// net::ExchangeDriver) or where retry backoff sleeps, and its driver decides
// how to service the park.
//
// Two drivers share every coroutine:
//  - run_sync() services each park the moment it appears, which reproduces
//    the blocking Transport::run behaviour round for round (same trace
//    events, same ledger accounting) — the sync probe_* functions are
//    run_sync over their *_task twins.
//  - corpus::SiteTask drives a whole site's probe sequence as one root
//    task, servicing each park at once and booking it into the report's
//    park metrics.
// One probe implementation, two drivers: the equivalence is by
// construction, not by keeping two code paths in sync.
#pragma once

#include <coroutine>
#include <exception>
#include <type_traits>
#include <utility>

#include "net/transport.h"

namespace h2r::core {

/// Scheduler-visible state of one suspended root task: filled in by the
/// leaf awaitable (an exchange park or a backoff sleep) for whoever drives
/// the root. One TaskContext per root task, propagated down the co_await
/// chain so nested probe tasks park the whole tree.
struct TaskContext {
  /// The parked exchange the tree waits on; null for a pure timer sleep.
  /// The driver services it (unpark + pump, repeatedly if the exchange
  /// parks again) and resumes resume_point only once the exchange is done.
  net::ExchangeDriver* waiting = nullptr;
  /// Virtual rounds a pure timer sleep lasts (retry backoff). Meaningful
  /// only while waiting == nullptr; a parked exchange's stretch lives in
  /// waiting->park_rounds().
  int park_rounds = 0;
  /// The coroutine to resume once the wait is satisfied.
  std::coroutine_handle<> resume_point;
};

namespace detail {

struct PromiseBase {
  TaskContext* ctx = nullptr;
  std::coroutine_handle<> continuation;

  std::suspend_always initial_suspend() noexcept { return {}; }
  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> self) noexcept {
      // Symmetric transfer into the awaiting coroutine; a finished root has
      // no continuation and its driver observes done() instead.
      auto next = self.promise().continuation;
      return next ? next : std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }
  // Probe bodies don't throw; a stray exception here would otherwise
  // vanish into a dangling resume.
  [[noreturn]] void unhandled_exception() noexcept { std::terminate(); }
};

template <typename Task, typename Promise, typename T>
struct TaskAwaiter {
  std::coroutine_handle<Promise> handle;

  bool await_ready() const noexcept { return false; }
  template <typename OuterPromise>
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<OuterPromise> awaiting) noexcept {
    // Child inherits the root's context and remembers who to resume, then
    // starts immediately (lazy start + symmetric transfer).
    handle.promise().ctx = awaiting.promise().ctx;
    handle.promise().continuation = awaiting;
    return handle;
  }
  T await_resume() {
    if constexpr (!std::is_void_v<T>) {
      return std::move(handle.promise().value);
    }
  }
};

}  // namespace detail

/// A lazily-started coroutine returning T. Move-only owner of the frame;
/// start it as a root via start(), or co_await it from another Task.
template <typename T>
class [[nodiscard]] Task {
 public:
  using value_type = T;

  struct promise_type : detail::PromiseBase {
    T value{};
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_value(T v) { value = std::move(v); }
  };

  explicit Task(std::coroutine_handle<promise_type> h) : h_(h) {}
  Task(Task&& other) noexcept : h_(std::exchange(other.h_, {})) {}
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  Task& operator=(Task&&) = delete;
  ~Task() {
    if (h_) h_.destroy();
  }

  auto operator co_await() noexcept {
    return detail::TaskAwaiter<Task, promise_type, T>{h_};
  }

  /// Root-task API: runs the body up to its first suspension (or to the
  /// end) under @p ctx. The driver then services ctx until done().
  void start(TaskContext& ctx) {
    h_.promise().ctx = &ctx;
    h_.resume();
  }
  [[nodiscard]] bool done() const noexcept { return h_.done(); }
  /// The co_returned value; valid once done().
  [[nodiscard]] T& value() noexcept { return h_.promise().value; }

 private:
  std::coroutine_handle<promise_type> h_;
};

template <>
class [[nodiscard]] Task<void> {
 public:
  using value_type = void;

  struct promise_type : detail::PromiseBase {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_void() noexcept {}
  };

  explicit Task(std::coroutine_handle<promise_type> h) : h_(h) {}
  Task(Task&& other) noexcept : h_(std::exchange(other.h_, {})) {}
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  Task& operator=(Task&&) = delete;
  ~Task() {
    if (h_) h_.destroy();
  }

  auto operator co_await() noexcept {
    return detail::TaskAwaiter<Task, promise_type, void>{h_};
  }

  void start(TaskContext& ctx) {
    h_.promise().ctx = &ctx;
    h_.resume();
  }
  [[nodiscard]] bool done() const noexcept { return h_.done(); }

 private:
  std::coroutine_handle<promise_type> h_;
};

/// co_awaitable Transport::run: pumps the exchange inline and suspends the
/// task only while the transport parks (never with LockstepTransport, which
/// is always ready — the clean path takes zero suspensions). The awaitable
/// lives in the awaiting coroutine's frame, so the endpoint adapters and
/// the driver survive across suspensions.
template <typename C, typename S>
class [[nodiscard]] AwaitExchange {
 public:
  AwaitExchange(net::Transport& transport, C& client, S& server,
                const net::ExchangeLimits& limits = {})
      : client_(client),
        server_(server),
        driver_(transport, client_, server_, limits) {}
  AwaitExchange(const AwaitExchange&) = delete;
  AwaitExchange& operator=(const AwaitExchange&) = delete;

  bool await_ready() {
    return driver_.pump() == net::ExchangeDriver::State::kDone;
  }
  template <typename Promise>
  bool await_suspend(std::coroutine_handle<Promise> awaiting) {
    TaskContext* ctx = awaiting.promise().ctx;
    if (ctx == nullptr) {
      // No scheduler above: service the parks inline, exactly like the
      // blocking Transport::run, and carry on without suspending.
      do {
        driver_.unpark();
      } while (driver_.pump() == net::ExchangeDriver::State::kParked);
      return false;
    }
    ctx->waiting = &driver_;
    ctx->park_rounds = driver_.park_rounds();
    ctx->resume_point = awaiting;
    return true;
  }
  const net::ExchangeResult& await_resume() const noexcept {
    return driver_.result();
  }

 private:
  net::EndpointRef<C> client_;
  net::EndpointRef<S> server_;
  net::ExchangeDriver driver_;
};

/// Pure virtual-clock sleep: retry backoff parks the task for @p rounds
/// ticks. Under run_sync (and the scan driver) the sleep is free —
/// simulated time costs a sequential driver nothing, matching the
/// historical behaviour where backoff was only ever *booked*, never slept.
struct ParkFor {
  int rounds = 0;

  bool await_ready() const noexcept { return rounds <= 0; }
  template <typename Promise>
  bool await_suspend(std::coroutine_handle<Promise> awaiting) const {
    TaskContext* ctx = awaiting.promise().ctx;
    if (ctx == nullptr) return false;
    ctx->waiting = nullptr;
    ctx->park_rounds = rounds;
    ctx->resume_point = awaiting;
    return true;
  }
  void await_resume() const noexcept {}
};

/// Drives one root task to completion, servicing every park the moment it
/// appears. This is the sequential driver: identical rounds, trace events,
/// and ledger accounting to the blocking Transport::run path.
template <typename T>
T run_sync(Task<T> task) {
  TaskContext ctx;
  task.start(ctx);
  while (!task.done()) {
    if (net::ExchangeDriver* d = ctx.waiting) {
      d->unpark();
      if (d->pump() == net::ExchangeDriver::State::kParked) continue;
      ctx.waiting = nullptr;
    }
    ctx.resume_point.resume();
  }
  if constexpr (!std::is_void_v<T>) return std::move(task.value());
}

}  // namespace h2r::core
