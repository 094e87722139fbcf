// Where parked exchanges sleep.
//
// The real-socket serving loop (src/netio) drives its exchanges in
// resumable steps (net::ExchangeDriver), wakes them on epoll readiness, and
// keeps deadlines (connect timeouts, shutdown drains) on this wheel. The
// scan needs none of this: its simulated stalls are skipped inline by
// Transport::run. TimerWheel is a tick-ordered park structure whose drain
// order is a pure function of (tick, insertion order).
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

namespace h2r::net {

/// Tick-ordered parking wheel. Ticks are whatever the owner counts — the
/// epoll loops use steady-clock milliseconds for their deadlines. Items
/// parked on the same tick drain in insertion order.
template <typename T>
class TimerWheel {
 public:
  /// Parks @p item until @p wake_tick.
  void park(std::uint64_t wake_tick, T item) {
    wheel_[wake_tick].push_back(std::move(item));
  }

  [[nodiscard]] bool empty() const noexcept { return wheel_.empty(); }
  [[nodiscard]] std::size_t parked() const noexcept {
    std::size_t n = 0;
    for (const auto& [tick, items] : wheel_) n += items.size();
    return n;
  }

  /// Earliest occupied tick. Precondition: !empty().
  [[nodiscard]] std::uint64_t next_tick() const { return wheel_.begin()->first; }

  /// Pops the whole batch at the earliest occupied tick. Precondition:
  /// !empty().
  [[nodiscard]] std::pair<std::uint64_t, std::vector<T>> pop_next() {
    auto due = wheel_.begin();
    std::pair<std::uint64_t, std::vector<T>> out{due->first,
                                                 std::move(due->second)};
    wheel_.erase(due);
    return out;
  }

  /// Pops every item due at or before @p tick (deadline sweep: the epoll
  /// loop calls this with the wall clock after each poll). Batches drain in
  /// tick order, ties in insertion order.
  [[nodiscard]] std::vector<T> pop_due(std::uint64_t tick) {
    std::vector<T> due;
    while (!wheel_.empty() && wheel_.begin()->first <= tick) {
      auto batch = pop_next();
      due.insert(due.end(), std::make_move_iterator(batch.second.begin()),
                 std::make_move_iterator(batch.second.end()));
    }
    return due;
  }

 private:
  /// An ordered map keeps the earliest occupied tick one lookup regardless
  /// of how sparse the parked stretches are.
  std::map<std::uint64_t, std::vector<T>> wheel_;
};

}  // namespace h2r::net
