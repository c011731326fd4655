// RoundRobin: explicit-signal monitor synthesized by expresso-cpp
// (reproduction of PLDI'18 "Symbolic Reasoning for Automatic Signal Placement")
// monitor invariant: true
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>

class RoundRobin {
private:
  // shared monitor state
  const long n;
  long turn = 0;

  std::mutex m_;
  static long mod_(long a, long b) { long r = a % b; return r < 0 ? r + b : r; }

  // predicate class c0: turn == $p0
  struct WaiterC0 {
    std::condition_variable cv;
    bool notified = false;
    long p0;
  };
  std::deque<WaiterC0 *> waiters_c0_;
  void wake_c0_(bool checkPredicate, bool all) {
    for (auto it = waiters_c0_.begin(); it != waiters_c0_.end();) {
      auto *w = *it;
      if (checkPredicate && !(turn == w->p0)) { ++it; continue; }
      w->notified = true;
      w->cv.notify_one();
      it = waiters_c0_.erase(it);
      if (!all) return;
    }
  }
public:
  explicit RoundRobin(long n_arg) : n(n_arg) {
  }

  void access(long id) {
    std::unique_lock<std::mutex> lock_(m_);
    while (!(turn == id)) {
      WaiterC0 w_;
      w_.p0 = id;
      waiters_c0_.push_back(&w_);
      w_.cv.wait(lock_, [&] { return w_.notified; });
    }
    turn = turn + 1;
    if (turn == n) {
      turn = 0;
    }
    // lazy broadcast chain
    wake_c0_(true, false);
    wake_c0_(true, false);
  }
};
