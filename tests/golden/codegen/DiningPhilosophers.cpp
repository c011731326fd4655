// DiningPhilosophers: explicit-signal monitor synthesized by expresso-cpp
// (reproduction of PLDI'18 "Symbolic Reasoning for Automatic Signal Placement")
// monitor invariant: true
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>

class DiningPhilosophers {
private:
  // shared monitor state
  std::map<long, bool> forks;

  std::mutex m_;
  static long mod_(long a, long b) { long r = a % b; return r < 0 ? r + b : r; }

  // predicate class c0: !forks[$p0] && !forks[$p1]
  struct WaiterC0 {
    std::condition_variable cv;
    bool notified = false;
    long p0;
    long p1;
  };
  std::deque<WaiterC0 *> waiters_c0_;
  void wake_c0_(bool checkPredicate, bool all) {
    for (auto it = waiters_c0_.begin(); it != waiters_c0_.end();) {
      auto *w = *it;
      if (checkPredicate && !(!forks[w->p0] && !forks[w->p1])) { ++it; continue; }
      w->notified = true;
      w->cv.notify_one();
      it = waiters_c0_.erase(it);
      if (!all) return;
    }
  }
public:
  explicit DiningPhilosophers() {
  }

  void pickup(long left, long right) {
    std::unique_lock<std::mutex> lock_(m_);
    while (!(!forks[left] && !forks[right])) {
      WaiterC0 w_;
      w_.p0 = left;
      w_.p1 = right;
      waiters_c0_.push_back(&w_);
      w_.cv.wait(lock_, [&] { return w_.notified; });
    }
    forks[left] = true;
    forks[right] = true;
    // lazy broadcast chain
    wake_c0_(true, false);
  }

  void putdown(long left, long right) {
    std::unique_lock<std::mutex> lock_(m_);
    forks[left] = false;
    wake_c0_(true, false);
    forks[right] = false;
    wake_c0_(true, false);
  }
};
