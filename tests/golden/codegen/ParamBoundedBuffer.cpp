// ParamBoundedBuffer: explicit-signal monitor synthesized by expresso-cpp
// (reproduction of PLDI'18 "Symbolic Reasoning for Automatic Signal Placement")
// monitor invariant: true
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>

class ParamBoundedBuffer {
private:
  // shared monitor state
  const long capacity;
  long count = 0;

  std::mutex m_;
  static long mod_(long a, long b) { long r = a % b; return r < 0 ? r + b : r; }

  // predicate class c0: count + $p0 <= capacity
  struct WaiterC0 {
    std::condition_variable cv;
    bool notified = false;
    long p0;
  };
  std::deque<WaiterC0 *> waiters_c0_;
  void wake_c0_(bool checkPredicate, bool all) {
    for (auto it = waiters_c0_.begin(); it != waiters_c0_.end();) {
      auto *w = *it;
      if (checkPredicate && !((count + w->p0) <= capacity)) { ++it; continue; }
      w->notified = true;
      w->cv.notify_one();
      it = waiters_c0_.erase(it);
      if (!all) return;
    }
  }

  // predicate class c1: $p0 <= count
  struct WaiterC1 {
    std::condition_variable cv;
    bool notified = false;
    long p0;
  };
  std::deque<WaiterC1 *> waiters_c1_;
  void wake_c1_(bool checkPredicate, bool all) {
    for (auto it = waiters_c1_.begin(); it != waiters_c1_.end();) {
      auto *w = *it;
      if (checkPredicate && !(w->p0 <= count)) { ++it; continue; }
      w->notified = true;
      w->cv.notify_one();
      it = waiters_c1_.erase(it);
      if (!all) return;
    }
  }
public:
  explicit ParamBoundedBuffer(long capacity_arg) : capacity(capacity_arg) {
  }

  void put(long n) {
    std::unique_lock<std::mutex> lock_(m_);
    while (!(count + n <= capacity)) {
      WaiterC0 w_;
      w_.p0 = n;
      waiters_c0_.push_back(&w_);
      w_.cv.wait(lock_, [&] { return w_.notified; });
    }
    count = count + n;
    // lazy broadcast chain
    wake_c0_(true, false);
    wake_c0_(true, false);
    wake_c1_(true, false);
  }

  void take(long n) {
    std::unique_lock<std::mutex> lock_(m_);
    while (!(count >= n)) {
      WaiterC1 w_;
      w_.p0 = n;
      waiters_c1_.push_back(&w_);
      w_.cv.wait(lock_, [&] { return w_.notified; });
    }
    count = count - n;
    // lazy broadcast chain
    wake_c1_(true, false);
    wake_c0_(true, false);
    wake_c1_(true, false);
  }
};
