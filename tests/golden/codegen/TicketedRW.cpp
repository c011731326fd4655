// TicketedRW: explicit-signal monitor synthesized by expresso-cpp
// (reproduction of PLDI'18 "Symbolic Reasoning for Automatic Signal Placement")
// monitor invariant: 0 <= readers
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>

class TicketedRW {
private:
  // shared monitor state
  long nextTicket = 0;
  long nowServing = 0;
  long readers = 0;
  bool writerIn = false;

  std::mutex m_;
  static long mod_(long a, long b) { long r = a % b; return r < 0 ? r + b : r; }

  // predicate class c1: !writerIn && nowServing == $p0
  struct WaiterC1 {
    std::condition_variable cv;
    bool notified = false;
    long p0;
  };
  std::deque<WaiterC1 *> waiters_c1_;
  void wake_c1_(bool checkPredicate, bool all) {
    for (auto it = waiters_c1_.begin(); it != waiters_c1_.end();) {
      auto *w = *it;
      if (checkPredicate && !(!writerIn && (nowServing == w->p0))) { ++it; continue; }
      w->notified = true;
      w->cv.notify_one();
      it = waiters_c1_.erase(it);
      if (!all) return;
    }
  }

  // predicate class c2: !writerIn && nowServing == $p0 && 0 == readers
  struct WaiterC2 {
    std::condition_variable cv;
    bool notified = false;
    long p0;
  };
  std::deque<WaiterC2 *> waiters_c2_;
  void wake_c2_(bool checkPredicate, bool all) {
    for (auto it = waiters_c2_.begin(); it != waiters_c2_.end();) {
      auto *w = *it;
      if (checkPredicate && !(!writerIn && (nowServing == w->p0) && (0L == readers))) { ++it; continue; }
      w->notified = true;
      w->cv.notify_one();
      it = waiters_c2_.erase(it);
      if (!all) return;
    }
  }
public:
  explicit TicketedRW() {
  }

  void enterReader() {
    std::unique_lock<std::mutex> lock_(m_);
    long t = nextTicket;
    nextTicket = nextTicket + 1;
    while (!(nowServing == t && !writerIn)) {
      WaiterC1 w_;
      w_.p0 = t;
      waiters_c1_.push_back(&w_);
      w_.cv.wait(lock_, [&] { return w_.notified; });
    }
    readers = readers + 1;
    nowServing = nowServing + 1;
    wake_c1_(true, false);
  }

  void exitReader() {
    std::unique_lock<std::mutex> lock_(m_);
    if (readers > 0) {
      readers = readers - 1;
    }
    wake_c2_(true, false);
  }

  void enterWriter() {
    std::unique_lock<std::mutex> lock_(m_);
    long t = nextTicket;
    nextTicket = nextTicket + 1;
    while (!(nowServing == t && readers == 0 && !writerIn)) {
      WaiterC2 w_;
      w_.p0 = t;
      waiters_c2_.push_back(&w_);
      w_.cv.wait(lock_, [&] { return w_.notified; });
    }
    writerIn = true;
    nowServing = nowServing + 1;
  }

  void exitWriter() {
    std::unique_lock<std::mutex> lock_(m_);
    writerIn = false;
    wake_c1_(true, false);
    wake_c2_(true, false);
  }
};
