// SleepingBarber: explicit-signal monitor synthesized by expresso-cpp
// (reproduction of PLDI'18 "Symbolic Reasoning for Automatic Signal Placement")
// monitor invariant: 0 <= waiting && waiting + (-1) * chairs <= 0 && 0 <= available
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>

class SleepingBarber {
private:
  // shared monitor state
  const long chairs;
  long waiting = 0;
  long available = 0;

  std::mutex m_;
  static long mod_(long a, long b) { long r = a % b; return r < 0 ? r + b : r; }

  // predicate class c0: waiting < chairs
  std::condition_variable cv_c0_;

  // predicate class c1: 0 < available
  std::condition_variable cv_c1_;

  // predicate class c2: 0 < waiting
  std::condition_variable cv_c2_;
public:
  explicit SleepingBarber(long chairs_arg) : chairs(chairs_arg) {
  }

  void customer() {
    std::unique_lock<std::mutex> lock_(m_);
    while (!(waiting < chairs)) cv_c0_.wait(lock_);
    waiting = waiting + 1;
    cv_c2_.notify_one();
    while (!(available > 0)) cv_c1_.wait(lock_);
    available = available - 1;
  }

  void barber() {
    std::unique_lock<std::mutex> lock_(m_);
    while (!(waiting > 0)) cv_c2_.wait(lock_);
    waiting = waiting - 1;
    available = available + 1;
    cv_c0_.notify_one();
    cv_c1_.notify_one();
  }
};
