// ConcurrencyThrottle: explicit-signal monitor synthesized by expresso-cpp
// (reproduction of PLDI'18 "Symbolic Reasoning for Automatic Signal Placement")
// monitor invariant: threadCount + (-1) * threadLimit <= 0
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>

class ConcurrencyThrottle {
private:
  // shared monitor state
  const long threadLimit;
  long threadCount = 0;

  std::mutex m_;
  static long mod_(long a, long b) { long r = a % b; return r < 0 ? r + b : r; }

  // predicate class c0: threadCount < threadLimit
  std::condition_variable cv_c0_;
public:
  explicit ConcurrencyThrottle(long threadLimit_arg) : threadLimit(threadLimit_arg) {
  }

  void beforeAccess() {
    std::unique_lock<std::mutex> lock_(m_);
    while (!(threadCount < threadLimit)) cv_c0_.wait(lock_);
    threadCount = threadCount + 1;
  }

  void afterAccess() {
    std::unique_lock<std::mutex> lock_(m_);
    threadCount = threadCount - 1;
    cv_c0_.notify_one();
  }
};
