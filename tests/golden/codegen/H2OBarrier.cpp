// H2OBarrier: explicit-signal monitor synthesized by expresso-cpp
// (reproduction of PLDI'18 "Symbolic Reasoning for Automatic Signal Placement")
// monitor invariant: hAvail + (-1) * maxPool <= 1
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>

class H2OBarrier {
private:
  // shared monitor state
  const long maxPool;
  long hAvail = 0;

  std::mutex m_;
  static long mod_(long a, long b) { long r = a % b; return r < 0 ? r + b : r; }

  // predicate class c0: hAvail < maxPool
  std::condition_variable cv_c0_;

  // predicate class c1: 2 <= hAvail
  std::condition_variable cv_c1_;
public:
  explicit H2OBarrier(long maxPool_arg) : maxPool(maxPool_arg) {
  }

  void hydrogen() {
    std::unique_lock<std::mutex> lock_(m_);
    while (!(hAvail < maxPool)) cv_c0_.wait(lock_);
    hAvail = hAvail + 1;
    // lazy broadcast chain
    if ((hAvail < maxPool)) cv_c0_.notify_one();
    if ((2L <= hAvail)) cv_c1_.notify_one();
  }

  void oxygen() {
    std::unique_lock<std::mutex> lock_(m_);
    while (!(hAvail >= 2)) cv_c1_.wait(lock_);
    hAvail = hAvail - 2;
    if ((hAvail < maxPool)) cv_c0_.notify_one();
  }
};
