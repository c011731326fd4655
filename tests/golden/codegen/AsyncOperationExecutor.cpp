// AsyncOperationExecutor: explicit-signal monitor synthesized by expresso-cpp
// (reproduction of PLDI'18 "Symbolic Reasoning for Automatic Signal Placement")
// monitor invariant: 0 <= pending && pending + (-1) * maxPending <= 0
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>

class AsyncOperationExecutor {
private:
  // shared monitor state
  const long maxPending;
  long pending = 0;

  std::mutex m_;
  static long mod_(long a, long b) { long r = a % b; return r < 0 ? r + b : r; }

  // predicate class c0: pending < maxPending
  std::condition_variable cv_c0_;

  // predicate class c1: 0 < pending
  std::condition_variable cv_c1_;

  // predicate class c2: 0 == pending
  std::condition_variable cv_c2_;
public:
  explicit AsyncOperationExecutor(long maxPending_arg) : maxPending(maxPending_arg) {
  }

  void enqueue() {
    std::unique_lock<std::mutex> lock_(m_);
    while (!(pending < maxPending)) cv_c0_.wait(lock_);
    pending = pending + 1;
    cv_c1_.notify_one();
  }

  void complete() {
    std::unique_lock<std::mutex> lock_(m_);
    while (!(pending > 0)) cv_c1_.wait(lock_);
    pending = pending - 1;
    cv_c0_.notify_one();
    if ((0L == pending)) cv_c2_.notify_one();
  }

  void waitToComplete() {
    std::unique_lock<std::mutex> lock_(m_);
    while (!(pending == 0)) cv_c2_.wait(lock_);
    ;
    // lazy broadcast chain
    if ((0L == pending)) cv_c2_.notify_one();
  }
};
