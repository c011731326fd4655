// BoundedBuffer: explicit-signal monitor synthesized by expresso-cpp
// (reproduction of PLDI'18 "Symbolic Reasoning for Automatic Signal Placement")
// monitor invariant: 0 <= count && count + (-1) * capacity <= 0
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>

class BoundedBuffer {
private:
  // shared monitor state
  const long capacity;
  long count = 0;

  std::mutex m_;
  static long mod_(long a, long b) { long r = a % b; return r < 0 ? r + b : r; }

  // predicate class c0: count < capacity
  std::condition_variable cv_c0_;

  // predicate class c1: 0 < count
  std::condition_variable cv_c1_;
public:
  explicit BoundedBuffer(long capacity_arg) : capacity(capacity_arg) {
  }

  void put() {
    std::unique_lock<std::mutex> lock_(m_);
    while (!(count < capacity)) cv_c0_.wait(lock_);
    count = count + 1;
    cv_c1_.notify_one();
  }

  void take() {
    std::unique_lock<std::mutex> lock_(m_);
    while (!(count > 0)) cv_c1_.wait(lock_);
    count = count - 1;
    cv_c0_.notify_one();
  }
};
