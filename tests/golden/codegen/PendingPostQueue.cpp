// PendingPostQueue: explicit-signal monitor synthesized by expresso-cpp
// (reproduction of PLDI'18 "Symbolic Reasoning for Automatic Signal Placement")
// monitor invariant: 0 <= size
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>

class PendingPostQueue {
private:
  // shared monitor state
  long size = 0;

  std::mutex m_;
  static long mod_(long a, long b) { long r = a % b; return r < 0 ? r + b : r; }

  // predicate class c1: 0 < size
  std::condition_variable cv_c1_;
public:
  explicit PendingPostQueue() {
  }

  void enqueue() {
    std::unique_lock<std::mutex> lock_(m_);
    size = size + 1;
    cv_c1_.notify_one();
  }

  void poll() {
    std::unique_lock<std::mutex> lock_(m_);
    while (!(size > 0)) cv_c1_.wait(lock_);
    size = size - 1;
  }
};
