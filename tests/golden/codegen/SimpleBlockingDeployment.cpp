// SimpleBlockingDeployment: explicit-signal monitor synthesized by expresso-cpp
// (reproduction of PLDI'18 "Symbolic Reasoning for Automatic Signal Placement")
// monitor invariant: true
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>

class SimpleBlockingDeployment {
private:
  // shared monitor state
  bool busy = false;

  std::mutex m_;
  static long mod_(long a, long b) { long r = a % b; return r < 0 ? r + b : r; }

  // predicate class c0: !busy
  std::condition_variable cv_c0_;
public:
  explicit SimpleBlockingDeployment() {
  }

  void deploy() {
    std::unique_lock<std::mutex> lock_(m_);
    while (!(!busy)) cv_c0_.wait(lock_);
    busy = true;
  }

  void release() {
    std::unique_lock<std::mutex> lock_(m_);
    busy = false;
    cv_c0_.notify_one();
  }
};
