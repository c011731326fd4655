// AsyncDispatch: explicit-signal monitor synthesized by expresso-cpp
// (reproduction of PLDI'18 "Symbolic Reasoning for Automatic Signal Placement")
// monitor invariant: (0 <= size || !(size + (-1) * maxQueueSize <= -1 && size <= 0)) && (1 <= size || size + (-1) * maxQueueSize <= -1) && (size <= 0 || size + (-1) * maxQueueSize <= 0)
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>

class AsyncDispatch {
private:
  // shared monitor state
  const long maxQueueSize;
  long size = 0;
  bool stopped = false;

  std::mutex m_;
  static long mod_(long a, long b) { long r = a % b; return r < 0 ? r + b : r; }

  // predicate class c0: stopped || size < maxQueueSize
  std::condition_variable cv_c0_;

  // predicate class c1: stopped || 0 < size
  std::condition_variable cv_c1_;
public:
  explicit AsyncDispatch(long maxQueueSize_arg) : maxQueueSize(maxQueueSize_arg) {
  }

  void dispatch() {
    std::unique_lock<std::mutex> lock_(m_);
    while (!(size < maxQueueSize || stopped)) cv_c0_.wait(lock_);
    if (!stopped) {
      size = size + 1;
    }
    // lazy broadcast chain
    if ((stopped || (size < maxQueueSize))) cv_c0_.notify_one();
    if ((stopped || (0L < size))) cv_c1_.notify_one();
  }

  void take() {
    std::unique_lock<std::mutex> lock_(m_);
    while (!(size > 0 || stopped)) cv_c1_.wait(lock_);
    if (size > 0) {
      size = size - 1;
    }
    // lazy broadcast chain
    if ((stopped || (0L < size))) cv_c1_.notify_one();
    if ((stopped || (size < maxQueueSize))) cv_c0_.notify_one();
  }

  void stop() {
    std::unique_lock<std::mutex> lock_(m_);
    stopped = true;
    if ((stopped || (size < maxQueueSize))) cv_c0_.notify_one();
    if ((stopped || (0L < size))) cv_c1_.notify_one();
  }
};
