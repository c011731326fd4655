// SimpleDecoder: explicit-signal monitor synthesized by expresso-cpp
// (reproduction of PLDI'18 "Symbolic Reasoning for Automatic Signal Placement")
// monitor invariant: 0 <= availIn
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>

class SimpleDecoder {
private:
  // shared monitor state
  const long inputBuffers;
  const long outputBuffers;
  long availIn = 0;
  long availOut = 0;
  long pending = 0;

  std::mutex m_;
  static long mod_(long a, long b) { long r = a % b; return r < 0 ? r + b : r; }

  // predicate class c0: 0 < availIn
  std::condition_variable cv_c0_;

  // predicate class c2: 0 < pending && 0 < availOut
  std::condition_variable cv_c2_;
public:
  explicit SimpleDecoder(long inputBuffers_arg, long outputBuffers_arg) : inputBuffers(inputBuffers_arg), outputBuffers(outputBuffers_arg) {
    availIn = inputBuffers;
    availOut = outputBuffers;
  }

  void dequeueInput() {
    std::unique_lock<std::mutex> lock_(m_);
    while (!(availIn > 0)) cv_c0_.wait(lock_);
    availIn = availIn - 1;
  }

  void queueInput() {
    std::unique_lock<std::mutex> lock_(m_);
    pending = pending + 1;
    if (((0L < pending) && (0L < availOut))) cv_c2_.notify_one();
  }

  void decodeOne() {
    std::unique_lock<std::mutex> lock_(m_);
    while (!(pending > 0 && availOut > 0)) cv_c2_.wait(lock_);
    pending = pending - 1;
    availOut = availOut - 1;
    availIn = availIn + 1;
    cv_c0_.notify_one();
  }

  void releaseOutput() {
    std::unique_lock<std::mutex> lock_(m_);
    availOut = availOut + 1;
    if (((0L < pending) && (0L < availOut))) cv_c2_.notify_one();
  }
};
