// RWLock: explicit-signal monitor synthesized by expresso-cpp
// (reproduction of PLDI'18 "Symbolic Reasoning for Automatic Signal Placement")
// monitor invariant: 0 <= readers
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>

class RWLock {
private:
  // shared monitor state
  long readers = 0;
  bool writerIn = false;

  std::mutex m_;
  static long mod_(long a, long b) { long r = a % b; return r < 0 ? r + b : r; }

  // predicate class c0: !writerIn
  std::condition_variable cv_c0_;

  // predicate class c2: !writerIn && 0 == readers
  std::condition_variable cv_c2_;
public:
  explicit RWLock() {
  }

  void enterReader() {
    std::unique_lock<std::mutex> lock_(m_);
    while (!(!writerIn)) cv_c0_.wait(lock_);
    readers = readers + 1;
  }

  void exitReader() {
    std::unique_lock<std::mutex> lock_(m_);
    if (readers > 0) {
      readers = readers - 1;
    }
    if ((!writerIn && (0L == readers))) cv_c2_.notify_one();
  }

  void enterWriter() {
    std::unique_lock<std::mutex> lock_(m_);
    while (!(readers == 0 && !writerIn)) cv_c2_.wait(lock_);
    writerIn = true;
  }

  void exitWriter() {
    std::unique_lock<std::mutex> lock_(m_);
    writerIn = false;
    cv_c0_.notify_all();
    if ((!writerIn && (0L == readers))) cv_c2_.notify_one();
  }
};
