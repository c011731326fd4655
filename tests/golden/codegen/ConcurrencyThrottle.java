// ConcurrencyThrottle: explicit-signal monitor synthesized by expresso-cpp (Java backend, paper §6)
// monitor invariant: threadCount + (-1) * threadLimit <= 0
import java.util.concurrent.locks.Condition;
import java.util.concurrent.locks.ReentrantLock;

public class ConcurrencyThrottle {
  private final int threadLimit;
  private int threadCount = 0;

  private final ReentrantLock lock = new ReentrantLock();
  // class c0: threadCount < threadLimit
  private final Condition cond_c0 = lock.newCondition();

  public ConcurrencyThrottle(int threadLimitArg) {
    this.threadLimit = threadLimitArg;
  }

  public void beforeAccess() {
    lock.lock();
    try {
      while (!(threadCount < threadLimit)) cond_c0.awaitUninterruptibly();
      threadCount = threadCount + 1;
    } finally {
      lock.unlock();
    }
  }

  public void afterAccess() {
    lock.lock();
    try {
      threadCount = threadCount - 1;
      cond_c0.signal();
    } finally {
      lock.unlock();
    }
  }
}
