// PendingPostQueue: explicit-signal monitor synthesized by expresso-cpp (Java backend, paper §6)
// monitor invariant: 0 <= size
import java.util.concurrent.locks.Condition;
import java.util.concurrent.locks.ReentrantLock;

public class PendingPostQueue {
  private int size = 0;

  private final ReentrantLock lock = new ReentrantLock();
  // class c1: 0 < size
  private final Condition cond_c1 = lock.newCondition();

  public PendingPostQueue() {
  }

  public void enqueue() {
    lock.lock();
    try {
      size = size + 1;
      cond_c1.signal();
    } finally {
      lock.unlock();
    }
  }

  public void poll() {
    lock.lock();
    try {
      while (!(size > 0)) cond_c1.awaitUninterruptibly();
      size = size - 1;
    } finally {
      lock.unlock();
    }
  }
}
