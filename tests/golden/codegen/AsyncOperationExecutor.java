// AsyncOperationExecutor: explicit-signal monitor synthesized by expresso-cpp (Java backend, paper §6)
// monitor invariant: 0 <= pending && pending + (-1) * maxPending <= 0
import java.util.concurrent.locks.Condition;
import java.util.concurrent.locks.ReentrantLock;

public class AsyncOperationExecutor {
  private final int maxPending;
  private int pending = 0;

  private final ReentrantLock lock = new ReentrantLock();
  // class c0: pending < maxPending
  private final Condition cond_c0 = lock.newCondition();
  // class c1: 0 < pending
  private final Condition cond_c1 = lock.newCondition();
  // class c2: 0 == pending
  private final Condition cond_c2 = lock.newCondition();

  public AsyncOperationExecutor(int maxPendingArg) {
    this.maxPending = maxPendingArg;
  }

  public void enqueue() {
    lock.lock();
    try {
      while (!(pending < maxPending)) cond_c0.awaitUninterruptibly();
      pending = pending + 1;
      cond_c1.signal();
    } finally {
      lock.unlock();
    }
  }

  public void complete() {
    lock.lock();
    try {
      while (!(pending > 0)) cond_c1.awaitUninterruptibly();
      pending = pending - 1;
      cond_c0.signal();
      if ((0 == pending)) cond_c2.signal();
    } finally {
      lock.unlock();
    }
  }

  public void waitToComplete() {
    lock.lock();
    try {
      while (!(pending == 0)) cond_c2.awaitUninterruptibly();
      ;
      // lazy broadcast chain
      if ((0 == pending)) cond_c2.signal();
    } finally {
      lock.unlock();
    }
  }
}
