// AsyncDispatch: explicit-signal monitor synthesized by expresso-cpp (Java backend, paper §6)
// monitor invariant: (0 <= size || !(size + (-1) * maxQueueSize <= -1 && size <= 0)) && (1 <= size || size + (-1) * maxQueueSize <= -1) && (size <= 0 || size + (-1) * maxQueueSize <= 0)
import java.util.concurrent.locks.Condition;
import java.util.concurrent.locks.ReentrantLock;

public class AsyncDispatch {
  private final int maxQueueSize;
  private int size = 0;
  private boolean stopped = false;

  private final ReentrantLock lock = new ReentrantLock();
  // class c0: stopped || size < maxQueueSize
  private final Condition cond_c0 = lock.newCondition();
  // class c1: stopped || 0 < size
  private final Condition cond_c1 = lock.newCondition();

  public AsyncDispatch(int maxQueueSizeArg) {
    this.maxQueueSize = maxQueueSizeArg;
  }

  public void dispatch() {
    lock.lock();
    try {
      while (!(size < maxQueueSize || stopped)) cond_c0.awaitUninterruptibly();
      if (!stopped) {
        size = size + 1;
      }
      // lazy broadcast chain
      if ((stopped || (size < maxQueueSize))) cond_c0.signal();
      if ((stopped || (0 < size))) cond_c1.signal();
    } finally {
      lock.unlock();
    }
  }

  public void take() {
    lock.lock();
    try {
      while (!(size > 0 || stopped)) cond_c1.awaitUninterruptibly();
      if (size > 0) {
        size = size - 1;
      }
      // lazy broadcast chain
      if ((stopped || (0 < size))) cond_c1.signal();
      if ((stopped || (size < maxQueueSize))) cond_c0.signal();
    } finally {
      lock.unlock();
    }
  }

  public void stop() {
    lock.lock();
    try {
      stopped = true;
      if ((stopped || (size < maxQueueSize))) cond_c0.signal();
      if ((stopped || (0 < size))) cond_c1.signal();
    } finally {
      lock.unlock();
    }
  }
}
