// BoundedBuffer: explicit-signal monitor synthesized by expresso-cpp (Java backend, paper §6)
// monitor invariant: 0 <= count && count + (-1) * capacity <= 0
import java.util.concurrent.locks.Condition;
import java.util.concurrent.locks.ReentrantLock;

public class BoundedBuffer {
  private final int capacity;
  private int count = 0;

  private final ReentrantLock lock = new ReentrantLock();
  // class c0: count < capacity
  private final Condition cond_c0 = lock.newCondition();
  // class c1: 0 < count
  private final Condition cond_c1 = lock.newCondition();

  public BoundedBuffer(int capacityArg) {
    this.capacity = capacityArg;
  }

  public void put() {
    lock.lock();
    try {
      while (!(count < capacity)) cond_c0.awaitUninterruptibly();
      count = count + 1;
      cond_c1.signal();
    } finally {
      lock.unlock();
    }
  }

  public void take() {
    lock.lock();
    try {
      while (!(count > 0)) cond_c1.awaitUninterruptibly();
      count = count - 1;
      cond_c0.signal();
    } finally {
      lock.unlock();
    }
  }
}
