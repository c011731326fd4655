// H2OBarrier: explicit-signal monitor synthesized by expresso-cpp (Java backend, paper §6)
// monitor invariant: hAvail + (-1) * maxPool <= 1
import java.util.concurrent.locks.Condition;
import java.util.concurrent.locks.ReentrantLock;

public class H2OBarrier {
  private final int maxPool;
  private int hAvail = 0;

  private final ReentrantLock lock = new ReentrantLock();
  // class c0: hAvail < maxPool
  private final Condition cond_c0 = lock.newCondition();
  // class c1: 2 <= hAvail
  private final Condition cond_c1 = lock.newCondition();

  public H2OBarrier(int maxPoolArg) {
    this.maxPool = maxPoolArg;
  }

  public void hydrogen() {
    lock.lock();
    try {
      while (!(hAvail < maxPool)) cond_c0.awaitUninterruptibly();
      hAvail = hAvail + 1;
      // lazy broadcast chain
      if ((hAvail < maxPool)) cond_c0.signal();
      if ((2 <= hAvail)) cond_c1.signal();
    } finally {
      lock.unlock();
    }
  }

  public void oxygen() {
    lock.lock();
    try {
      while (!(hAvail >= 2)) cond_c1.awaitUninterruptibly();
      hAvail = hAvail - 2;
      if ((hAvail < maxPool)) cond_c0.signal();
    } finally {
      lock.unlock();
    }
  }
}
