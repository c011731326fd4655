// SleepingBarber: explicit-signal monitor synthesized by expresso-cpp (Java backend, paper §6)
// monitor invariant: 0 <= waiting && waiting + (-1) * chairs <= 0 && 0 <= available
import java.util.concurrent.locks.Condition;
import java.util.concurrent.locks.ReentrantLock;

public class SleepingBarber {
  private final int chairs;
  private int waiting = 0;
  private int available = 0;

  private final ReentrantLock lock = new ReentrantLock();
  // class c0: waiting < chairs
  private final Condition cond_c0 = lock.newCondition();
  // class c1: 0 < available
  private final Condition cond_c1 = lock.newCondition();
  // class c2: 0 < waiting
  private final Condition cond_c2 = lock.newCondition();

  public SleepingBarber(int chairsArg) {
    this.chairs = chairsArg;
  }

  public void customer() {
    lock.lock();
    try {
      while (!(waiting < chairs)) cond_c0.awaitUninterruptibly();
      waiting = waiting + 1;
      cond_c2.signal();
      while (!(available > 0)) cond_c1.awaitUninterruptibly();
      available = available - 1;
    } finally {
      lock.unlock();
    }
  }

  public void barber() {
    lock.lock();
    try {
      while (!(waiting > 0)) cond_c2.awaitUninterruptibly();
      waiting = waiting - 1;
      available = available + 1;
      cond_c0.signal();
      cond_c1.signal();
    } finally {
      lock.unlock();
    }
  }
}
