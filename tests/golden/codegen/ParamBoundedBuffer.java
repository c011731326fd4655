// ParamBoundedBuffer: explicit-signal monitor synthesized by expresso-cpp (Java backend, paper §6)
// monitor invariant: true
import java.util.concurrent.locks.Condition;
import java.util.concurrent.locks.ReentrantLock;

public class ParamBoundedBuffer {
  private final int capacity;
  private int count = 0;

  private final ReentrantLock lock = new ReentrantLock();
  // class c0: count + $p0 <= capacity
  private static final class WaiterC0 {
    final Condition cv;
    boolean notified = false;
    int p0;
    WaiterC0(Condition cv) { this.cv = cv; }
  }
  private final java.util.ArrayDeque<WaiterC0> waiters_c0 = new java.util.ArrayDeque<>();
  // class c1: $p0 <= count
  private static final class WaiterC1 {
    final Condition cv;
    boolean notified = false;
    int p0;
    WaiterC1(Condition cv) { this.cv = cv; }
  }
  private final java.util.ArrayDeque<WaiterC1> waiters_c1 = new java.util.ArrayDeque<>();

  public ParamBoundedBuffer(int capacityArg) {
    this.capacity = capacityArg;
  }

  private void wakeC0(boolean checkPredicate, boolean all) {
    java.util.Iterator<WaiterC0> it = waiters_c0.iterator();
    while (it.hasNext()) {
      WaiterC0 w = it.next();
      if (checkPredicate && !((count + w.p0) <= capacity)) continue;
      w.notified = true;
      w.cv.signal();
      it.remove();
      if (!all) return;
    }
  }

  private void wakeC1(boolean checkPredicate, boolean all) {
    java.util.Iterator<WaiterC1> it = waiters_c1.iterator();
    while (it.hasNext()) {
      WaiterC1 w = it.next();
      if (checkPredicate && !(w.p0 <= count)) continue;
      w.notified = true;
      w.cv.signal();
      it.remove();
      if (!all) return;
    }
  }

  public void put(int n) {
    lock.lock();
    try {
      while (!(count + n <= capacity)) {
        WaiterC0 w = new WaiterC0(lock.newCondition());
        w.p0 = n;
        waiters_c0.addLast(w);
        while (!w.notified) w.cv.awaitUninterruptibly();
      }
      count = count + n;
      // lazy broadcast chain
      wakeC0(true, false);
      wakeC0(true, false);
      wakeC1(true, false);
    } finally {
      lock.unlock();
    }
  }

  public void take(int n) {
    lock.lock();
    try {
      while (!(count >= n)) {
        WaiterC1 w = new WaiterC1(lock.newCondition());
        w.p0 = n;
        waiters_c1.addLast(w);
        while (!w.notified) w.cv.awaitUninterruptibly();
      }
      count = count - n;
      // lazy broadcast chain
      wakeC1(true, false);
      wakeC0(true, false);
      wakeC1(true, false);
    } finally {
      lock.unlock();
    }
  }
}
