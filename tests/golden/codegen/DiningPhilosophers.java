// DiningPhilosophers: explicit-signal monitor synthesized by expresso-cpp (Java backend, paper §6)
// monitor invariant: true
import java.util.concurrent.locks.Condition;
import java.util.concurrent.locks.ReentrantLock;

public class DiningPhilosophers {
  private java.util.HashMap<Integer, Boolean> forks = new java.util.HashMap<>();

  private final ReentrantLock lock = new ReentrantLock();
  // class c0: !forks[$p0] && !forks[$p1]
  private static final class WaiterC0 {
    final Condition cv;
    boolean notified = false;
    int p0;
    int p1;
    WaiterC0(Condition cv) { this.cv = cv; }
  }
  private final java.util.ArrayDeque<WaiterC0> waiters_c0 = new java.util.ArrayDeque<>();

  public DiningPhilosophers() {
  }

  private void wakeC0(boolean checkPredicate, boolean all) {
    java.util.Iterator<WaiterC0> it = waiters_c0.iterator();
    while (it.hasNext()) {
      WaiterC0 w = it.next();
      if (checkPredicate && !(!forks.getOrDefault(w.p0, false) && !forks.getOrDefault(w.p1, false))) continue;
      w.notified = true;
      w.cv.signal();
      it.remove();
      if (!all) return;
    }
  }

  public void pickup(int left, int right) {
    lock.lock();
    try {
      while (!(!forks.getOrDefault(left, false) && !forks.getOrDefault(right, false))) {
        WaiterC0 w = new WaiterC0(lock.newCondition());
        w.p0 = left;
        w.p1 = right;
        waiters_c0.addLast(w);
        while (!w.notified) w.cv.awaitUninterruptibly();
      }
      forks.put(left, true);
      forks.put(right, true);
      // lazy broadcast chain
      wakeC0(true, false);
    } finally {
      lock.unlock();
    }
  }

  public void putdown(int left, int right) {
    lock.lock();
    try {
      forks.put(left, false);
      wakeC0(true, false);
      forks.put(right, false);
      wakeC0(true, false);
    } finally {
      lock.unlock();
    }
  }
}
