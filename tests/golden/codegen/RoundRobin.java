// RoundRobin: explicit-signal monitor synthesized by expresso-cpp (Java backend, paper §6)
// monitor invariant: true
import java.util.concurrent.locks.Condition;
import java.util.concurrent.locks.ReentrantLock;

public class RoundRobin {
  private final int n;
  private int turn = 0;

  private final ReentrantLock lock = new ReentrantLock();
  // class c0: turn == $p0
  private static final class WaiterC0 {
    final Condition cv;
    boolean notified = false;
    int p0;
    WaiterC0(Condition cv) { this.cv = cv; }
  }
  private final java.util.ArrayDeque<WaiterC0> waiters_c0 = new java.util.ArrayDeque<>();

  public RoundRobin(int nArg) {
    this.n = nArg;
  }

  private void wakeC0(boolean checkPredicate, boolean all) {
    java.util.Iterator<WaiterC0> it = waiters_c0.iterator();
    while (it.hasNext()) {
      WaiterC0 w = it.next();
      if (checkPredicate && !(turn == w.p0)) continue;
      w.notified = true;
      w.cv.signal();
      it.remove();
      if (!all) return;
    }
  }

  public void access(int id) {
    lock.lock();
    try {
      while (!(turn == id)) {
        WaiterC0 w = new WaiterC0(lock.newCondition());
        w.p0 = id;
        waiters_c0.addLast(w);
        while (!w.notified) w.cv.awaitUninterruptibly();
      }
      turn = turn + 1;
      if (turn == n) {
        turn = 0;
      }
      // lazy broadcast chain
      wakeC0(true, false);
      wakeC0(true, false);
    } finally {
      lock.unlock();
    }
  }
}
