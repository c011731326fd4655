// TicketedRW: explicit-signal monitor synthesized by expresso-cpp (Java backend, paper §6)
// monitor invariant: 0 <= readers
import java.util.concurrent.locks.Condition;
import java.util.concurrent.locks.ReentrantLock;

public class TicketedRW {
  private int nextTicket = 0;
  private int nowServing = 0;
  private int readers = 0;
  private boolean writerIn = false;

  private final ReentrantLock lock = new ReentrantLock();
  // class c1: !writerIn && nowServing == $p0
  private static final class WaiterC1 {
    final Condition cv;
    boolean notified = false;
    int p0;
    WaiterC1(Condition cv) { this.cv = cv; }
  }
  private final java.util.ArrayDeque<WaiterC1> waiters_c1 = new java.util.ArrayDeque<>();
  // class c2: !writerIn && nowServing == $p0 && 0 == readers
  private static final class WaiterC2 {
    final Condition cv;
    boolean notified = false;
    int p0;
    WaiterC2(Condition cv) { this.cv = cv; }
  }
  private final java.util.ArrayDeque<WaiterC2> waiters_c2 = new java.util.ArrayDeque<>();

  public TicketedRW() {
  }

  private void wakeC1(boolean checkPredicate, boolean all) {
    java.util.Iterator<WaiterC1> it = waiters_c1.iterator();
    while (it.hasNext()) {
      WaiterC1 w = it.next();
      if (checkPredicate && !(!writerIn && (nowServing == w.p0))) continue;
      w.notified = true;
      w.cv.signal();
      it.remove();
      if (!all) return;
    }
  }

  private void wakeC2(boolean checkPredicate, boolean all) {
    java.util.Iterator<WaiterC2> it = waiters_c2.iterator();
    while (it.hasNext()) {
      WaiterC2 w = it.next();
      if (checkPredicate && !(!writerIn && (nowServing == w.p0) && (0 == readers))) continue;
      w.notified = true;
      w.cv.signal();
      it.remove();
      if (!all) return;
    }
  }

  public void enterReader() {
    lock.lock();
    try {
      int t = nextTicket;
      nextTicket = nextTicket + 1;
      while (!(nowServing == t && !writerIn)) {
        WaiterC1 w = new WaiterC1(lock.newCondition());
        w.p0 = t;
        waiters_c1.addLast(w);
        while (!w.notified) w.cv.awaitUninterruptibly();
      }
      readers = readers + 1;
      nowServing = nowServing + 1;
      wakeC1(true, false);
    } finally {
      lock.unlock();
    }
  }

  public void exitReader() {
    lock.lock();
    try {
      if (readers > 0) {
        readers = readers - 1;
      }
      wakeC2(true, false);
    } finally {
      lock.unlock();
    }
  }

  public void enterWriter() {
    lock.lock();
    try {
      int t = nextTicket;
      nextTicket = nextTicket + 1;
      while (!(nowServing == t && readers == 0 && !writerIn)) {
        WaiterC2 w = new WaiterC2(lock.newCondition());
        w.p0 = t;
        waiters_c2.addLast(w);
        while (!w.notified) w.cv.awaitUninterruptibly();
      }
      writerIn = true;
      nowServing = nowServing + 1;
    } finally {
      lock.unlock();
    }
  }

  public void exitWriter() {
    lock.lock();
    try {
      writerIn = false;
      wakeC1(true, false);
      wakeC2(true, false);
    } finally {
      lock.unlock();
    }
  }
}
