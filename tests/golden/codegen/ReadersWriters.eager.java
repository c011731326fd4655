// RWLock: explicit-signal monitor synthesized by expresso-cpp (Java backend, paper §6)
// monitor invariant: 0 <= readers
import java.util.concurrent.locks.Condition;
import java.util.concurrent.locks.ReentrantLock;

public class RWLock {
  private int readers = 0;
  private boolean writerIn = false;

  private final ReentrantLock lock = new ReentrantLock();
  // class c0: !writerIn
  private final Condition cond_c0 = lock.newCondition();
  // class c2: !writerIn && 0 == readers
  private final Condition cond_c2 = lock.newCondition();

  public RWLock() {
  }

  public void enterReader() {
    lock.lock();
    try {
      while (!(!writerIn)) cond_c0.awaitUninterruptibly();
      readers = readers + 1;
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
      if ((!writerIn && (0 == readers))) cond_c2.signal();
    } finally {
      lock.unlock();
    }
  }

  public void enterWriter() {
    lock.lock();
    try {
      while (!(readers == 0 && !writerIn)) cond_c2.awaitUninterruptibly();
      writerIn = true;
    } finally {
      lock.unlock();
    }
  }

  public void exitWriter() {
    lock.lock();
    try {
      writerIn = false;
      cond_c0.signalAll();
      if ((!writerIn && (0 == readers))) cond_c2.signal();
    } finally {
      lock.unlock();
    }
  }
}
