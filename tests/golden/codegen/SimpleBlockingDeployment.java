// SimpleBlockingDeployment: explicit-signal monitor synthesized by expresso-cpp (Java backend, paper §6)
// monitor invariant: true
import java.util.concurrent.locks.Condition;
import java.util.concurrent.locks.ReentrantLock;

public class SimpleBlockingDeployment {
  private boolean busy = false;

  private final ReentrantLock lock = new ReentrantLock();
  // class c0: !busy
  private final Condition cond_c0 = lock.newCondition();

  public SimpleBlockingDeployment() {
  }

  public void deploy() {
    lock.lock();
    try {
      while (!(!busy)) cond_c0.awaitUninterruptibly();
      busy = true;
    } finally {
      lock.unlock();
    }
  }

  public void release() {
    lock.lock();
    try {
      busy = false;
      cond_c0.signal();
    } finally {
      lock.unlock();
    }
  }
}
