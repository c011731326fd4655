// SimpleDecoder: explicit-signal monitor synthesized by expresso-cpp (Java backend, paper §6)
// monitor invariant: 0 <= availIn
import java.util.concurrent.locks.Condition;
import java.util.concurrent.locks.ReentrantLock;

public class SimpleDecoder {
  private final int inputBuffers;
  private final int outputBuffers;
  private int availIn = 0;
  private int availOut = 0;
  private int pending = 0;

  private final ReentrantLock lock = new ReentrantLock();
  // class c0: 0 < availIn
  private final Condition cond_c0 = lock.newCondition();
  // class c2: 0 < pending && 0 < availOut
  private final Condition cond_c2 = lock.newCondition();

  public SimpleDecoder(int inputBuffersArg, int outputBuffersArg) {
    this.inputBuffers = inputBuffersArg;
    this.outputBuffers = outputBuffersArg;
    availIn = inputBuffers;
    availOut = outputBuffers;
  }

  public void dequeueInput() {
    lock.lock();
    try {
      while (!(availIn > 0)) cond_c0.awaitUninterruptibly();
      availIn = availIn - 1;
    } finally {
      lock.unlock();
    }
  }

  public void queueInput() {
    lock.lock();
    try {
      pending = pending + 1;
      if (((0 < pending) && (0 < availOut))) cond_c2.signal();
    } finally {
      lock.unlock();
    }
  }

  public void decodeOne() {
    lock.lock();
    try {
      while (!(pending > 0 && availOut > 0)) cond_c2.awaitUninterruptibly();
      pending = pending - 1;
      availOut = availOut - 1;
      availIn = availIn + 1;
      cond_c0.signal();
    } finally {
      lock.unlock();
    }
  }

  public void releaseOutput() {
    lock.lock();
    try {
      availOut = availOut + 1;
      if (((0 < pending) && (0 < availOut))) cond_c2.signal();
    } finally {
      lock.unlock();
    }
  }
}
