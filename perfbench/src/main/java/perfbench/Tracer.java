package perfbench;

import java.util.ArrayList;
import repro.engine.ProgressiveResult;

/** In-memory span recorder for the traced run.
  *
  * <p>{@link TraceAgent} weaves {@code enter}/{@code exit} calls around the
  * public entry points of each program layer. A span has a name, start, end,
  * parent span and the action it belongs to. Spans are kept in memory and
  * written out when the run ends. A span opened on a thread with no open
  * span of its own (a Spark task thread, the scheduler thread) takes as
  * parent the innermost open span of the client thread, so leaf work hangs
  * under the execution tree that caused it.
  */
public final class Tracer {
  private Tracer() {}

  public static volatile boolean on = false;
  public static volatile int action = -1;

  private static final ArrayList<String> names = new ArrayList<>();

  public static synchronized int register(String name) {
    names.add(name);
    return names.size() - 1;
  }

  public static synchronized String name(int id) { return names.get(id); }

  /** One finished span. */
  public static final class Span {
    public final long id, parent, start, end;
    public final int name, action;
    public final String thread;
    /** Partials a progressive execution tree emitted, or 0. */
    public final int partials;
    Span(long id, long parent, int name, int action, String thread, long start, long end,
         int partials) {
      this.id = id; this.parent = parent; this.name = name; this.action = action;
      this.thread = thread; this.start = start; this.end = end; this.partials = partials;
    }
  }

  private static final class Frame {
    final long id, parent, start; final int name, epoch, action;
    Frame(long id, long parent, int name, long start, int epoch, int action) {
      this.id = id; this.parent = parent; this.name = name; this.start = start;
      this.epoch = epoch; this.action = action;
    }
  }

  private static final class Stack {
    Frame[] frames = new Frame[64];
    int size = 0;
    final boolean client;
    final String thread = Thread.currentThread().getName();
    Stack(boolean client) { this.client = client; }
  }

  private static final ThreadLocal<Stack> stacks = ThreadLocal.withInitial(() -> new Stack(false));
  private static volatile Thread clientThread = null;
  private static volatile long clientTop = 0L;
  private static volatile int epoch = 0;
  private static long nextId = 1L;
  private static final ArrayList<Span> spans = new ArrayList<>();

  private static synchronized long newId() { return nextId++; }

  /** Start recording; the calling thread is the client that issues actions. */
  public static synchronized void start() {
    clientThread = Thread.currentThread();
    stacks.set(new Stack(true));
    clientTop = 0L;
    epoch++;
    on = true;
  }

  public static synchronized void stop() { on = false; epoch++; }

  public static synchronized ArrayList<Span> drain() {
    ArrayList<Span> out = new ArrayList<>(spans);
    spans.clear();
    return out;
  }

  public static void enter(int name) {
    if (!on) return;
    Stack s = stacks.get();
    long parent = s.size > 0 ? s.frames[s.size - 1].id : (s.client ? 0L : clientTop);
    Frame f = new Frame(newId(), parent, name, System.nanoTime(), epoch, action);
    if (s.size == s.frames.length) s.frames = java.util.Arrays.copyOf(s.frames, s.size * 2);
    s.frames[s.size++] = f;
    if (s.client) clientTop = f.id;
  }

  public static void exit(int name) { exitWith(0, name); }

  /** Exit from {@code ExecutionTree.runProgressive}, which returns its partials. */
  public static void exitProgressive(ProgressiveResult<?> result, int name) {
    exitWith(result == null ? 0 : result.updates(), name);
  }

  private static void exitWith(int partials, int name) {
    if (!on) return;
    long end = System.nanoTime();
    Stack s = stacks.get();
    // Frames left open by an exception are dropped when an outer frame closes.
    int i = s.size - 1;
    while (i >= 0 && s.frames[i].name != name) i--;
    if (i < 0) return;
    Frame f = s.frames[i];
    s.size = i;
    if (s.client) clientTop = i > 0 ? s.frames[i - 1].id : 0L;
    if (f.epoch != epoch) return;
    Span span = new Span(f.id, f.parent, name, f.action, s.thread, f.start, end, partials);
    synchronized (Tracer.class) { spans.add(span); }
  }

  /** A span recorded by the benchmark itself around a call into a layer. */
  public static final class Scope implements AutoCloseable {
    private final int name;
    public Scope(int name) { this.name = name; enter(name); }
    @Override public void close() { exit(name); }
  }
}
