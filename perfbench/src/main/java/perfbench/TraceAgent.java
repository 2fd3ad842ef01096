package perfbench;

import java.lang.instrument.ClassFileTransformer;
import java.lang.instrument.Instrumentation;
import java.security.ProtectionDomain;
import java.util.ArrayList;
import org.apache.xbean.asm9.ClassReader;
import org.apache.xbean.asm9.ClassVisitor;
import org.apache.xbean.asm9.ClassWriter;
import org.apache.xbean.asm9.MethodVisitor;
import org.apache.xbean.asm9.Opcodes;

/** Java agent of the traced run: weaves {@link Tracer} calls around the
  * public entry points of the program's layers, so spans sit at layer
  * boundaries without any change to the program's source.
  *
  * <p>The program's classes load unwoven. {@link #weave} retransforms them,
  * so a traced run can also measure the unchanged program, the reference
  * for the tracing overhead.
  *
  * <p>Only calls made once per table, tree, block or merge are traced,
  * never per-row helpers. Exits by exception are not woven; the tracer
  * drops the frames they leave open.
  */
public final class TraceAgent {
  private TraceAgent() {}

  private static Instrumentation inst;
  private static volatile boolean weaving = false;

  public static void premain(String args, Instrumentation instrumentation) {
    inst = instrumentation;
    inst.addTransformer(new Weaver(), true);
  }

  /** Weaves ({@code on}) or restores every loaded program class; classes
    * loaded later follow as they load.
    */
  public static synchronized void weave(boolean on) throws Exception {
    if (inst == null) throw new IllegalStateException("perfbench.TraceAgent is not loaded");
    weaving = on;
    ArrayList<Class<?>> loaded = new ArrayList<>();
    for (Class<?> c : inst.getAllLoadedClasses())
      if (c.getName().startsWith("repro.") && inst.isModifiableClass(c)) loaded.add(c);
    inst.retransformClasses(loaded.toArray(new Class<?>[0]));
  }

  /** Span name for method {@code m} of class {@code cls}, or null if untraced. */
  static String spanName(String cls, String m, int access, String desc) {
    if ((access & (Opcodes.ACC_BRIDGE | Opcodes.ACC_SYNTHETIC | Opcodes.ACC_ABSTRACT)) != 0) return null;
    if (m.indexOf('$') >= 0 || m.startsWith("<")) return null;
    String simple = cls.substring(cls.lastIndexOf('/') + 1).replace("$", "");
    switch (cls) {
      case "repro/data/Flights$":
        return m.equals("gen") ? "data." + simple + "." + m : null;
      case "repro/storage/ColumnStore$":
        return m.equals("fromDataFrame") || m.equals("buildBlock") ? "storage." + simple + "." + m : null;
      case "repro/storage/CachedTable":
        return m.equals("filter") || m.equals("warm") || m.equals("drop") ? "storage." + simple + "." + m : null;
      case "repro/storage/MembershipSet$":
        return m.equals("from") ? "storage." + simple + "." + m : null;
      case "repro/engine/ExecutionTree$":
        return m.equals("run") || m.equals("runProgressive") ? "engine." + simple + "." + m : null;
      case "repro/engine/ComputationCache":
        return m.equals("getOrCompute") ? "engine." + simple + "." + m : null;
      case "repro/core/Serde$":
        return m.equals("sizeOf") ? "engine.Serde." + m : null;
      case "repro/spreadsheet/Spreadsheet":
        // Public actions; field accessors take no arguments.
        return (access & Opcodes.ACC_PUBLIC) != 0 && !desc.startsWith("()")
            ? "spreadsheet." + simple + "." + m : null;
      default:
        if (cls.startsWith("repro/core/") && (m.equals("summarize") || m.equals("merge"))
            && (access & Opcodes.ACC_STATIC) == 0)
          return "core." + simple + "." + m;
        return null;
    }
  }

  private static final class Weaver implements ClassFileTransformer {
    @Override
    public byte[] transform(ClassLoader loader, String cls, Class<?> redefined,
                            ProtectionDomain pd, byte[] bytes) {
      if (!weaving || cls == null || !cls.startsWith("repro/")) return null;
      try {
        ClassReader reader = new ClassReader(bytes);
        ClassWriter writer = new ClassWriter(reader, ClassWriter.COMPUTE_MAXS);
        boolean[] woven = {false};
        reader.accept(new ClassVisitor(Opcodes.ASM9, writer) {
          @Override
          public MethodVisitor visitMethod(int access, String m, String desc, String sig, String[] ex) {
            MethodVisitor mv = super.visitMethod(access, m, desc, sig, ex);
            String span = spanName(cls, m, access, desc);
            if (span == null) return mv;
            woven[0] = true;
            return new SpanAdapter(mv, Tracer.register(span), span.equals(PROGRESSIVE));
          }
        }, 0);
        return woven[0] ? writer.toByteArray() : null;
      } catch (Throwable t) {
        System.err.println("perfbench: cannot trace " + cls + ": " + t);
        return null;
      }
    }
  }

  /** The one traced method whose result the tracer reads: its partials. */
  private static final String PROGRESSIVE = "engine.ExecutionTree.runProgressive";

  /** Calls Tracer.enter on entry and Tracer.exit before every return. */
  private static final class SpanAdapter extends MethodVisitor {
    private final int id;
    private final boolean progressive;

    SpanAdapter(MethodVisitor mv, int id, boolean progressive) {
      super(Opcodes.ASM9, mv);
      this.id = id;
      this.progressive = progressive;
    }

    private void pushId() {
      if (id <= Short.MAX_VALUE) super.visitIntInsn(Opcodes.SIPUSH, id);
      else super.visitLdcInsn(id);
    }

    @Override
    public void visitCode() {
      super.visitCode();
      pushId();
      super.visitMethodInsn(Opcodes.INVOKESTATIC, "perfbench/Tracer", "enter", "(I)V", false);
    }

    @Override
    public void visitInsn(int opcode) {
      if (progressive && opcode == Opcodes.ARETURN) {
        super.visitInsn(Opcodes.DUP);
        pushId();
        super.visitMethodInsn(Opcodes.INVOKESTATIC, "perfbench/Tracer", "exitProgressive",
            "(Lrepro/engine/ProgressiveResult;I)V", false);
      } else if (opcode >= Opcodes.IRETURN && opcode <= Opcodes.RETURN) {
        pushId();
        super.visitMethodInsn(Opcodes.INVOKESTATIC, "perfbench/Tracer", "exit", "(I)V", false);
      }
      super.visitInsn(opcode);
    }
  }
}
