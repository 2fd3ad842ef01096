package org.apache.spark

/** Waits until Spark has delivered every queued listener event, so the
  * traced run's job and task log is complete before it is read. Lives in
  * Spark's package because the listener bus is package-private.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext, timeoutMs: Long = 30000L): Unit = sc.listenerBus.waitUntilEmpty(timeoutMs)
}
