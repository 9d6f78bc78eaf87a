package org.apache.spark

/** Reaches the package-private listener bus so the benchmark can wait for
  * its queued events before reading what its listener collected.
  */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
