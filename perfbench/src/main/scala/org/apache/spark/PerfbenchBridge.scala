package org.apache.spark

/** Access to the listener bus drain, which Spark keeps package-private: the
  * benchmark reads its listener's totals only after every task-end event of
  * a stage has been delivered.
  */
object PerfbenchBridge {
  def drainListeners(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
