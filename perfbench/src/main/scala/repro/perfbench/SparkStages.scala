package repro.perfbench

import org.apache.spark.{PerfbenchBridge, SparkContext}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import scala.collection.mutable

/** Counts Spark task work per benchmark stage. Each stage runs its jobs
  * under a job group named after it (`extract`, `solve`, `tables`, `pb`,
  * `gb`, ...); the listener maps every task back to its job's group and sums
  * executor run time, shuffle bytes and tasks.
  */
final class SparkStages extends SparkListener {
  import SparkStages.Totals

  private val stageGroup = mutable.Map.empty[Int, String]
  private val totals     = mutable.Map.empty[String, Totals]

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val group = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).getOrElse("other")
    e.stageIds.foreach(stageGroup(_) = group)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    if (m != null) {
      val g = stageGroup.getOrElse(e.stageId, "other")
      val t = totals.getOrElse(g, Totals(0, 0, 0, 0))
      totals(g) = Totals(
        t.busyMs + m.executorRunTime,
        t.shuffleWriteBytes + m.shuffleWriteMetrics.bytesWritten,
        t.shuffleReadBytes + m.shuffleReadMetrics.totalBytesRead,
        t.tasks + 1,
      )
    }
  }

  /** Totals per group since the last call; waits for pending events first. */
  def takeTotals(sc: SparkContext): Map[String, Totals] = {
    PerfbenchBridge.drainListeners(sc)
    synchronized { val r = totals.toMap; totals.clear(); r }
  }
}

object SparkStages {
  final case class Totals(busyMs: Double, shuffleWriteBytes: Double, shuffleReadBytes: Double, tasks: Int)

  /** Run `f` with its Spark jobs in job group `stage`. */
  def inStage[A](sc: SparkContext, stage: String)(f: => A): A = {
    sc.setJobGroup(stage, stage)
    try f finally sc.clearJobGroup()
  }
}
