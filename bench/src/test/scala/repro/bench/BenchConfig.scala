package repro.bench

import repro.data.NetworkGen
import repro.harness.Defaults

/** Scale factors and caps shared by all benchmark suites: the program's
  * [[Defaults]], overridable with -DbenchSf.<name>=… and
  * -DbenchMaxInteractions=… for larger runs.
  */
object BenchConfig {
  def sfFor(dataset: String): Double =
    sys.props.get(s"benchSf.$dataset").map(_.toDouble).getOrElse(Defaults.sf(dataset))

  val maxInteractions: Int =
    sys.props.get("benchMaxInteractions").map(_.toInt).getOrElse(Defaults.maxInteractions)

  val all: Seq[(NetworkGen.NetSpec, Double)] = NetworkGen.all.map(spec => spec -> sfFor(spec.name))
}
