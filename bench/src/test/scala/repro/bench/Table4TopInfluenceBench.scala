package repro.bench

import repro.SparkSpec
import repro.exp.Tables

/** Reproduces paper Table 4: top-3 single-vertex influence spreads on BA_s
  * and BA_d under the four probability models.
  */
class Table4TopInfluenceBench extends SparkSpec {

  private lazy val rows = Tables.table4Cells(spark)

  test("print Table 4 rows") {
    Tables.render(4, Tables.table4Lines(rows)).foreach(println)
    assert(rows.size == 8)
  }

  test("top-3 values are sorted non-increasingly and at least 1") {
    rows.foreach { case (key, top) =>
      assert(top.size == 3, key)
      assert(top(0) >= top(1) && top(1) >= top(2), s"$key: $top")
      assert(top(2) >= 0.9, s"$key: $top") // a vertex influences at least itself
    }
  }

  test("IWC produces the largest top influence on both BA networks (paper shape)") {
    for (net <- Seq("BA_s", "BA_d")) {
      val iwc = rows((net, "IWC"))(0)
      assert(iwc > rows((net, "UC0.01"))(0), net)
      assert(iwc > rows((net, "OWC"))(0), net)
    }
  }

  test("UC0.01 keeps single-vertex influence near 1 (paper: 1.19 / 2.17)") {
    assert(rows(("BA_s", "UC0.01"))(0) < 3.0)
    assert(rows(("BA_d", "UC0.01"))(0) < 5.0)
  }

  test("BA_d tops BA_s under IWC (paper: 101.8 vs 21.4)") {
    assert(rows(("BA_d", "IWC"))(0) > rows(("BA_s", "IWC"))(0))
  }

  test("the IWC gap between first and second is clearly positive (Fig. 3 driver)") {
    for (net <- Seq("BA_s", "BA_d")) {
      val top = rows((net, "IWC"))
      assert(top(0) - top(1) > 0.0, s"$net: $top")
    }
  }
}
