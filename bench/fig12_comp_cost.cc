// Regenerates Figure 12(a–c): client computation cost (in Cost_h units)
// versus selectivity for X = Cost_s/Cost_h in {5, 10, 100}.
//
// Analytical side: formula (10) and the Appendix at T_R = 1M.
// Measured side: real verifier runs over a VBT_BENCH_TUPLES-row table;
// operation counts (hashes / combines / signature recoveries) are
// captured with CryptoCounters and weighted into the same Cost_h units.
#include "bench/bench_util.h"
#include "costmodel/cost_model.h"

using namespace vbtree;

int main() {
  size_t n = bench::MeasuredTuples(20000);
  auto table = bench::BuildBenchTable(n, 10, 20);
  if (table == nullptr) return 1;

  // One measured verification per selectivity; the counters are then
  // reweighted for each X (the operation mix does not depend on X).
  struct Measured {
    CryptoCounters vb, naive;
  };
  std::vector<int> sels = {20, 40, 60, 80, 100};
  std::vector<Measured> measured;
  for (int sel : sels) {
    SelectQuery q;
    q.table = "t";
    q.range = KeyRange{0, static_cast<int64_t>(sel / 100.0 * n) - 1};

    Measured m;
    {
      auto out = table->tree->ExecuteSelect(q, table->Fetcher());
      if (!out.ok()) return 1;
      SimRecoverer rec(table->signer->key_material(), &m.vb);
      const DigestSchema ds = table->MakeDigestSchema();
      Verifier v(ds, &rec);
      v.set_counters(&m.vb);
      if (!v.VerifySelect(q, out->rows, out->vo).ok()) return 1;
    }
    {
      auto out = table->naive->ExecuteSelect(q);
      if (!out.ok()) return 1;
      SimRecoverer rec(table->signer->key_material(), &m.naive);
      NaiveVerifier v(table->MakeDigestSchema(), &rec);
      v.set_counters(&m.naive);
      if (!v.VerifySelect(q, out->rows, out->auth).ok()) return 1;
    }
    measured.push_back(m);
  }

  for (double x : {5.0, 10.0, 100.0}) {
    bench::PrintHeader(
        "Figure 12(" +
            std::string(1, "abc"[x == 5 ? 0 : (x == 10 ? 1 : 2)]) +
            ") — Computation cost vs selectivity, X = " +
            std::to_string(static_cast<int>(x)),
        "cost in Cost_h units; analytical @1M (x1e6) | measured @" +
            std::to_string(n) + " (x1e3); Cost_k/Cost_h = 10");
    std::printf("%6s | %14s %14s | %14s %14s | %12s\n", "sel%", "Naive(M)",
                "VB-tree(M)", "Naive(k)", "VB-tree(k)", "decrypts N/VB");

    for (size_t i = 0; i < sels.size(); ++i) {
      costmodel::CostParams p;
      p.cost_s = x;
      p.result_tuples = (sels[i] / 100.0) * p.num_tuples;
      double model_naive = costmodel::NaiveCompCost(p) / 1e6;
      double model_vb = costmodel::VBCompCost(p) / 1e6;

      const Measured& m = measured[i];
      double meas_naive = m.naive.CostUnits(10, x) / 1e3;
      double meas_vb = m.vb.CostUnits(10, x) / 1e3;
      std::printf("%6d | %14.2f %14.2f | %14.2f %14.2f | %6llu/%llu\n",
                  sels[i], model_naive, model_vb, meas_naive, meas_vb,
                  static_cast<unsigned long long>(m.naive.recovers),
                  static_cast<unsigned long long>(m.vb.recovers));
    }
  }
  std::printf(
      "\nExpected shape (paper): VB-tree below Naive, widening with X —\n"
      "Naive decrypts one signature per result tuple, the VB-tree only\n"
      "O(subtree boundary) many. Note (EXPERIMENTS.md): measured combine\n"
      "counts include per-leaf digest folds the paper's model elides, so\n"
      "the measured advantage emerges for X >~ 10 and is decisive at 100.\n");
  return 0;
}
