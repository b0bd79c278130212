// Fig. 10 [Numerical]: speed-up of in-phase computation from the paper's
// straggler-mitigation strategy (Sec. IV-C).
//
// Task durations are drawn i.i.d. Pareto(alpha, 1); each data point averages
// the relative reduction of the phase completion time over 1000 runs, for
// N in {20, 200} — reproducing the paper's plot.  The paper highlights
// > 50% reduction at the production-typical alpha = 1.6.
#include <iostream>

#include "ssr/analysis/straggler_model.h"
#include "ssr/common/rng.h"
#include "ssr/common/table.h"
#include "ssr/exp/scenario.h"

int main(int argc, char** argv) {
  using namespace ssr;
  const BenchArgs args = BenchArgs::parse_or_exit(argc, argv);
  const std::size_t runs = 1000;

  std::cout << "Fig. 10: phase completion-time reduction from straggler "
               "mitigation\n("
            << runs << " Monte-Carlo runs per point, seed " << args.seed
            << ")\n\n";

  TablePrinter table({"alpha", "reduction N=20 (%)", "reduction N=200 (%)"});
  Rng rng(args.seed);
  for (double alpha = 1.1; alpha <= 4.0 + 1e-9; alpha += 0.29) {
    const ParetoModel model{alpha, 1.0};
    const double r20 = mean_completion_reduction(model, 20, runs, rng);
    const double r200 = mean_completion_reduction(model, 200, runs, rng);
    table.add_row({TablePrinter::num(alpha, 2),
                   TablePrinter::num(100.0 * r20, 1),
                   TablePrinter::num(100.0 * r200, 1)});
  }
  table.print(std::cout);
  std::cout << "\nShape check: heavier tails (small alpha) and higher\n"
               "parallelism benefit more; paper reports > 50% at alpha=1.6.\n";
  return 0;
}
