// Fig. 1 [Cluster]: priority scheduling provides no service isolation.
//
// The paper runs KMeans (high priority) and SVM (low priority) on 4 m4.large
// instances (8 slots) with degree of parallelism 8, and finds KMeans slowed
// 3.9x when contending, despite its priority.  We reproduce the setup on the
// simulated cluster with the naive work-conserving scheduler (no SSR).
#include <iostream>

#include "ssr/common/table.h"
#include "ssr/exp/scenario.h"
#include "ssr/workload/adjust.h"
#include "ssr/workload/mlbench.h"

int main(int argc, char** argv) {
  using namespace ssr;
  const BenchArgs args = BenchArgs::parse_or_exit(argc, argv);

  const ClusterSpec cluster{.nodes = 4, .slots_per_node = 2};
  RunOptions options;
  options.seed = args.seed;

  // SVM at low priority with prolonged tasks plays the paper's background
  // role; both jobs use parallelism 8 (= cluster slots), so every barrier of
  // KMeans exposes slots to SVM.
  auto kmeans = [&] { return make_kmeans(8, /*priority=*/10, 0.0); };
  auto svm = [&] {
    JobSpec s = make_svm(8, /*priority=*/0, 0.0);
    return prolong(std::move(s), 4.0);  // long SVM epochs amplify reclaim cost
  };

  const double kmeans_alone = alone_jct(cluster, kmeans(), options);
  const double svm_alone = alone_jct(cluster, svm(), options);

  const RunResult both =
      run_scenario(cluster, [&] {
        std::vector<JobSpec> jobs;
        jobs.push_back(kmeans());
        jobs.push_back(svm());
        return jobs;
      }(), options);

  std::cout << "Fig. 1: two MLlib jobs on a 4-node / 8-slot cluster, "
               "priority scheduler, no SSR\n\n";
  TablePrinter table({"job", "priority", "alone JCT (s)",
                      "contended JCT (s)", "slowdown"});
  table.add_row({"kmeans (hi-prio)", "10", TablePrinter::num(kmeans_alone, 1),
                 TablePrinter::num(both.jct_of("kmeans"), 1),
                 TablePrinter::num(slowdown(both.jct_of("kmeans"), kmeans_alone), 2)});
  table.add_row({"svm (lo-prio)", "0", TablePrinter::num(svm_alone, 1),
                 TablePrinter::num(both.jct_of("svm"), 1),
                 TablePrinter::num(slowdown(both.jct_of("svm"), svm_alone), 2)});
  table.print(std::cout);
  std::cout << "\nShape check: the high-priority KMeans job suffers a large\n"
               "slowdown (the paper measured 3.9x) because each barrier\n"
               "hands its slots to SVM's long tasks.\n";
  return 0;
}
