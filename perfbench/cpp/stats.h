// Sample summaries the benchmark reports.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <vector>

namespace perfbench {

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for
/// an empty one.
double Quantile(std::vector<double> values, double q);

double Median(const std::vector<double>& values);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
