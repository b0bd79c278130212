// The policy zoo (DESIGN.md §14): one registry mapping policy names to
// RunOptions wiring, shared by the `--policy` CLI flag, the cross-policy
// shoot-out bench, and the per-policy differential / chaos / golden test
// legs — so every consumer agrees on what, say, "table" means.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ssr/exp/scenario.h"
#include "ssr/sched/policies/table_driven.h"

namespace ssr {

enum class ZooPolicy {
  kBaseline,     ///< work-conserving scheduler, no reservations (Sec. II)
  kSsr,          ///< speculative slot reservation (the paper's mechanism)
  kDagps,        ///< DAGPS/Graphene critical-path-first selector
  kPacking,      ///< multi-resource packing selector (big-first, best-fit)
  kTableDriven,  ///< table-driven time-partitioned reservations (litmus-rt)
};

/// Every policy, in the fixed order the shoot-out bench and the test legs
/// iterate (stable: bench record names and golden files key off it).
const std::vector<ZooPolicy>& all_zoo_policies();

/// Short stable name: "baseline", "ssr", "dagps", "packing", "table".
const char* zoo_policy_name(ZooPolicy policy);

/// Inverse of zoo_policy_name; nullopt for unknown names.
std::optional<ZooPolicy> parse_zoo_policy(const std::string& name);

/// The default timetable the zoo's table-driven baseline runs: a 60 s major
/// cycle whose window [0, 45) (75% duty) holds a fifth of the cluster's
/// slots (at least one) for jobs with priority >= 1.
TableDrivenConfig default_table_config(const ClusterSpec& cluster);

/// Wire `options` to run under `policy`: clears any previous policy choice
/// (ssr / hook_factory / selector), then installs the policy's own.  The
/// cluster spec sizes the table-driven carve-out.
void apply_zoo_policy(ZooPolicy policy, const ClusterSpec& cluster,
                      RunOptions& options);

}  // namespace ssr
