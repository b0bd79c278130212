#include "ssr/sched/virtual_cluster.h"

#include <algorithm>
#include <utility>

#include "ssr/common/check.h"
#include "ssr/sim/cluster.h"

namespace ssr {

VirtualClusterManager::VirtualClusterManager(Engine& engine)
    : engine_(engine) {
  engine_.add_observer(this);
}

void VirtualClusterManager::add_cluster(VirtualClusterSpec spec) {
  SSR_CHECK_MSG(!spec.name.empty(), "virtual cluster needs a name");
  SSR_CHECK_MSG(!by_name_.contains(spec.name),
                "duplicate virtual cluster: " << spec.name);
  SSR_CHECK_MSG(spec.max_slots >= 1, "virtual cluster " << spec.name
                                                        << ": max share must "
                                                           "be >= 1 slot");
  SSR_CHECK_MSG(spec.max_slots >= spec.min_slots,
                "virtual cluster " << spec.name
                                   << ": max share below guaranteed minimum");
  by_name_.emplace(spec.name,
                   static_cast<std::uint32_t>(tenants_.size()));
  auto t = std::make_unique<Tenant>();
  t->spec = std::move(spec);
  tenants_.push_back(std::move(t));
  check_share_conservation();
}

void VirtualClusterManager::resize(const std::string& name,
                                   std::uint32_t new_min,
                                   std::uint32_t new_max) {
  Tenant& t = tenant(name);
  SSR_CHECK_MSG(new_max >= 1 && new_max >= new_min,
                "virtual cluster " << name << ": invalid share bounds");
  for (const QueuedJob& q : t.queue) {
    // A queued head that can never fit would wedge the FIFO queue forever;
    // shrinking keeps the liveness invariant by refusing to strand work.
    SSR_CHECK_MSG(slot_demand(q.spec) <= new_max,
                  "virtual cluster " << name
                                     << ": resize below a queued job's demand");
  }
  t.spec.min_slots = new_min;
  t.spec.max_slots = new_max;
  check_share_conservation();
  pump(t);
}

void VirtualClusterManager::transfer(const std::string& from,
                                     const std::string& to,
                                     std::uint32_t slots) {
  SSR_CHECK_MSG(from != to, "transfer needs two distinct virtual clusters");
  Tenant& src = tenant(from);
  Tenant& dst = tenant(to);
  SSR_CHECK_MSG(src.spec.min_slots >= slots && src.spec.max_slots > slots,
                "virtual cluster " << from << ": cannot give away " << slots
                                   << " slots");
  for (const QueuedJob& q : src.queue) {
    SSR_CHECK_MSG(slot_demand(q.spec) <= src.spec.max_slots - slots,
                  "virtual cluster "
                      << from << ": transfer below a queued job's demand");
  }
  src.spec.min_slots -= slots;
  src.spec.max_slots -= slots;
  dst.spec.min_slots += slots;
  dst.spec.max_slots += slots;
  check_share_conservation();
  pump(dst);
}

std::uint32_t VirtualClusterManager::slot_demand(const JobSpec& spec) const {
  std::uint32_t widest = 0;
  for (const StageSpec& stage : spec.stages) {
    widest = std::max(widest, stage.num_tasks);
  }
  return std::min(widest, engine_.cluster().num_slots());
}

AdmissionOutcome VirtualClusterManager::submit_job(const std::string& name,
                                                   JobSpec spec) {
  Tenant& t = tenant(name);
  t.stats.submitted += 1;
  const std::uint32_t demand = slot_demand(spec);
  if (demand > t.spec.max_slots) {
    // Can never fit the share, so queueing it would wedge the FIFO head.
    t.stats.rejected += 1;
    return AdmissionOutcome::Rejected;
  }
  // A fitting job never overtakes an earlier queued one: admission within a
  // tenant is strictly FIFO, so a non-empty queue sends everything to the
  // back regardless of fit.
  if (t.queue.empty() && fits(t, demand)) {
    admit(t, std::move(spec), engine_.now(), /*from_queue=*/false);
    return AdmissionOutcome::Admitted;
  }
  if (!t.spec.queue_when_full) {
    t.stats.rejected += 1;
    return AdmissionOutcome::Rejected;
  }
  t.stats.queued_total += 1;
  t.queue.push_back(QueuedJob{std::move(spec), engine_.now()});
  return AdmissionOutcome::Queued;
}

void VirtualClusterManager::admit(Tenant& t, JobSpec spec,
                                  SimTime requested_at, bool from_queue) {
  const SimTime now = engine_.now();
  const std::uint32_t demand = slot_demand(spec);
  spec.submit_time = now;  // admission instant, not request instant
  spec.tenant = t.spec.name;
  const JobId id = engine_.submit(std::move(spec));

  t.stats.admitted += 1;
  t.stats.jobs_in_flight += 1;
  t.stats.demand_in_flight += demand;
  t.stats.peak_demand_in_flight =
      std::max(t.stats.peak_demand_in_flight, t.stats.demand_in_flight);
  const double delay = now - requested_at;
  t.stats.total_queue_delay += delay;
  t.stats.max_queue_delay = std::max(t.stats.max_queue_delay, delay);
  // The share bound is the invariant the whole layer exists for; check it on
  // every admission rather than trusting fits()'s arithmetic.
  SSR_CHECK_MSG(t.stats.demand_in_flight <= t.spec.max_slots,
                "virtual cluster " << t.spec.name
                                   << ": admission overran the max share");

  job_tenant_.emplace(id.v, by_name_.at(t.spec.name));
  admission_log_.push_back(AdmissionRecord{
      t.spec.name, id, demand, requested_at, now, from_queue,
      t.stats.demand_in_flight, t.spec.max_slots});
}

void VirtualClusterManager::pump(Tenant& t) {
  while (!t.queue.empty() && fits(t, slot_demand(t.queue.front().spec))) {
    QueuedJob next = std::move(t.queue.front());
    t.queue.pop_front();
    admit(t, std::move(next.spec), next.requested_at, /*from_queue=*/true);
  }
}

void VirtualClusterManager::on_job_finished(const Engine& engine, JobId job) {
  const auto it = job_tenant_.find(job.v);
  if (it == job_tenant_.end()) return;  // unmetered job (mixed-mode run)
  Tenant& t = *tenants_.at(it->second);
  const std::uint32_t demand =
      slot_demand(engine.graph(job).spec());
  SSR_CHECK_MSG(t.stats.jobs_in_flight >= 1 &&
                    t.stats.demand_in_flight >= demand,
                "virtual cluster " << t.spec.name
                                   << ": completion under-run (double "
                                      "on_job_finished?)");
  t.stats.jobs_in_flight -= 1;
  t.stats.demand_in_flight -= demand;
  t.stats.completed += 1;
  t.stats.total_jct += engine.jct(job);
  completion_log_.push_back(
      CompletionRecord{t.spec.name, job, demand, engine.now()});
  pump(t);
}

void VirtualClusterManager::on_run_complete(const Engine&) {
  for (const auto& t : tenants_) {
    SSR_CHECK_MSG(t->queue.empty(),
                  "virtual cluster "
                      << t->spec.name << ": " << t->queue.size()
                      << " queued jobs were never admitted (liveness "
                         "violation — a queued head stopped fitting)");
  }
}

std::vector<std::string> VirtualClusterManager::tenant_names() const {
  std::vector<std::string> names;
  names.reserve(tenants_.size());
  for (const auto& t : tenants_) names.push_back(t->spec.name);
  return names;
}

const VirtualClusterSpec& VirtualClusterManager::spec(
    const std::string& name) const {
  return tenant(name).spec;
}

const TenantStats& VirtualClusterManager::stats(
    const std::string& name) const {
  return tenant(name).stats;
}

std::uint32_t VirtualClusterManager::queued_jobs(
    const std::string& name) const {
  return static_cast<std::uint32_t>(tenant(name).queue.size());
}

bool VirtualClusterManager::all_queues_empty() const {
  for (const auto& t : tenants_) {
    if (!t->queue.empty()) return false;
  }
  return true;
}

const std::string* VirtualClusterManager::tenant_of(JobId job) const {
  const auto it = job_tenant_.find(job.v);
  if (it == job_tenant_.end()) return nullptr;
  return &tenants_.at(it->second)->spec.name;
}

VirtualClusterManager::Tenant& VirtualClusterManager::tenant(
    const std::string& name) {
  const auto it = by_name_.find(name);
  SSR_CHECK_MSG(it != by_name_.end(), "unknown virtual cluster: " << name);
  return *tenants_.at(it->second);
}

const VirtualClusterManager::Tenant& VirtualClusterManager::tenant(
    const std::string& name) const {
  const auto it = by_name_.find(name);
  SSR_CHECK_MSG(it != by_name_.end(), "unknown virtual cluster: " << name);
  return *tenants_.at(it->second);
}

void VirtualClusterManager::check_share_conservation() const {
  std::uint64_t guaranteed = 0;
  for (const auto& t : tenants_) guaranteed += t->spec.min_slots;
  SSR_CHECK_MSG(guaranteed <= engine_.cluster().num_slots(),
                "guaranteed tenant minima (" << guaranteed
                                             << " slots) exceed the physical "
                                                "cluster ("
                                             << engine_.cluster().num_slots()
                                             << " slots)");
}

}  // namespace ssr
