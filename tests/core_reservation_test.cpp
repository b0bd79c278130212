// Tests for the speculative-slot-reservation core: Algorithm 1 (all three
// parallelism cases), the ApprovalLogic, the reservation deadline knob
// (Sec. IV-B) and straggler mitigation (Sec. IV-C).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "ssr/audit/invariant_auditor.h"
#include "ssr/common/check.h"
#include "ssr/core/reservation_manager.h"
#include "ssr/exp/trace_replay.h"
#include "ssr/sched/engine.h"

namespace ssr {
namespace {

SchedConfig quick_sched() {
  SchedConfig c;
  c.locality_wait = 3.0;
  c.locality_slowdown = 5.0;
  return c;
}

std::unique_ptr<ReservationManager> make_ssr(SsrConfig cfg = {}) {
  return std::make_unique<ReservationManager>(cfg);
}

/// The Sec. II pathology scenario: 2 slots; fg job with a skewed phase 1
/// ([5, 10]) and a phase 2; bg job with long tasks arriving at t=1.
struct Pathology {
  static constexpr double kBgTask = 100.0;

  explicit Pathology(std::optional<SsrConfig> ssr) : engine(quick_sched(), 1, 2, 1) {
    if (ssr) engine.set_reservation_hook(make_ssr(*ssr));
    fg = engine.submit(JobBuilder("fg")
                           .priority(10)
                           .stage(2, fixed_duration(1.0))
                           .explicit_durations({5.0, 10.0})
                           .stage(2, fixed_duration(5.0))
                           .build());
    bg = engine.submit(JobBuilder("bg")
                           .priority(0)
                           .submit_at(1.0)
                           .stage(2, fixed_duration(kBgTask))
                           .build());
  }
  Engine engine;
  JobId fg, bg;
};

TEST(ReservationManager, EnforcesIsolationInThePathologyScenario) {
  // Without SSR (tested in sched_engine_test) fg's JCT is 20.  With SSR the
  // slot freed at t=5 is reserved: phase 2 starts with both slots at t=10
  // and finishes at 15 — identical to running alone.
  Pathology p{SsrConfig{}};
  p.engine.run();
  EXPECT_DOUBLE_EQ(p.engine.jct(p.fg), 15.0);
  // bg starts only after fg is done at 15: both tasks run 15..115.
  EXPECT_DOUBLE_EQ(p.engine.jct(p.bg), 114.0);
}

TEST(ReservationManager, ReservedSlotCountsAsUtilizationLoss) {
  Pathology p{SsrConfig{}};
  p.engine.run();
  p.engine.cluster().settle(p.engine.sim().now());
  // Slot reserved from t=5 to t=10 for fg: exactly 5 slot-seconds idle.
  EXPECT_DOUBLE_EQ(p.engine.cluster().total_reserved_idle_time(), 5.0);
  EXPECT_DOUBLE_EQ(p.engine.cluster().reserved_idle_time_of(p.fg), 5.0);
}

TEST(ReservationManager, FinalPhaseSlotsAreReleasedNotReserved) {
  // A single-phase job must never reserve (Algorithm 1 line 2-3): bg starts
  // on the freed slot immediately.
  Engine engine(quick_sched(), 1, 2, 1);
  engine.set_reservation_hook(make_ssr());
  const JobId fg = engine.submit(JobBuilder("fg")
                                     .priority(10)
                                     .stage(2, fixed_duration(1.0))
                                     .explicit_durations({5.0, 10.0})
                                     .build());
  const JobId bg = engine.submit(JobBuilder("bg")
                                     .priority(0)
                                     .submit_at(1.0)
                                     .stage(1, fixed_duration(10.0))
                                     .build());
  engine.run();
  EXPECT_DOUBLE_EQ(engine.jct(fg), 10.0);
  // bg runs 5..15 on the freed slot: jct = 15 - 1.
  EXPECT_DOUBLE_EQ(engine.jct(bg), 14.0);
}

TEST(ReservationManager, DecreasingParallelismReleasesFirstFinishers) {
  // Phase 1 has 4 tasks, phase 2 has 2 (m > n): the first 2 freed slots go
  // to bg immediately; the last 2 are reserved.
  Engine engine(quick_sched(), 1, 4, 1);
  engine.set_reservation_hook(make_ssr());
  const JobId fg = engine.submit(JobBuilder("fg")
                                     .priority(10)
                                     .stage(4, fixed_duration(1.0))
                                     .explicit_durations({2.0, 4.0, 6.0, 8.0})
                                     .stage(2, fixed_duration(5.0))
                                     .build());
  const JobId bg = engine.submit(JobBuilder("bg")
                                     .priority(0)
                                     .submit_at(0.5)
                                     .stage(4, fixed_duration(50.0))
                                     .build());
  engine.run();
  // Slots freed at 2 and 4 go to bg (busy 2..52, 4..54).  Slots freed at 6
  // and 8 are reserved; phase 2 starts at 8 on both: fg JCT = 13.
  EXPECT_DOUBLE_EQ(engine.jct(fg), 13.0);
  // bg's last two tasks start at 13 (fg done) -> 63; jct = 63 - 0.5.
  EXPECT_DOUBLE_EQ(engine.jct(bg), 62.5);
}

TEST(ReservationManager, Case1UnknownParallelismReservesEverySlot) {
  // Same shape as the m>n test but with parallelism hidden (Case-1): all 4
  // slots are reserved, so bg cannot start until fg finishes entirely.
  Engine engine(quick_sched(), 1, 4, 1);
  engine.set_reservation_hook(make_ssr());
  const JobId fg = engine.submit(JobBuilder("fg")
                                     .priority(10)
                                     .parallelism_known(false)
                                     .stage(4, fixed_duration(1.0))
                                     .explicit_durations({2.0, 4.0, 6.0, 8.0})
                                     .stage(2, fixed_duration(5.0))
                                     .build());
  const JobId bg = engine.submit(JobBuilder("bg")
                                     .priority(0)
                                     .submit_at(0.5)
                                     .stage(4, fixed_duration(50.0))
                                     .build());
  engine.run();
  EXPECT_DOUBLE_EQ(engine.jct(fg), 13.0);
  // bg's first tasks start at 8 when phase 2 consumes only 2 of 4 reserved
  // slots and the leftover reservations are released on fully-placed.
  EXPECT_DOUBLE_EQ(engine.jct(bg), 62.5);
}

TEST(ReservationManager, IncreasingParallelismPreReserves) {
  // Phase 1 has 2 tasks, phase 2 has 4 (m < n).  With R = 0.4, after the
  // first task finishes (fraction 0.5 > R) the manager pre-reserves 2 extra
  // slots, so phase 2 launches all 4 tasks at the barrier.
  SsrConfig cfg;
  cfg.prereserve_threshold = 0.4;
  Engine engine(quick_sched(), 1, 4, 1);
  engine.set_reservation_hook(make_ssr(cfg));
  const JobId fg = engine.submit(JobBuilder("fg")
                                     .priority(10)
                                     .stage(2, fixed_duration(1.0))
                                     .explicit_durations({5.0, 10.0})
                                     .stage(4, fixed_duration(5.0))
                                     .build());
  const JobId bg = engine.submit(JobBuilder("bg")
                                     .priority(0)
                                     .submit_at(1.0)
                                     .stage(4, fixed_duration(100.0))
                                     .build());
  engine.run();
  // t=1: bg takes the 2 idle slots (busy to 101).  t=5: fg task 0 finishes,
  // slot reserved; fraction 0.5 > R but no idle slots exist to pre-reserve.
  // t=10: barrier clears with 2 slots; tasks 2,3 run at 101 only... unless
  // pre-reservation grabbed slots.  With none available the test still
  // verifies phase 2 uses both reserved slots serially: 10+5, 15+5 -> 20.
  // (Non-local placement never happens: bg holds the other slots past 20.)
  EXPECT_DOUBLE_EQ(engine.jct(fg), 20.0);
  EXPECT_TRUE(engine.job_finished(bg));
}

TEST(ReservationManager, PreReservationGrabsSlotsFreedByOtherJobs) {
  // Like above, but bg's tasks are short, so bg slots free *during* fg's
  // phase 1 after the threshold is crossed: pre-reservation grabs them and
  // phase 2 starts 4-wide at the barrier.
  SsrConfig cfg;
  cfg.prereserve_threshold = 0.4;
  Engine engine(quick_sched(), 1, 4, 1);
  engine.set_reservation_hook(make_ssr(cfg));
  const JobId fg = engine.submit(JobBuilder("fg")
                                     .priority(10)
                                     .stage(2, fixed_duration(1.0))
                                     .explicit_durations({5.0, 10.0})
                                     .stage(4, fixed_duration(5.0))
                                     .build());
  engine.submit(JobBuilder("bg")
                    .priority(0)
                    .submit_at(1.0)
                    .stage(2, fixed_duration(6.0))
                    .build());
  engine.run();
  // bg runs 1..7 on the two idle slots.  t=5: fg reserves its slot,
  // threshold crossed (0.5 > 0.4), nothing idle yet.  t=7: bg's slots free
  // -> pre-reserved for fg's phase 2.  t=10: tasks 0,1 start local on the
  // warm reserved slots; tasks 2,3 honor the 3 s locality wait before
  // exercising the guaranteed pre-reserved (remote) slots at t=13, running
  // 5 * 5 = 25 s: JCT = 13 + 25 = 38.
  EXPECT_DOUBLE_EQ(engine.jct(fg), 38.0);
}

TEST(ReservationManager, HigherPriorityOverridesReservation) {
  // fg (prio 10) reserves at t=5; vip (prio 20) arrives at t=6 and takes the
  // reserved slot despite the reservation.
  Engine engine(quick_sched(), 1, 2, 1);
  engine.set_reservation_hook(make_ssr());
  const JobId fg = engine.submit(JobBuilder("fg")
                                     .priority(10)
                                     .stage(2, fixed_duration(1.0))
                                     .explicit_durations({5.0, 10.0})
                                     .stage(2, fixed_duration(5.0))
                                     .build());
  const JobId vip = engine.submit(JobBuilder("vip")
                                      .priority(20)
                                      .submit_at(6.0)
                                      .stage(1, fixed_duration(2.0))
                                      .build());
  engine.run();
  // vip runs 6..8 on the reserved slot and fg re-reserves it... the slot is
  // idle at 8 with no reservation; fg's phase 2 still starts at 10 finding
  // the slot free: JCT 15 (vip's incursion fits inside the barrier gap).
  EXPECT_DOUBLE_EQ(engine.jct(vip), 2.0);
  EXPECT_DOUBLE_EQ(engine.jct(fg), 15.0);
}

TEST(ReservationManager, DeadlineExpiryReleasesSlots) {
  // P < 1 imposes a finite deadline.  Phase 1 durations [5, 100] with
  // alpha = 1.6, N = 2, P = 0.5:
  //   D = t_m * (1 - P^{1/2})^{-1/1.6} = 5 * (1 - 0.7071)^{-0.625} ~ 10.77
  // so the reservation made at t=5 expires at ~10.77 and bg grabs the slot
  // long before the straggler finishes at 100.
  SsrConfig cfg;
  cfg.isolation_p = 0.5;
  cfg.pareto_alpha = 1.6;
  Engine engine(quick_sched(), 1, 2, 1);
  engine.set_reservation_hook(make_ssr(cfg));
  const JobId fg = engine.submit(JobBuilder("fg")
                                     .priority(10)
                                     .stage(2, fixed_duration(1.0))
                                     .explicit_durations({5.0, 100.0})
                                     .stage(2, fixed_duration(5.0))
                                     .build());
  const JobId bg = engine.submit(JobBuilder("bg")
                                     .priority(0)
                                     .submit_at(1.0)
                                     .stage(1, fixed_duration(20.0))
                                     .build());
  engine.run();
  const double expected_deadline =
      5.0 * std::pow(1.0 - std::pow(0.5, 0.5), -1.0 / 1.6);
  // bg starts exactly at the deadline and runs 20 s.
  EXPECT_NEAR(engine.jct(bg), expected_deadline + 20.0 - 1.0, 1e-9);
  EXPECT_TRUE(engine.job_finished(fg));
}

TEST(ReservationManager, StrictIsolationNeverExpires) {
  // P = 1: same scenario, but the reservation holds for the full 100 s
  // straggler; bg only runs after fg's phase 2 releases the cluster.
  Engine engine(quick_sched(), 1, 2, 1);
  engine.set_reservation_hook(make_ssr());
  const JobId fg = engine.submit(JobBuilder("fg")
                                     .priority(10)
                                     .stage(2, fixed_duration(1.0))
                                     .explicit_durations({5.0, 100.0})
                                     .stage(2, fixed_duration(5.0))
                                     .build());
  const JobId bg = engine.submit(JobBuilder("bg")
                                     .priority(0)
                                     .submit_at(1.0)
                                     .stage(1, fixed_duration(20.0))
                                     .build());
  engine.run();
  EXPECT_DOUBLE_EQ(engine.jct(fg), 105.0);
  EXPECT_DOUBLE_EQ(engine.jct(bg), 105.0 + 20.0 - 1.0);
}

TEST(ReservationManager, StragglerMitigationUsesReservedSlots) {
  // Phase of 4 tasks [1, 1, 60, 60]; copies resample from uniform(1, 2).
  // After the two short tasks finish at t=1, 2 reserved slots = 2 ongoing
  // tasks: copies launch immediately and win in ~2 s instead of 60.
  SsrConfig cfg;
  cfg.enable_straggler_mitigation = true;
  auto manager = make_ssr(cfg);
  ReservationManager* mgr = manager.get();
  Engine engine(quick_sched(), 1, 4, 1);
  engine.set_reservation_hook(std::move(manager));
  TraceFanOut stream(header_for(engine));
  ReplayResultBuilder fold;
  stream.attach(fold);
  engine.add_observer(&stream);
  const JobId fg = engine.submit(JobBuilder("fg")
                                     .priority(10)
                                     .stage(4, uniform_duration(1.0, 2.0))
                                     .explicit_durations({1.0, 1.0, 60.0, 60.0})
                                     .stage(4, fixed_duration(2.0))
                                     .build());
  engine.run();
  EXPECT_EQ(mgr->copies_launched(), 2u);
  EXPECT_EQ(fold.task_stats(fg).copies_started, 2u);
  EXPECT_EQ(fold.task_stats(fg).copies_won, 2u);
  EXPECT_EQ(fold.task_stats(fg).tasks_killed, 2u);
  // Phase 1 ends by t = 1 + 2 = 3 at the latest (vs 60 unmitigated).  The
  // winning copies deposit their outputs on the two reserved slots, so two
  // of phase 2's four tasks run remote (2 * 5 = 10 s): JCT <= 3 + 10 = 13,
  // a ~5x improvement over the unmitigated 62.
  EXPECT_LE(engine.jct(fg), 13.0);
}

TEST(ReservationManager, MitigationDisabledKeepsSlotsIdle) {
  SsrConfig cfg;  // mitigation off by default
  auto manager = make_ssr(cfg);
  ReservationManager* mgr = manager.get();
  Engine engine(quick_sched(), 1, 4, 1);
  engine.set_reservation_hook(std::move(manager));
  const JobId fg = engine.submit(JobBuilder("fg")
                                     .priority(10)
                                     .stage(4, uniform_duration(1.0, 2.0))
                                     .explicit_durations({1.0, 1.0, 60.0, 60.0})
                                     .stage(4, fixed_duration(2.0))
                                     .build());
  engine.run();
  EXPECT_EQ(mgr->copies_launched(), 0u);
  EXPECT_DOUBLE_EQ(engine.jct(fg), 62.0);
}

TEST(ReservationManager, CopyLosesWhenOriginalFinishesFirst) {
  // Original straggler needs 3 s; copies drawn from uniform(50, 51) lose.
  SsrConfig cfg;
  cfg.enable_straggler_mitigation = true;
  Engine engine(quick_sched(), 1, 2, 1);
  auto manager = make_ssr(cfg);
  ReservationManager* mgr = manager.get();
  engine.set_reservation_hook(std::move(manager));
  TraceFanOut stream(header_for(engine));
  ReplayResultBuilder fold;
  stream.attach(fold);
  engine.add_observer(&stream);
  const JobId fg = engine.submit(JobBuilder("fg")
                                     .priority(10)
                                     .stage(2, uniform_duration(50.0, 51.0))
                                     .explicit_durations({1.0, 3.0})
                                     .stage(2, fixed_duration(1.0))
                                     .build());
  engine.run();
  EXPECT_EQ(mgr->copies_launched(), 1u);
  EXPECT_EQ(fold.task_stats(fg).copies_won, 0u);
  EXPECT_EQ(fold.task_stats(fg).tasks_killed, 1u);  // the copy was killed
  // Phase 1 still ends at t=3 (original wins): JCT = 4.
  EXPECT_DOUBLE_EQ(engine.jct(fg), 4.0);
}

TEST(ReservationManager, MinPriorityRestrictsWhoReserves) {
  SsrConfig cfg;
  cfg.min_reserving_priority = 5;
  Engine engine(quick_sched(), 1, 2, 1);
  engine.set_reservation_hook(make_ssr(cfg));
  // fg has priority 0 < 5: it must NOT reserve; the baseline pathology
  // behavior (JCT 20) reappears.
  const JobId fg = engine.submit(JobBuilder("fg")
                                     .priority(0)
                                     .stage(2, fixed_duration(1.0))
                                     .explicit_durations({5.0, 10.0})
                                     .stage(2, fixed_duration(5.0))
                                     .build());
  engine.submit(JobBuilder("bg")
                    .priority(0)
                    .submit_at(1.0)
                    .stage(2, fixed_duration(100.0))
                    .build());
  engine.run();
  EXPECT_DOUBLE_EQ(engine.jct(fg), 20.0);
}

TEST(ReservationManager, FairSchedulerKeepsShareThroughBarrier) {
  // The Fig. 13 scenario: fair policy, job-1 with 3 pipelined phases vs a
  // map-only job-2.  With SSR job-1 retains its share through barriers.
  SchedConfig sched = quick_sched();
  sched.policy = SchedulingPolicy::Fair;
  Engine engine(sched, 1, 4, 1);
  engine.set_reservation_hook(make_ssr());
  const JobId wf = engine.submit(JobBuilder("workflow")
                                     .stage(2, fixed_duration(1.0))
                                     .explicit_durations({4.0, 8.0})
                                     .stage(2, fixed_duration(8.0))
                                     .stage(2, fixed_duration(8.0))
                                     .build());
  const JobId mo = engine.submit(
      JobBuilder("maponly").stage(20, fixed_duration(8.0)).build());
  engine.run();
  // Workflow alone on its 2-slot share: 8 + 8 + 8 = 24.
  EXPECT_DOUBLE_EQ(engine.jct(wf), 24.0);
  EXPECT_TRUE(engine.job_finished(mo));
}

// --- Reservation release on slot death ---------------------------------------
//
// A failed slot must drop its reservation with ReservationEndReason::
// SlotFailed (never Expired), the manager must forget the record without
// counting an expiry, and the run must still complete.  One test per
// Algorithm 1 parallelism case, each audited end to end.

struct ReleaseReasonLog final : EngineObserver {
  std::vector<std::pair<SlotId, ReservationEndReason>> released;

  void on_reservation_released(const Engine&, SlotId slot,
                               ReservationEndReason reason) override {
    released.emplace_back(slot, reason);
  }
  std::size_t count(ReservationEndReason reason) const {
    std::size_t n = 0;
    for (const auto& [slot, r] : released) {
      if (r == reason) ++n;
    }
    return n;
  }
};

TEST(ReservationManager, DecreasingParallelismReservationDiesWithSlot) {
  // Case m > n: the slot reserved at the t=5 finish dies at t=6.  The
  // reservation breaks, phase 2 falls back to the surviving slot, and the
  // invalidated phase-1 output forces its producer task to re-run.
  Pathology p{SsrConfig{}};
  ReleaseReasonLog releases;
  p.engine.add_observer(&releases);
  TraceFanOut stream(header_for(p.engine));
  ReplayResultBuilder fold;
  stream.attach(fold);
  p.engine.add_observer(&stream);
  audit::InvariantAuditor auditor;
  auditor.attach(p.engine);
  p.engine.sim().schedule_at(6.0, [&] {
    ASSERT_EQ(p.engine.cluster().reserved_idle_slots().size(), 1u);
    p.engine.fail_slot(*p.engine.cluster().reserved_idle_slots().begin());
  });
  p.engine.run();
  EXPECT_TRUE(p.engine.job_finished(p.fg));
  EXPECT_TRUE(p.engine.job_finished(p.bg));
  EXPECT_EQ(releases.count(ReservationEndReason::SlotFailed), 1u);
  EXPECT_EQ(fold.recovery().reservations_broken, 1u);
  EXPECT_EQ(fold.recovery().slots_failed, 1u);
  // A broken reservation is not a deadline expiry.
  EXPECT_EQ(releases.count(ReservationEndReason::Expired), 0u);
  EXPECT_TRUE(auditor.clean()) << auditor.report();
}

TEST(ReservationManager, Case1UnknownParallelismReservationDiesWithSlot) {
  // Case-1 (parallelism hidden): every freed slot is reserved; one of the
  // two reservations held at t=5 dies.
  Engine engine(quick_sched(), 1, 4, 1);
  engine.set_reservation_hook(make_ssr());
  ReleaseReasonLog releases;
  engine.add_observer(&releases);
  TraceFanOut stream(header_for(engine));
  ReplayResultBuilder fold;
  stream.attach(fold);
  engine.add_observer(&stream);
  audit::InvariantAuditor auditor;
  auditor.attach(engine);
  const JobId fg = engine.submit(JobBuilder("fg")
                                     .priority(10)
                                     .parallelism_known(false)
                                     .stage(4, fixed_duration(1.0))
                                     .explicit_durations({2.0, 4.0, 6.0, 8.0})
                                     .stage(2, fixed_duration(5.0))
                                     .build());
  engine.sim().schedule_at(5.0, [&] {
    ASSERT_EQ(engine.cluster().reserved_idle_slots().size(), 2u);
    engine.fail_slot(*engine.cluster().reserved_idle_slots().begin());
  });
  engine.run();
  EXPECT_TRUE(engine.job_finished(fg));
  EXPECT_EQ(releases.count(ReservationEndReason::SlotFailed), 1u);
  EXPECT_EQ(fold.recovery().reservations_broken, 1u);
  EXPECT_TRUE(auditor.clean()) << auditor.report();
}

TEST(ReservationManager, PreReservedSlotDiesBeforeTheBarrier) {
  // Case m < n: bg's slots freed at t=7 are pre-reserved for fg's wide
  // phase 2; one of them dies at t=8, before the t=10 barrier.
  SsrConfig cfg;
  cfg.prereserve_threshold = 0.4;
  Engine engine(quick_sched(), 1, 4, 1);
  engine.set_reservation_hook(make_ssr(cfg));
  ReleaseReasonLog releases;
  engine.add_observer(&releases);
  TraceFanOut stream(header_for(engine));
  ReplayResultBuilder fold;
  stream.attach(fold);
  engine.add_observer(&stream);
  audit::InvariantAuditor auditor;
  auditor.attach(engine);
  const JobId fg = engine.submit(JobBuilder("fg")
                                     .priority(10)
                                     .stage(2, fixed_duration(1.0))
                                     .explicit_durations({5.0, 10.0})
                                     .stage(4, fixed_duration(5.0))
                                     .build());
  const JobId bg = engine.submit(JobBuilder("bg")
                                     .priority(0)
                                     .submit_at(1.0)
                                     .stage(2, fixed_duration(6.0))
                                     .build());
  engine.sim().schedule_at(8.0, [&] {
    // t=5 reservation plus two pre-reservations from bg's t=7 finishes.
    ASSERT_EQ(engine.cluster().reserved_idle_slots().size(), 3u);
    engine.fail_slot(std::ranges::max(engine.cluster().reserved_idle_slots()));
  });
  engine.run();
  EXPECT_TRUE(engine.job_finished(fg));
  EXPECT_TRUE(engine.job_finished(bg));
  EXPECT_EQ(releases.count(ReservationEndReason::SlotFailed), 1u);
  EXPECT_EQ(fold.recovery().reservations_broken, 1u);
  EXPECT_TRUE(auditor.clean()) << auditor.report();
}

TEST(ReservationManager, FinalPhaseSlotDeathBreaksNoReservation) {
  // Algorithm 1 line 2-3: a final-phase finish releases its slot without
  // reserving, so killing that freed slot breaks nothing — the death is
  // absorbed as plain capacity loss.
  Engine engine(quick_sched(), 1, 2, 1);
  engine.set_reservation_hook(make_ssr());
  ReleaseReasonLog releases;
  engine.add_observer(&releases);
  TraceFanOut stream(header_for(engine));
  ReplayResultBuilder fold;
  stream.attach(fold);
  engine.add_observer(&stream);
  audit::InvariantAuditor auditor;
  auditor.attach(engine);
  const JobId fg = engine.submit(JobBuilder("fg")
                                     .priority(10)
                                     .stage(2, fixed_duration(1.0))
                                     .explicit_durations({5.0, 10.0})
                                     .build());
  engine.sim().schedule_at(6.0, [&] {
    ASSERT_TRUE(engine.cluster().reserved_idle_slots().empty());
    ASSERT_FALSE(engine.cluster().idle_slots().empty());
    engine.fail_slot(*engine.cluster().idle_slots().begin());
  });
  engine.run();
  EXPECT_TRUE(engine.job_finished(fg));
  EXPECT_DOUBLE_EQ(engine.jct(fg), 10.0);
  EXPECT_EQ(releases.count(ReservationEndReason::SlotFailed), 0u);
  EXPECT_EQ(fold.recovery().reservations_broken, 0u);
  EXPECT_EQ(fold.recovery().slots_failed, 1u);
  EXPECT_EQ(fold.recovery().tasks_requeued, 0u);
  EXPECT_TRUE(auditor.clean()) << auditor.report();
}

TEST(ReservationManager, ConfigValidation) {
  SsrConfig bad;
  bad.isolation_p = 0.0;
  EXPECT_THROW(ReservationManager{bad}, CheckError);
  bad = {};
  bad.pareto_alpha = 1.0;
  EXPECT_THROW(ReservationManager{bad}, CheckError);
  bad = {};
  bad.prereserve_threshold = 1.5;
  EXPECT_THROW(ReservationManager{bad}, CheckError);
}

}  // namespace
}  // namespace ssr
