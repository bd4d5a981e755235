#include "nmc_race/litmus.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <set>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/seqlock.h"
#include "common/spsc_queue.h"
#include "nmc_race/model_atomic.h"

namespace nmc::race {

namespace {

using common::OrderSite;

std::string PairOutcome(uint64_t a, uint64_t b) {
  return std::to_string(a) + "/" + std::to_string(b);
}

ExploreOptions Unbounded() {
  ExploreOptions options;
  options.preemption_bound = -1;
  options.sleep_sets = true;
  return options;
}

ExploreOptions Bounded(int bound) {
  ExploreOptions options;
  options.preemption_bound = bound;
  options.sleep_sets = false;
  return options;
}

// ---- classic litmus self-tests: the model must exhibit the relaxed
// reorderings and must not under stronger orders --------------------------

std::function<void(Runtime&)> StoreBuffering(std::memory_order store_order,
                                             std::memory_order load_order) {
  return [store_order, load_order](Runtime& rt) {
    ModelAtomic<uint64_t> x(0);
    ModelAtomic<uint64_t> y(0);
    uint64_t r0 = 99;
    uint64_t r1 = 99;
    rt.Thread([&] {
      x.store(1, store_order);
      r0 = y.load(load_order);
    });
    rt.Thread([&] {
      y.store(1, store_order);
      r1 = x.load(load_order);
    });
    rt.Run();
    rt.Outcome(PairOutcome(r0, r1));
  };
}

std::function<void(Runtime&)> MessagePassing(std::memory_order flag_store,
                                             std::memory_order flag_load) {
  return [flag_store, flag_load](Runtime& rt) {
    ModelAtomic<uint64_t> data(0);
    ModelAtomic<uint64_t> flag(0);
    uint64_t seen_flag = 99;
    uint64_t seen_data = 99;
    rt.Thread([&] {
      data.store(1, std::memory_order_relaxed);
      flag.store(1, flag_store);
    });
    rt.Thread([&] {
      seen_flag = flag.load(flag_load);
      seen_data =
          seen_flag == 1 ? data.load(std::memory_order_relaxed) : 42;
    });
    rt.Run();
    rt.Outcome(PairOutcome(seen_flag, seen_data));
  };
}

void LoadBuffering(Runtime& rt) {
  ModelAtomic<uint64_t> x(0);
  ModelAtomic<uint64_t> y(0);
  uint64_t r0 = 99;
  uint64_t r1 = 99;
  rt.Thread([&] {
    r0 = y.load(std::memory_order_relaxed);
    x.store(1, std::memory_order_relaxed);
  });
  rt.Thread([&] {
    r1 = x.load(std::memory_order_relaxed);
    y.store(1, std::memory_order_relaxed);
  });
  rt.Run();
  rt.Outcome(PairOutcome(r0, r1));
}

/// Message passing where the payload is *plain* memory: with a relaxed
/// flag the unsynchronized write/read pair is a data race the model must
/// detect; with release/acquire it is race-free.
std::function<void(Runtime&)> MessagePassingPlainCell(bool synchronized) {
  const std::memory_order flag_store = synchronized
                                           ? std::memory_order_release
                                           : std::memory_order_relaxed;
  const std::memory_order flag_load = synchronized
                                          ? std::memory_order_acquire
                                          : std::memory_order_relaxed;
  return [flag_store, flag_load](Runtime& rt) {
    const uint32_t cell = rt.NewCell();
    ModelAtomic<uint64_t> flag(0);
    rt.Thread([&rt, &flag, cell, flag_store] {
      rt.CellWrite(cell, 1);
      flag.store(1, flag_store);
    });
    rt.Thread([&rt, &flag, cell, flag_load] {
      if (flag.load(flag_load) == 1) (void)rt.CellRead(cell);
    });
    rt.Run();
    rt.Outcome("race-free");
  };
}

// ---- SpscQueue litmus ---------------------------------------------------

using ModelQueue = common::SpscQueue<uint64_t, ModelAtomicPolicy>;

/// One item through the span calls the threads backend uses: a one-item
/// TryPushSpan, and a one-item PeekContiguous followed by Advance(1).
bool PushOne(ModelQueue& queue, uint64_t item) {
  return queue.TryPushSpan(std::span<const uint64_t>(&item, 1)) == 1;
}

bool PopOne(ModelQueue& queue, uint64_t* out) {
  const std::span<const uint64_t> view = queue.PeekContiguous(1);
  if (view.empty()) return false;
  *out = view.front();
  queue.Advance(1);
  return true;
}

/// Push `kItems` through a capacity-`kCap` ring so slots are reused: the
/// head retire/refresh edge is what keeps the producer's overwrite of a
/// slot ordered after the consumer's read of its previous occupant.
template <size_t kCap, uint64_t kItems, int kTries>
void SpscWrap(Runtime& rt) {
  ModelQueue queue(common::RingCapacity<kCap>{});
  uint64_t pushed = 0;
  std::vector<uint64_t> popped;
  rt.Thread([&] {
    uint64_t next = 1;
    for (int attempt = 0; attempt < kTries && next <= kItems; ++attempt) {
      if (PushOne(queue, next)) ++next;
    }
    pushed = next - 1;
  });
  rt.Thread([&] {
    uint64_t out = 0;
    for (int attempt = 0; attempt < kTries; ++attempt) {
      if (PopOne(queue, &out)) popped.push_back(out);
    }
  });
  rt.Run();
  uint64_t out = 0;
  while (PopOne(queue, &out)) popped.push_back(out);
  rt.Check(popped.size() == pushed, "items lost or duplicated across wrap");
  for (size_t i = 0; i < popped.size(); ++i) {
    rt.Check(popped[i] == i + 1, "FIFO order violated across wrap");
  }
  rt.Outcome("ok");
}

/// Batched producer/consumer across the wrap seam: TryPushSpan must split
/// its batch at the ring boundary and PeekContiguous must hand out only
/// contiguous, fully-published slots.
void SpscSpanBatch(Runtime& rt) {
  ModelQueue queue(common::RingCapacity<2>{});
  // Offset head/tail so the span push wraps mid-batch.
  uint64_t setup = 0;
  rt.Check(PushOne(queue, 9), "setup push failed");
  rt.Check(PopOne(queue, &setup) && setup == 9, "setup pop failed");
  const std::array<uint64_t, 3> items = {1, 2, 3};
  size_t sent = 0;
  std::vector<uint64_t> got;
  rt.Thread([&] {
    for (int attempt = 0; attempt < 5 && sent < items.size(); ++attempt) {
      sent += queue.TryPushSpan(
          std::span<const uint64_t>(items).subspan(sent));
    }
  });
  rt.Thread([&] {
    for (int attempt = 0; attempt < 5; ++attempt) {
      const std::span<const uint64_t> view = queue.PeekContiguous(2);
      for (const uint64_t value : view) got.push_back(value);
      if (!view.empty()) queue.Advance(view.size());
    }
  });
  rt.Run();
  for (;;) {
    const std::span<const uint64_t> view = queue.PeekContiguous(2);
    if (view.empty()) break;
    for (const uint64_t value : view) got.push_back(value);
    queue.Advance(view.size());
  }
  rt.Check(got.size() == sent, "batched items lost or duplicated");
  for (size_t i = 0; i < got.size(); ++i) {
    rt.Check(got[i] == i + 1, "batched FIFO order violated");
  }
  rt.Outcome("ok");
}

// ---- Seqlock litmus -----------------------------------------------------

struct PairPayload {
  uint64_t a = 0;
  uint64_t b = 0;
};

void SeqlockTorn(Runtime& rt) {
  common::Seqlock<PairPayload, ModelAtomicPolicy> slot;
  rt.Thread([&] { slot.Publish(PairPayload{1, 1}); });
  rt.Thread([&] {
    PairPayload snapshot;
    for (int attempt = 0; attempt < 3; ++attempt) {
      if (slot.TryRead(&snapshot)) {
        rt.Check(snapshot.a == snapshot.b, "torn seqlock read");
        rt.Check(snapshot.a <= 1, "seqlock read invented a value");
      }
    }
  });
  rt.Run();
  PairPayload final_snapshot;
  rt.Check(slot.TryRead(&final_snapshot), "post-join read must succeed");
  rt.Check(final_snapshot.a == 1 && final_snapshot.b == 1,
           "final snapshot is not the published value");
  rt.Outcome("ok");
}

/// Two generations: every successful read is internally consistent and the
/// observed generation never regresses (per-location coherence).
void SeqlockMonotonic(Runtime& rt) {
  common::Seqlock<PairPayload, ModelAtomicPolicy> slot;
  rt.Thread([&] {
    slot.Publish(PairPayload{1, 1});
    slot.Publish(PairPayload{2, 2});
  });
  rt.Thread([&] {
    uint64_t last = 0;
    PairPayload snapshot;
    for (int attempt = 0; attempt < 2; ++attempt) {
      if (slot.TryRead(&snapshot)) {
        rt.Check(snapshot.a == snapshot.b, "torn seqlock read");
        rt.Check(snapshot.a >= last, "snapshot regressed");
        last = snapshot.a;
      }
    }
  });
  rt.Run();
  rt.Outcome("ok");
}

std::vector<LitmusCase> BuildSuite() {
  std::vector<LitmusCase> suite;

  LitmusCase sb_relaxed;
  sb_relaxed.name = "sb-relaxed";
  sb_relaxed.description =
      "store buffering, relaxed: the 0/0 outcome (both loads stale) must "
      "be observable";
  sb_relaxed.base = Unbounded();
  sb_relaxed.test = StoreBuffering(std::memory_order_relaxed,
                                   std::memory_order_relaxed);
  sb_relaxed.expected_outcomes = {"0/0", "0/1", "1/0", "1/1"};
  suite.push_back(std::move(sb_relaxed));

  LitmusCase sb_acqrel;
  sb_acqrel.name = "sb-acqrel";
  sb_acqrel.description =
      "store buffering, release/acquire: acq/rel does NOT forbid 0/0 — "
      "only seq_cst does";
  sb_acqrel.base = Unbounded();
  sb_acqrel.test = StoreBuffering(std::memory_order_release,
                                  std::memory_order_acquire);
  sb_acqrel.expected_outcomes = {"0/0", "0/1", "1/0", "1/1"};
  suite.push_back(std::move(sb_acqrel));

  LitmusCase sb_seqcst;
  sb_seqcst.name = "sb-seqcst";
  sb_seqcst.description = "store buffering, seq_cst: 0/0 is forbidden";
  sb_seqcst.base = Unbounded();
  sb_seqcst.test = StoreBuffering(std::memory_order_seq_cst,
                                  std::memory_order_seq_cst);
  sb_seqcst.expected_outcomes = {"0/1", "1/0", "1/1"};
  suite.push_back(std::move(sb_seqcst));

  LitmusCase mp_relaxed;
  mp_relaxed.name = "mp-relaxed";
  mp_relaxed.description =
      "message passing, relaxed flag: the stale-data outcome 1/0 must be "
      "observable";
  mp_relaxed.base = Unbounded();
  mp_relaxed.test = MessagePassing(std::memory_order_relaxed,
                                   std::memory_order_relaxed);
  mp_relaxed.expected_outcomes = {"0/42", "1/0", "1/1"};
  suite.push_back(std::move(mp_relaxed));

  LitmusCase mp_acqrel;
  mp_acqrel.name = "mp-acqrel";
  mp_acqrel.description =
      "message passing, release/acquire: a seen flag implies fresh data";
  mp_acqrel.base = Unbounded();
  mp_acqrel.test = MessagePassing(std::memory_order_release,
                                  std::memory_order_acquire);
  mp_acqrel.expected_outcomes = {"0/42", "1/1"};
  suite.push_back(std::move(mp_acqrel));

  LitmusCase lb_relaxed;
  lb_relaxed.name = "lb-relaxed";
  lb_relaxed.description =
      "load buffering, relaxed: 1/1 is allowed by C++11 but NOT observable "
      "in an interleaving-based model (known limitation, same as loom) — "
      "this pins the boundary";
  lb_relaxed.base = Unbounded();
  lb_relaxed.test = LoadBuffering;
  lb_relaxed.expected_outcomes = {"0/0", "0/1", "1/0"};
  suite.push_back(std::move(lb_relaxed));

  LitmusCase mp_race;
  mp_race.name = "mp-race-relaxed";
  mp_race.description =
      "plain-memory payload behind a relaxed flag: the model must detect "
      "the data race";
  mp_race.base = Unbounded();
  mp_race.test = MessagePassingPlainCell(/*synchronized=*/false);
  mp_race.expect_violation = true;
  suite.push_back(std::move(mp_race));

  LitmusCase mp_norace;
  mp_norace.name = "mp-race-acqrel";
  mp_norace.description =
      "plain-memory payload behind a release/acquire flag: race-free";
  mp_norace.base = Unbounded();
  mp_norace.test = MessagePassingPlainCell(/*synchronized=*/true);
  mp_norace.expected_outcomes = {"race-free"};
  suite.push_back(std::move(mp_norace));

  LitmusCase wrap1;
  wrap1.name = "spsc-wrap-cap1";
  wrap1.description =
      "capacity-1 ring (strict ping-pong): slot reuse is race-free through "
      "the head release/acquire edge";
  wrap1.base = Bounded(2);
  wrap1.test = SpscWrap<1, 2, 3>;
  wrap1.expected_outcomes = {"ok"};
  wrap1.kills = {OrderSite::kSpscHeadAcquire, OrderSite::kSpscHeadRelease};
  suite.push_back(std::move(wrap1));

  LitmusCase wrap2;
  wrap2.name = "spsc-wrap-cap2";
  wrap2.description =
      "capacity-2 ring wrapping at the exact boundary: FIFO and race-free "
      "slot reuse";
  wrap2.base = Bounded(2);
  wrap2.test = SpscWrap<2, 3, 4>;
  wrap2.expected_outcomes = {"ok"};
  wrap2.kills = {OrderSite::kSpscHeadAcquire, OrderSite::kSpscHeadRelease};
  suite.push_back(std::move(wrap2));

  LitmusCase span_batch;
  span_batch.name = "spsc-span-batch";
  span_batch.description =
      "TryPushSpan/PeekContiguous batches across the wrap seam: split "
      "batches stay contiguous and in order, nothing is lost or "
      "duplicated, and slot handoff is race-free through the tail "
      "release/acquire edge";
  span_batch.base = Bounded(2);
  span_batch.test = SpscSpanBatch;
  span_batch.expected_outcomes = {"ok"};
  span_batch.kills = {OrderSite::kSpscTailRelease,
                      OrderSite::kSpscTailAcquire};
  suite.push_back(std::move(span_batch));

  LitmusCase seqlock_torn;
  seqlock_torn.name = "seqlock-torn";
  seqlock_torn.description =
      "seqlock single publish vs reader: TryRead never returns a torn "
      "snapshot (guards all four seqlock ordering edges)";
  seqlock_torn.base = Bounded(2);
  seqlock_torn.test = SeqlockTorn;
  seqlock_torn.expected_outcomes = {"ok"};
  seqlock_torn.kills = {
      OrderSite::kSeqlockReadAcquire, OrderSite::kSeqlockReadFence,
      OrderSite::kSeqlockWriteFence, OrderSite::kSeqlockWriteRelease};
  suite.push_back(std::move(seqlock_torn));

  LitmusCase seqlock_mono;
  seqlock_mono.name = "seqlock-monotonic";
  seqlock_mono.description =
      "seqlock across two generations: snapshots are consistent and never "
      "regress";
  seqlock_mono.base = Bounded(2);
  seqlock_mono.test = SeqlockMonotonic;
  seqlock_mono.expected_outcomes = {"ok"};
  seqlock_mono.kills = {
      OrderSite::kSeqlockReadAcquire, OrderSite::kSeqlockReadFence,
      OrderSite::kSeqlockWriteFence, OrderSite::kSeqlockWriteRelease};
  suite.push_back(std::move(seqlock_mono));

  return suite;
}

}  // namespace

const std::vector<LitmusCase>& LitmusSuite() {
  static const std::vector<LitmusCase>* suite =
      new std::vector<LitmusCase>(BuildSuite());
  return *suite;
}

const LitmusCase* FindLitmus(const std::string& name) {
  for (const LitmusCase& litmus : LitmusSuite()) {
    if (litmus.name == name) return &litmus;
  }
  return nullptr;
}

LitmusVerdict RunLitmus(const LitmusCase& litmus, common::OrderSite weakened,
                        const std::string& replay) {
  ExploreOptions options = litmus.base;
  options.weakened = weakened;
  options.replay = replay;
  LitmusVerdict verdict;
  verdict.result = Explore(options, litmus.test);
  const ExploreResult& result = verdict.result;

  if (litmus.expect_violation) {
    verdict.passed = result.violation;
    if (!verdict.passed) {
      verdict.detail = "expected the model to detect a violation, but the "
                       "exploration came back clean";
    }
    return verdict;
  }
  if (result.violation) {
    verdict.detail = result.message + " [schedule: " + result.schedule + "]";
    return verdict;
  }
  if (result.budget_exhausted) {
    verdict.detail = "execution budget exhausted before full exploration";
    return verdict;
  }
  if (!litmus.expected_outcomes.empty() && replay.empty()) {
    const std::set<std::string> want(litmus.expected_outcomes.begin(),
                                     litmus.expected_outcomes.end());
    if (want != result.outcomes) {
      std::string got;
      for (const std::string& outcome : result.outcomes) {
        got += (got.empty() ? "" : ", ") + outcome;
      }
      std::string expected;
      for (const std::string& outcome : want) {
        expected += (expected.empty() ? "" : ", ") + outcome;
      }
      verdict.detail =
          "outcome set mismatch: explored {" + got + "}, pinned {" +
          expected + "}";
      return verdict;
    }
  }
  verdict.passed = true;
  return verdict;
}

std::vector<MutationOutcome> MutateSite(OrderSite site) {
  std::vector<MutationOutcome> outcomes;
  for (const LitmusCase& litmus : LitmusSuite()) {
    if (std::find(litmus.kills.begin(), litmus.kills.end(), site) ==
        litmus.kills.end()) {
      continue;
    }
    MutationOutcome outcome;
    outcome.site = site;
    outcome.litmus = litmus.name;
    ExploreOptions options = litmus.base;
    options.weakened = site;
    const ExploreResult weakened_run = Explore(options, litmus.test);
    outcome.killed = weakened_run.violation;
    outcome.schedule = weakened_run.schedule;
    outcome.message = weakened_run.message;
    if (outcome.killed && !outcome.schedule.empty()) {
      options.replay = weakened_run.schedule;
      const ExploreResult replayed = Explore(options, litmus.test);
      outcome.replay_confirmed = replayed.violation &&
                                 replayed.message == weakened_run.message &&
                                 replayed.schedule == weakened_run.schedule;
    }
    outcomes.push_back(std::move(outcome));
  }
  NMC_CHECK(!outcomes.empty());  // every site must have a killing litmus
  return outcomes;
}

}  // namespace nmc::race
