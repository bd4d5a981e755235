#include "nmc_race/runtime.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include <pthread.h>
#include <sched.h>

#include "common/check.h"

namespace nmc::race {

namespace {

thread_local Runtime* t_rt = nullptr;
thread_local uint32_t t_tid = 0;

/// The CPU the process started on (-1 when unknown). Exactly one engine
/// thread runs at a time, so the engine keeps all of its threads on this
/// one CPU: each token hand-off then wakes a thread on the CPU that just
/// went idle instead of another CPU's run queue, which is where an
/// unpinned suite spent most of its time. Taking the start CPU rather than
/// a fixed one keeps parallel checker processes spread over the machine.
const int kEngineCpu = sched_getcpu();

/// Best effort: a failure (or an unknown CPU) leaves `thread` unpinned,
/// which changes timing only, never an exploration result.
void PinToEngineCpu(pthread_t thread) {
  if (kEngineCpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(kEngineCpu, &set);
  (void)pthread_setaffinity_np(thread, sizeof(set), &set);
}

/// Pins the calling thread, which runs the scheduler, for the lifetime of
/// one Explore() call and restores its own mask afterwards, so a caller
/// (a test binary, say) is left as it was.
class ScopedSchedulerPin {
 public:
  ScopedSchedulerPin()
      : saved_ok_(pthread_getaffinity_np(pthread_self(), sizeof(saved_),
                                         &saved_) == 0) {
    if (saved_ok_) PinToEngineCpu(pthread_self());
  }
  ~ScopedSchedulerPin() {
    if (saved_ok_) {
      (void)pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
    }
  }
  ScopedSchedulerPin(const ScopedSchedulerPin&) = delete;
  ScopedSchedulerPin& operator=(const ScopedSchedulerPin&) = delete;

 private:
  cpu_set_t saved_;
  bool saved_ok_;
};

bool IsAcquireSide(std::memory_order order) {
  return order == std::memory_order_acquire ||
         order == std::memory_order_acq_rel ||
         order == std::memory_order_seq_cst;
}

bool IsReleaseSide(std::memory_order order) {
  return order == std::memory_order_release ||
         order == std::memory_order_acq_rel ||
         order == std::memory_order_seq_cst;
}

}  // namespace

namespace detail {

/// One DFS choice point: a scheduling decision (options = runnable thread
/// ids) or a load-visibility decision (options = admissible store
/// indices). `chosen` indexes `options` and is advanced by Backtrack().
struct ChoicePoint {
  bool is_thread = false;
  std::vector<uint32_t> options;
  size_t chosen = 0;
};

/// Exploration state persisting across the executions of one Explore()
/// call: the DFS choice stack and the token-passing thread engine. Real
/// std::threads with a mutex/condvar token (exactly one runnable at a
/// time) rather than fibers, so the model checker itself stays clean under
/// ASan/TSan — CI runs the full ctest suite under both. The workers and
/// the scheduler share one CPU (kEngineCpu).
struct Engine {
  // ---- DFS state --------------------------------------------------------
  std::vector<ChoicePoint> stack;
  size_t depth = 0;
  bool replaying = false;
  std::vector<std::pair<char, uint32_t>> preset;  // parsed replay tokens

  // ---- per-execution scheduling state -----------------------------------
  Runtime* rt = nullptr;
  std::array<bool, kMaxThreads> sleep{};
  int last_running = -1;
  int preemptions = 0;
  bool sleep_on = false;
  bool aborting = false;

  // ---- token-passing engine ---------------------------------------------
  std::mutex mu;
  std::condition_variable cv;
  int turn = 0;  // 0 = main/scheduler, i >= 1 = model thread i
  bool shutdown = false;
  std::vector<std::thread> workers;                // index tid-1
  std::array<std::function<void()>, kMaxThreads> bodies;

  ~Engine() { ShutdownWorkers(); }

  void PassTo(int next) {
    {
      std::lock_guard<std::mutex> lock(mu);
      turn = next;
    }
    cv.notify_all();
  }

  void WaitFor(int who) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return turn == who; });
  }

  void BeginExecution(Runtime* runtime) {
    rt = runtime;
    depth = 0;
    sleep.fill(false);
    last_running = -1;
    preemptions = 0;
    aborting = false;
  }

  void AssignBody(uint32_t tid, std::function<void()> body) {
    NMC_CHECK_LT(tid, kMaxThreads);
    bodies[tid] = std::move(body);
    while (workers.size() < tid) {
      const uint32_t worker_tid = static_cast<uint32_t>(workers.size()) + 1;
      workers.emplace_back([this, worker_tid] { WorkerLoop(worker_tid); });
      PinToEngineCpu(workers.back().native_handle());
    }
  }

  void WorkerLoop(uint32_t tid) {
    t_tid = tid;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return shutdown || turn == static_cast<int>(tid); });
        if (shutdown) return;
      }
      Runtime* runtime = rt;
      t_rt = runtime;
      try {
        bodies[tid]();
      } catch (const ModelAbort&) {
      }
      runtime->threads_[tid].finished = true;
      PassTo(0);
    }
  }

  void ShutdownWorkers() {
    if (workers.empty()) return;
    {
      std::lock_guard<std::mutex> lock(mu);
      shutdown = true;
    }
    cv.notify_all();
    for (std::thread& worker : workers) worker.join();
    workers.clear();
    shutdown = false;
  }

  /// Takes (and if new, records) the decision at the current stack depth.
  /// `options` must be non-empty and is recomputed deterministically when
  /// re-running a prefix — a mismatch against the recorded point means the
  /// test body itself is nondeterministic, which is a violation.
  uint32_t Choose(bool is_thread, std::vector<uint32_t> options) {
    if (depth == stack.size()) {
      ChoicePoint point;
      point.is_thread = is_thread;
      point.options = std::move(options);
      if (replaying && depth < preset.size()) {
        const auto& [kind, value] = preset[depth];
        const char want = is_thread ? 't' : 'v';
        bool ok = kind == want;
        if (ok && is_thread) {
          const auto it = std::find(point.options.begin(), point.options.end(),
                                    value);
          ok = it != point.options.end();
          if (ok) {
            point.chosen = static_cast<size_t>(it - point.options.begin());
          }
        } else if (ok) {
          ok = value < point.options.size();
          if (ok) point.chosen = value;
        }
        if (!ok) {
          rt->RecordViolation("replay diverged: schedule token " +
                              std::to_string(depth) +
                              " does not match an available choice");
          rt->AbortExecution();
        }
      }
      stack.push_back(std::move(point));
    } else {
      const ChoicePoint& point = stack[depth];
      if (point.is_thread != is_thread || point.options != options) {
        rt->RecordViolation(
            "internal: nondeterministic test body (prefix re-execution "
            "reached a different choice point)");
        rt->AbortExecution();
      }
    }
    ChoicePoint& point = stack[depth];
    ++depth;
    if (is_thread && sleep_on) {
      // Sleep-set rule: siblings already fully explored at this point stay
      // asleep until an op dependent with their pending op executes.
      for (size_t j = 0; j < point.chosen; ++j) sleep[point.options[j]] = true;
    }
    return point.options[point.chosen];
  }

  bool Backtrack() {
    while (!stack.empty()) {
      ChoicePoint& point = stack.back();
      if (point.chosen + 1 < point.options.size()) {
        ++point.chosen;
        return true;
      }
      stack.pop_back();
    }
    return false;
  }

  std::string RenderSchedule() const {
    std::ostringstream out;
    for (size_t i = 0; i < depth && i < stack.size(); ++i) {
      if (i > 0) out << ',';
      const ChoicePoint& point = stack[i];
      if (point.is_thread) {
        out << 't' << point.options[point.chosen];
      } else {
        out << 'v' << point.chosen;
      }
    }
    return out.str();
  }

  bool ParseReplay(const std::string& schedule) {
    preset.clear();
    std::istringstream in(schedule);
    std::string token;
    while (std::getline(in, token, ',')) {
      if (token.size() < 2 || (token[0] != 't' && token[0] != 'v')) {
        return false;
      }
      preset.emplace_back(token[0],
                          static_cast<uint32_t>(std::stoul(token.substr(1))));
    }
    replaying = true;
    return true;
  }
};

}  // namespace detail

Runtime* Runtime::Current() { return t_rt; }

uint32_t Runtime::CurrentTid() const { return t_tid; }

Runtime::Runtime(const ExploreOptions& options, detail::Engine* engine,
                 ExploreResult* result)
    : options_(options), engine_(engine), result_(result) {
  threads_.resize(1);  // thread 0: the main/setup/teardown thread
}

void Runtime::Thread(std::function<void()> body) {
  const uint32_t tid = static_cast<uint32_t>(threads_.size());
  NMC_CHECK_LT(tid, kMaxThreads);
  ThreadState state;
  // Spawn edge: everything the main thread did (including shared-state
  // construction) happens-before the child's first op; the spawn tick
  // makes the child's plain-memory accesses distinguishable from the
  // parent's pre-spawn ones.
  state.clock = threads_[0].clock;
  state.clock.c[tid] += 1;
  state.pending = {OpKind::kStart, 0};
  threads_.push_back(state);
  engine_->AssignBody(tid, std::move(body));
}

void Runtime::PauseForSchedule(OpKind kind, uint32_t loc) {
  const uint32_t tid = CurrentTid();
  if (tid == 0) return;  // setup/teardown ops run inline, unscheduled
  threads_[tid].pending = {kind, loc};
  engine_->PassTo(0);
  engine_->WaitFor(static_cast<int>(tid));
  if (engine_->aborting) throw ModelAbort{};
}

void Runtime::RecordViolation(const std::string& message) {
  if (violated_) return;
  violated_ = true;
  violation_message_ = message;
  result_->message = message;
  result_->schedule = engine_->RenderSchedule();
}

void Runtime::AbortExecution() { throw ModelAbort{}; }

void Runtime::Check(bool ok, const std::string& message) {
  if (ok || violated_) return;
  RecordViolation(message);
  AbortExecution();
}

void Runtime::Outcome(const std::string& outcome) {
  if (!violated_ && !pruned_) result_->outcomes.insert(outcome);
}

/// Conservative dependence for sleep-set wakes: ops on the same location
/// where at least one writes; fences and thread starts conflict with
/// everything (a start runs an arbitrary body prologue).
bool Runtime::OpsDependent(const PendingOp& a, const PendingOp& b) {
  using K = OpKind;
  if (a.kind == K::kStart || b.kind == K::kStart) return true;
  if (a.kind == K::kFence || b.kind == K::kFence) return true;
  if (a.kind == K::kNone || b.kind == K::kNone) return true;
  if (a.loc != b.loc) return false;
  return !(a.kind == K::kLoad && b.kind == K::kLoad);
}

void Runtime::AbortThreads() {
  detail::Engine& engine = *engine_;
  engine.aborting = true;
  for (uint32_t i = 1; i < threads_.size(); ++i) {
    if (threads_[i].finished) continue;
    if (!threads_[i].started) {
      threads_[i].finished = true;
      continue;
    }
    engine.PassTo(static_cast<int>(i));
    engine.WaitFor(0);
  }
  engine.aborting = false;
}

void Runtime::Run() { RunScheduler(); }

void Runtime::RunScheduler() {
  detail::Engine& engine = *engine_;
  for (;;) {
    std::vector<uint32_t> enabled;
    for (uint32_t i = 1; i < threads_.size(); ++i) {
      if (!threads_[i].finished) enabled.push_back(i);
    }
    if (enabled.empty()) break;

    const bool current_enabled =
        engine.last_running >= 1 &&
        !threads_[static_cast<size_t>(engine.last_running)].finished;
    std::vector<uint32_t> options;
    if (options_.preemption_bound >= 0 && current_enabled &&
        engine.preemptions >= options_.preemption_bound) {
      // Out of preemptions: the running thread must continue.
      options.push_back(static_cast<uint32_t>(engine.last_running));
    } else {
      // Continue-current-first ordering, so the DFS default is the
      // fewest-context-switch schedule and counterexamples print short.
      if (current_enabled &&
          !(engine.sleep_on && engine.sleep[engine.last_running])) {
        options.push_back(static_cast<uint32_t>(engine.last_running));
      }
      for (uint32_t tid : enabled) {
        if (static_cast<int>(tid) == engine.last_running) continue;
        if (engine.sleep_on && engine.sleep[tid]) continue;
        options.push_back(tid);
      }
    }
    if (options.empty()) {
      // Every runnable thread is asleep: this state is fully covered by
      // already-explored sibling schedules. Prune, recording nothing.
      pruned_ = true;
      AbortThreads();
      throw ModelAbort{};
    }

    const uint32_t tid = engine.Choose(true, std::move(options));
    if (static_cast<int>(tid) != engine.last_running && current_enabled) {
      ++engine.preemptions;
    }
    const PendingOp executed = threads_[tid].pending;
    threads_[tid].started = true;
    engine.PassTo(static_cast<int>(tid));
    engine.WaitFor(0);
    ++steps_;

    if (violated_) {
      AbortThreads();
      throw ModelAbort{};
    }
    if (steps_ > options_.max_steps) {
      RecordViolation("step budget exceeded (livelock or an unbounded spin "
                      "in a model thread body)");
      AbortThreads();
      throw ModelAbort{};
    }
    if (engine.sleep_on) {
      for (uint32_t i = 1; i < threads_.size(); ++i) {
        if (!engine.sleep[i] || threads_[i].finished) continue;
        if (OpsDependent(executed, threads_[i].pending)) engine.sleep[i] = false;
      }
    }
    engine.last_running = threads_[tid].finished ? -1 : static_cast<int>(tid);
  }
  // Join edge: everything every model thread did happens-before the
  // teardown code after Run() — final drains and asserts see it all.
  for (uint32_t i = 1; i < threads_.size(); ++i) {
    threads_[0].clock.Join(threads_[i].clock);
  }
}

uint32_t Runtime::NewLocation(uint64_t initial) {
  const uint32_t tid = CurrentTid();
  Tick(tid);
  Location location;
  Store store;
  store.value = initial;
  store.hb = threads_[tid].clock;
  store.sync = threads_[tid].clock;
  store.has_sync = true;
  location.stores.push_back(store);
  locations_.push_back(std::move(location));
  return static_cast<uint32_t>(locations_.size()) - 1;
}

uint64_t Runtime::AtomicLoad(uint32_t loc, std::memory_order order) {
  PauseForSchedule(OpKind::kLoad, loc);
  const uint32_t tid = CurrentTid();
  ThreadState& t = threads_[tid];
  Tick(tid);
  if (order == std::memory_order_seq_cst) t.clock.Join(sc_clock_);
  Location& location = locations_[loc];
  // Coherence + visibility floor: nothing older than the newest store this
  // thread already saw, nothing older than the newest store that
  // happened-before this load.
  uint32_t min_index = location.last_seen[tid];
  const uint32_t newest = static_cast<uint32_t>(location.stores.size()) - 1;
  for (uint32_t j = min_index + 1; j <= newest; ++j) {
    if (location.stores[j].hb.LeqThan(t.clock)) min_index = j;
  }
  uint32_t index = newest;
  if (min_index < newest) {
    std::vector<uint32_t> admissible;
    admissible.reserve(newest - min_index + 1);
    for (uint32_t j = min_index; j <= newest; ++j) admissible.push_back(j);
    index = engine_->Choose(false, std::move(admissible));
  }
  const Store& store = location.stores[index];
  location.last_seen[tid] = index;
  if (store.has_sync) {
    t.acq_pending.Join(store.sync);
    if (IsAcquireSide(order)) t.clock.Join(store.sync);
  }
  if (order == std::memory_order_seq_cst) sc_clock_.Join(t.clock);
  return store.value;
}

void Runtime::AtomicStore(uint32_t loc, uint64_t value,
                          std::memory_order order) {
  PauseForSchedule(OpKind::kStore, loc);
  const uint32_t tid = CurrentTid();
  ThreadState& t = threads_[tid];
  Tick(tid);
  if (order == std::memory_order_seq_cst) t.clock.Join(sc_clock_);
  Location& location = locations_[loc];
  Store store;
  store.value = value;
  store.hb = t.clock;
  if (IsReleaseSide(order)) {
    store.sync = t.clock;
    store.has_sync = true;
  } else if (t.has_release_fence) {
    // Boehm fence rule: a relaxed store after a release fence carries the
    // fence-time clock as its sync value.
    store.sync = t.release_fence;
    store.has_sync = true;
  }
  location.last_seen[tid] = static_cast<uint32_t>(location.stores.size());
  location.stores.push_back(std::move(store));
  if (order == std::memory_order_seq_cst) sc_clock_.Join(t.clock);
}

uint64_t Runtime::AtomicRmwAdd(uint32_t loc, uint64_t delta,
                               std::memory_order order) {
  PauseForSchedule(OpKind::kRmw, loc);
  const uint32_t tid = CurrentTid();
  ThreadState& t = threads_[tid];
  Tick(tid);
  if (order == std::memory_order_seq_cst) t.clock.Join(sc_clock_);
  Location& location = locations_[loc];
  // An RMW always reads the newest store in modification order and writes
  // immediately after it.
  const Store previous = location.stores.back();
  if (previous.has_sync) {
    t.acq_pending.Join(previous.sync);
    if (IsAcquireSide(order)) t.clock.Join(previous.sync);
  }
  Store store;
  store.value = previous.value + delta;
  store.hb = t.clock;
  if (IsReleaseSide(order)) {
    store.sync = t.clock;
    store.has_sync = true;
  } else if (t.has_release_fence) {
    store.sync = t.release_fence;
    store.has_sync = true;
  }
  if (previous.has_sync) {
    // RMWs continue the release sequence of the store they replace.
    store.sync.Join(previous.sync);
    store.has_sync = true;
  }
  location.last_seen[tid] = static_cast<uint32_t>(location.stores.size());
  location.stores.push_back(std::move(store));
  if (order == std::memory_order_seq_cst) sc_clock_.Join(t.clock);
  return previous.value;
}

void Runtime::Fence(std::memory_order order) {
  if (order == std::memory_order_relaxed) return;  // weakened fence: no-op
  PauseForSchedule(OpKind::kFence, 0);
  const uint32_t tid = CurrentTid();
  ThreadState& t = threads_[tid];
  if (order == std::memory_order_seq_cst) t.clock.Join(sc_clock_);
  if (IsAcquireSide(order)) t.clock.Join(t.acq_pending);
  if (IsReleaseSide(order)) {
    t.release_fence = t.clock;
    t.has_release_fence = true;
  }
  if (order == std::memory_order_seq_cst) sc_clock_.Join(t.clock);
}

uint32_t Runtime::NewCell() {
  cells_.emplace_back();
  return static_cast<uint32_t>(cells_.size()) - 1;
}

void Runtime::CellWrite(uint32_t cell, uint64_t value) {
  const uint32_t tid = CurrentTid();
  ThreadState& t = threads_[tid];
  Cell& c = cells_[cell];
  if (c.written && !c.write_clock.LeqThan(t.clock)) {
    RecordViolation("data race: concurrent writes to a plain slot");
    AbortExecution();
  }
  for (uint32_t u = 0; u < kMaxThreads; ++u) {
    if (u == tid || !c.has_read[u]) continue;
    if (!c.read_clocks[u].LeqThan(t.clock)) {
      RecordViolation("data race: plain-slot write concurrent with a read");
      AbortExecution();
    }
  }
  c.written = true;
  c.write_clock = t.clock;
  c.value = value;
}

uint64_t Runtime::CellRead(uint32_t cell) {
  const uint32_t tid = CurrentTid();
  ThreadState& t = threads_[tid];
  Cell& c = cells_[cell];
  if (c.written && !c.write_clock.LeqThan(t.clock)) {
    RecordViolation("data race: plain-slot read concurrent with a write");
    AbortExecution();
  }
  c.read_clocks[tid] = t.clock;
  c.has_read[tid] = true;
  return c.value;
}

std::memory_order Runtime::SiteOrder(common::OrderSite site,
                                     std::memory_order declared) const {
  return site == options_.weakened ? std::memory_order_relaxed : declared;
}

ExploreResult Explore(const ExploreOptions& options,
                      const std::function<void(Runtime&)>& test) {
  const ScopedSchedulerPin pin;
  detail::Engine engine;
  const bool replaying = !options.replay.empty();
  if (replaying && !engine.ParseReplay(options.replay)) {
    ExploreResult result;
    result.violation = true;
    result.message = "unparseable replay schedule: " + options.replay;
    return result;
  }
  // Sleep sets are only sound without a preemption bound (and are
  // pointless when replaying a single schedule).
  engine.sleep_on =
      options.sleep_sets && options.preemption_bound < 0 && !replaying;

  ExploreResult result;
  for (;;) {
    Runtime rt(options, &engine, &result);
    engine.BeginExecution(&rt);
    t_rt = &rt;
    t_tid = 0;
    try {
      test(rt);
    } catch (const ModelAbort&) {
      // The abort may have unwound only the scheduler (e.g. a replay
      // divergence at a thread choice): workers still paused inside
      // PauseForSchedule must be resumed-with-abort before this Runtime
      // dies, or the engine teardown joins against a parked thread.
      rt.AbortThreads();
    }
    t_rt = nullptr;
    ++result.executions;
    if (rt.violated_) {
      result.violation = true;
      break;
    }
    if (replaying) {
      result.complete = true;
      break;
    }
    if (!engine.Backtrack()) {
      result.complete = true;
      break;
    }
    if (result.executions >= options.max_executions) {
      result.budget_exhausted = true;
      break;
    }
  }
  return result;
}

const char* SiteName(common::OrderSite site) {
  switch (site) {
    case common::OrderSite::kSpscHeadAcquire: return "spsc-head-acquire";
    case common::OrderSite::kSpscTailRelease: return "spsc-tail-release";
    case common::OrderSite::kSpscTailAcquire: return "spsc-tail-acquire";
    case common::OrderSite::kSpscHeadRelease: return "spsc-head-release";
    case common::OrderSite::kSeqlockReadAcquire: return "seqlock-read-acquire";
    case common::OrderSite::kSeqlockReadFence: return "seqlock-read-fence";
    case common::OrderSite::kSeqlockWriteFence: return "seqlock-write-fence";
    case common::OrderSite::kSeqlockWriteRelease:
      return "seqlock-write-release";
    case common::OrderSite::kCount: break;
  }
  return "none";
}

bool ParseSiteName(const std::string& name, common::OrderSite* site) {
  for (uint32_t i = 0; i < static_cast<uint32_t>(common::OrderSite::kCount);
       ++i) {
    const auto candidate = static_cast<common::OrderSite>(i);
    if (name == SiteName(candidate)) {
      *site = candidate;
      return true;
    }
  }
  return false;
}

}  // namespace nmc::race
