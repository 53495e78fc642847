#include "net/cluster.h"

#include <chrono>
#include <exception>
#include <mutex>
#include <thread>

#include "common/check.h"

namespace dprbg {

Cluster::Cluster(int n, int t, std::uint64_t seed)
    : LockstepCore(n, t, seed) {
  active_.assign(static_cast<std::size_t>(n), 1);
  for (int i = 0; i < n; ++i) handle(i, 0);
}

int Cluster::expected(const RoundStream& st) const {
  if (st.domain->roster.empty()) return expected_;
  int count = 0;
  for (int i = 0; i < n(); ++i) {
    if (in_roster(*st.domain, i) && active_[static_cast<std::size_t>(i)]) {
      ++count;
    }
  }
  return count;
}

void Cluster::set_domain_round_latency_us(std::uint32_t committee, int us) {
  std::lock_guard lk(mu_);
  DPRBG_CHECK(!running_);
  domain(committee).round_latency_us = us;
}

void Cluster::fire(RoundStream& st, Barrier& b) {
  // Every roster thread is parked on this stream, so the members' staging
  // buffers are quiescent: feed them to the core sender-major.
  Exchange ex(*this, st);
  for (int sender = 0; sender < n(); ++sender) {
    PartyIo* p = st.members[static_cast<std::size_t>(sender)];
    if (p == nullptr || !in_roster(*st.domain, sender)) continue;
    ex.charge(*p);
    for (auto& env : p->staged_) ex.route(env.to, std::move(env.msg));
    p->staged_.clear();
  }
  ex.deliver();
  b.waiting = 0;
  ++b.generation;
}

void Cluster::link_sync(PartyIo& io) {
  unsigned latency = round_latency_us_;
  {
    std::unique_lock lk(mu_);
    RoundStream& st = round_stream(io.stream());
    // A handle may only drive a stream whose domain roster includes its
    // player (handle creation already guards this; this catches root
    // handles syncing on a stream 0 that a committee claimed).
    DPRBG_CHECK(in_roster(*st.domain, io.id()));
    if (st.domain->round_latency_us >= 0) {
      latency = static_cast<unsigned>(st.domain->round_latency_us);
    }
    Barrier& b = barriers_[io.stream()];
    if (++b.waiting == expected(st)) {
      fire(st, b);
      cv_.notify_all();
    } else {
      const std::uint64_t gen = b.generation;
      // Barrier wait time as seen by the waiting (non-exchanging)
      // threads — the operator's backpressure signal. Clock reads only
      // when telemetry is on; cv_.wait reacquires mu_, so the cached
      // histogram pointer is read and filled under the lock.
      TelemetryClock::time_point t0;
      const bool tel_on = telemetry_enabled();
      if (tel_on) t0 = TelemetryClock::now();
      cv_.wait(lk, [&] { return b.generation != gen; });
      if (tel_on) {
        if (tel_barrier_wait_ == nullptr) {
          tel_barrier_wait_ = &metrics().histogram("net_barrier_wait_us");
        }
        tel_barrier_wait_->observe(telemetry_elapsed_us(t0));
      }
    }
  }
  if (latency != 0) {
    // One simulated network traversal per round, paid by every member
    // concurrently (outside the lock, so other streams keep exchanging —
    // this is what overlapped batches hide).
    std::this_thread::sleep_for(std::chrono::microseconds(latency));
  }
}

void Cluster::drop(int player) {
  std::unique_lock lk(mu_);
  active_[static_cast<std::size_t>(player)] = 0;
  --expected_;
  if (expected_ <= 0) return;
  // A stream's waiting counts worker threads, not players, so several
  // batch streams can simultaneously reach their (now reduced) expected
  // count when a player drops mid-pipeline (e.g. a crashed player never
  // opens its per-batch handles and every in-flight stream is parked at
  // one short of full). Fire them all: each fired stream's waiting
  // resets to 0 and its waiters cannot re-arrive while mu_ is held, so
  // one pass suffices. Streams whose roster never contained the dropped
  // player keep their expected count and are left alone.
  bool fired = false;
  for (auto& [sid, b] : barriers_) {
    if (b.waiting == 0) continue;
    RoundStream& st = round_stream(sid);
    if (b.waiting == expected(st)) {
      fire(st, b);
      fired = true;
    }
  }
  if (fired) cv_.notify_all();
}

void Cluster::run(std::vector<Program> programs) {
  DPRBG_CHECK(static_cast<int>(programs.size()) == n());
  const int n = this->n();
  std::vector<PartyIo*> roots;
  for (int i = 0; i < n; ++i) roots.push_back(&handle(i, 0));
  {
    std::lock_guard lk(mu_);
    running_ = true;
    expected_ = n;
    active_.assign(static_cast<std::size_t>(n), 1);
    for (auto& [sid, b] : barriers_) b.waiting = 0;
  }
  per_player_field_ops_.assign(static_cast<std::size_t>(n), FieldCounters{});

  std::exception_ptr first_error;
  std::mutex error_mu;

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      const FieldCounters before = field_counters();
      try {
        programs[i](*roots[i]);
      } catch (...) {
        std::lock_guard g(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
      per_player_field_ops_[i] = field_counters() - before;
      drop(i);
    });
  }
  for (auto& th : threads) th.join();
  {
    std::lock_guard lk(mu_);
    running_ = false;
  }
  for (const auto& ops : per_player_field_ops_) field_ops_ += ops;
  if (first_error) std::rethrow_exception(first_error);
}

void Cluster::run(const Program& honest, const std::vector<int>& faulty,
                  const Program& adversary) {
  std::vector<Program> programs(static_cast<std::size_t>(n()));
  for (auto& p : programs) p = honest;
  for (int id : faulty) {
    DPRBG_CHECK(id >= 0 && id < n());
    programs[id] = adversary ? adversary : [](PartyIo&) {};  // crash fault
  }
  run(std::move(programs));
}

}  // namespace dprbg
