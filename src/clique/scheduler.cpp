#include "clique/scheduler.hpp"

#include <ucontext.h>

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/check.hpp"
#include "util/thread_pool.hpp"

// TSan has no visibility into ucontext stack switches; annotate them with
// the fiber API so the -fsanitize=thread CI job can vet the scheduler.
#if defined(__SANITIZE_THREAD__)
#define CCQ_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CCQ_TSAN 1
#endif
#endif
#ifdef CCQ_TSAN
#include <sanitizer/tsan_interface.h>
#endif

// glibc's swapcontext makes an rt_sigprocmask syscall per switch, which at
// n = 512 nodes means ~1000 syscalls per superstep — it dominates the pooled
// backend's cost. On x86-64 we switch stacks ourselves: save the System V
// callee-saved registers (plus mxcsr / x87 control words) and flip rsp, no
// syscall. TSan builds keep ucontext so the fiber annotations line up with
// what the sanitizer expects; other architectures keep ucontext for
// portability.
#if defined(__x86_64__) && !defined(CCQ_TSAN)
#define CCQ_FAST_FIBER 1
#endif

#ifdef CCQ_FAST_FIBER
extern "C" {
// Saves the current continuation at *save_sp and resumes the one at
// target_sp. Returns when someone swaps back to *save_sp.
void ccq_fiber_swap(void** save_sp, void* target_sp);
// First-activation shim: the seeded stack "returns" here with the Fiber*
// in r12 (see make_fiber); forwards it to ccq_fiber_main.
void ccq_fiber_entry();
// C++ side of the first activation; never returns.
void ccq_fiber_main(void* fiber);
}

// Restore path must mirror the seeded layout in make_fiber:
// sp → [fcw][mxcsr] [r15 r14 r13 r12 rbx rbp] [return address].
asm(R"(
.text
.align 16
.globl ccq_fiber_swap
.hidden ccq_fiber_swap
.type ccq_fiber_swap, @function
ccq_fiber_swap:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    subq $16, %rsp
    stmxcsr 8(%rsp)
    fnstcw (%rsp)
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    ldmxcsr 8(%rsp)
    fldcw (%rsp)
    addq $16, %rsp
    popq %r15
    popq %r14
    popq %r13
    popq %r12
    popq %rbx
    popq %rbp
    ret
.size ccq_fiber_swap, .-ccq_fiber_swap

.align 16
.globl ccq_fiber_entry
.hidden ccq_fiber_entry
.type ccq_fiber_entry, @function
ccq_fiber_entry:
    movq %r12, %rdi
    callq ccq_fiber_main
    ud2
.size ccq_fiber_entry, .-ccq_fiber_entry
)");
#endif  // CCQ_FAST_FIBER

namespace ccq {
namespace detail {

namespace {

// ---------------------------------------------------------------------------
// Reference backend: one OS thread per node, mutex/cv rendezvous.
// ---------------------------------------------------------------------------

class ThreadPerNodeScheduler final : public Scheduler {
 public:
  void run(NodeId n, const NodeBody& body) override {
    n_ = n;
    tags_.assign(n, OpTag{});
    arrived_ = 0;
    generation_ = 0;
    finished_ = 0;
    aborted_ = false;
    error_ = nullptr;

    std::vector<std::thread> threads;
    threads.reserve(n);
    for (NodeId v = 0; v < n; ++v) {
      try {
        threads.emplace_back([this, &body, v] {
          try {
            body(v);
            task_returned();
          } catch (Aborted&) {
            // Another node already recorded the error.
          } catch (...) {
            abort_run(std::current_exception());
          }
        });
      } catch (const std::exception& e) {
        // Out of threads or address space: abort the run so the nodes that
        // did start unwind out of their collective, then join them below —
        // destroying a joinable std::thread would terminate the process.
        abort_run(std::make_exception_ptr(ModelViolation(
            "thread-per-node backend could not start the thread of node " +
            std::to_string(v) + " of " + std::to_string(n) + ": " +
            e.what())));
        break;
      }
    }
    for (auto& t : threads) t.join();
    if (error_) std::rethrow_exception(error_);
  }

  // Rendezvous: deposit this node's payload, wait for everyone, have the
  // last arrival validate the op tags and run `leader` (delivery +
  // accounting), then release all nodes.
  void collective(NodeId id, OpTag tag, const Thunk& deposit,
                  const Thunk& leader) override {
    std::unique_lock<std::mutex> lk(mu_);
    if (aborted_) throw Aborted{};
    if (finished_ > 0) {
      fail_locked(
          "divergent collectives: a node entered a collective after another "
          "node finished its program");
    }
    tags_[id] = tag;
    deposit();
    ++arrived_;
    if (arrived_ == n_) {
      arrived_ = 0;
      ++generation_;
      for (NodeId v = 0; v < n_; ++v) {
        if (!(tags_[v] == tag)) {
          fail_locked(
              "divergent collectives: nodes issued different operations");
        }
      }
      try {
        leader();
      } catch (...) {
        abort_locked(std::current_exception());
        throw Aborted{};
      }
      cv_.notify_all();
    } else {
      const std::uint64_t my_gen = generation_;
      cv_.wait(lk, [&] { return generation_ != my_gen || aborted_; });
      if (aborted_) throw Aborted{};
    }
  }

 private:
  void abort_locked(std::exception_ptr e) {
    if (!aborted_) {
      aborted_ = true;
      error_ = std::move(e);
    }
    cv_.notify_all();
  }

  void abort_run(std::exception_ptr e) {
    std::lock_guard<std::mutex> lk(mu_);
    abort_locked(std::move(e));
  }

  [[noreturn]] void fail_locked(const std::string& msg) {
    abort_locked(std::make_exception_ptr(ModelViolation(msg)));
    throw Aborted{};
  }

  void task_returned() {
    std::lock_guard<std::mutex> lk(mu_);
    if (aborted_) return;
    if (arrived_ > 0) {
      abort_locked(std::make_exception_ptr(ModelViolation(
          "divergent collectives: a node finished while others were inside "
          "a collective")));
    }
    ++finished_;
  }

  NodeId n_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t arrived_ = 0;
  std::uint64_t generation_ = 0;
  std::size_t finished_ = 0;
  bool aborted_ = false;
  std::exception_ptr error_;
  std::vector<OpTag> tags_;
};

// ---------------------------------------------------------------------------
// Fiber backends: node programs as stackful fibers over the shared pool.
//
// Two backends share the machinery below. kPooled multiplexes all n fibers
// over the worker team through a shared claim counter (dynamic balance);
// kSharded assigns each worker a static set of contiguous node shards and
// runs a plain id-ordered loop over them (owner-computes; no shared counter
// on the resume path, and each worker allocates — first-touches — the
// stacks it will keep resuming). Everything that decides results (the
// serial leader phase, delivery, accounting) is identical, which is the
// determinism argument: the backends differ only in who resumes a fiber,
// never in what the leader observes.
// ---------------------------------------------------------------------------

/// Workers the fiber backends draw from. One process-wide pool sized by
/// hardware_concurrency: engine runs are frequent and short, so per-run
/// thread creation would reintroduce exactly the overhead these backends
/// remove.
ThreadPool& shared_pool() {
  static ThreadPool pool;
  return pool;
}

class FiberSchedulerBase;

struct Fiber {
#ifdef CCQ_FAST_FIBER
  void* sp = nullptr;         // fiber's saved stack pointer while parked
  void* worker_sp = nullptr;  // resuming worker's saved stack pointer
#else
  ucontext_t ctx{};
  ucontext_t* resumer = nullptr;  // the worker context to yield back to
#endif
  std::unique_ptr<char[]> stack;
  FiberSchedulerBase* sched = nullptr;
  NodeId id = 0;
  bool finished = false;
  // Rendezvous payload while parked at a collective.
  OpTag tag{};
  const Scheduler::Thunk* leader = nullptr;
#ifdef CCQ_TSAN
  void* tsan_fiber = nullptr;
  void* tsan_resumer = nullptr;
#endif
};

// The fiber the calling worker thread is currently executing, if any.
thread_local Fiber* tls_fiber = nullptr;

// Per-node fiber stack size (see make_fiber for how stacks are allocated).
constexpr std::size_t kFiberStackBytes = 256 * 1024;

void spin_pause(unsigned& spins) {
  if (++spins < 64) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  } else {
    std::this_thread::yield();
  }
}

class FiberSchedulerBase : public Scheduler {
 public:
  void run(NodeId n, const NodeBody& body) final {
    n_ = n;
    body_ = &body;
    aborted_.store(false, std::memory_order_relaxed);
    any_returned_.store(false, std::memory_order_relaxed);
    error_ = nullptr;
    done_ = false;

    // One slot per node; plan_run (pooled) or the owning worker's first
    // resume phase (sharded) installs the fiber.
    destroy_fibers();
    fibers_.resize(n);

    ThreadPool& pool = shared_pool();
    participants_ = plan_run(pool.size());
    barrier_count_.store(0, std::memory_order_relaxed);
    barrier_sense_.store(false, std::memory_order_relaxed);

    pool.parallel_for(participants_,
                      [this](std::size_t w) { worker_loop(w); });

    destroy_fibers();
    if (error_) std::rethrow_exception(error_);
  }

  // Leader-issued parallel work. The other workers are guaranteed to be
  // spinning at the superstep barrier while a leader thunk runs, so they
  // double as the worker team: publish the chunk function, let everyone
  // (leader included) claim chunk indices, and wait until all chunks have
  // executed. Chunks write disjoint data (the caller's contract), so the
  // claim order cannot reach results.
  //
  // A leader thunk may issue several jobs back to back (FlatPlane::deliver
  // runs three), so a helper parked at the barrier can hold a stale view of
  // one job while the next is being published. Each publish therefore bumps
  // an epoch, and the whole claim state lives in one 64-bit ticket
  // ([epoch | chunks | next], see kTicket* below) that helpers advance with
  // a CAS: a claim taken against a superseded epoch fails the CAS instead
  // of consuming an index — a stale helper can neither run a retired
  // ChunkFn nor steal a chunk from (or credit job_done_ of) the new job.
  void leader_parallel_for(std::size_t chunks, const ChunkFn& fn) final {
    count_job(chunks);
    if (chunks <= 1 || participants_ <= 1 || chunks > kTicketFieldMask) {
      for (std::size_t i = 0; i < chunks; ++i) fn(i);
      return;
    }
    job_done_.store(0, std::memory_order_relaxed);
    job_fn_.store(&fn, std::memory_order_relaxed);
    job_epoch_ = (job_epoch_ + 1) & kTicketEpochMask;  // leader-owned
    job_ticket_.store((job_epoch_ << kTicketEpochShift) |
                          (static_cast<std::uint64_t>(chunks)
                           << kTicketChunksShift),
                      std::memory_order_release);  // publishes the above
    help_with_job();
    unsigned spins = 0;
    while (job_done_.load(std::memory_order_acquire) < chunks) {
      spin_pause(spins);
    }
    job_fn_.store(nullptr, std::memory_order_release);
    // A chunk that threw recorded the error; the delivery state is garbage
    // but the run is aborting, so unwind the leader thunk too.
    if (aborted_.load(std::memory_order_relaxed)) throw Aborted{};
  }

  void collective(NodeId id, OpTag tag, const Thunk& deposit,
                  const Thunk& leader) final {
    Fiber* f = tls_fiber;
    CCQ_CHECK_MSG(f != nullptr && f->sched == this && f->id == id,
                  "collective() called off its scheduler fiber");
    if (aborted_.load(std::memory_order_acquire)) throw Aborted{};
    deposit();
    f->tag = tag;
    // `leader` lives in the caller's frame on this fiber's stack; it stays
    // valid for exactly as long as the fiber is parked here.
    f->leader = &leader;
    yield_to_worker(*f);
    f->leader = nullptr;
    if (aborted_.load(std::memory_order_acquire)) throw Aborted{};
  }

 protected:
  // ---- backend hooks ------------------------------------------------------
  // plan_run: serial (the caller's thread, before any worker starts) —
  // size the worker team and build the backend's resume schedule; returns
  // the team size (≥ 1). resume_phase: parallel — resume this worker's
  // share of the unfinished fibers until each parks at a collective or
  // finishes. end_superstep: serial (the barrier winner, after validation
  // and the leader thunk) — rebuild the resume schedule for the next
  // superstep.
  virtual std::size_t plan_run(std::size_t pool_size) = 0;
  virtual void resume_phase(std::size_t worker) = 0;
  virtual void end_superstep() {}

  NodeId n() const { return n_; }
  Fiber* fiber(NodeId v) const { return fibers_[v].get(); }

 private:
  // Job-ticket layout: [epoch:24 | chunks:20 | next:20]. 2^20 chunks is far
  // past any delivery fan-out (leader_parallel_for falls back to serial
  // beyond it), and `next` never exceeds `chunks` because claims stop once
  // the indices run out, so both fit the same field width.
  static constexpr unsigned kTicketFieldBits = 20;
  static constexpr std::uint64_t kTicketFieldMask =
      (std::uint64_t{1} << kTicketFieldBits) - 1;
  static constexpr unsigned kTicketChunksShift = kTicketFieldBits;
  static constexpr unsigned kTicketEpochShift = 2 * kTicketFieldBits;
  static constexpr std::uint64_t kTicketEpochMask =
      (std::uint64_t{1} << (64 - kTicketEpochShift)) - 1;

 protected:
  // Builds node v's fiber and installs it in the run's fiber table. The
  // pooled backend calls this serially from plan_run; the sharded backend
  // calls it from the owning worker's first resume phase (distinct v ⇒
  // distinct slots, and the superstep barrier orders the writes before the
  // serial phase reads them), so each stack is allocated and first-touched
  // by the worker that keeps resuming it.
  Fiber* make_fiber(NodeId v) {
    auto f = std::make_unique<Fiber>();
    f->sched = this;
    f->id = v;
    // Recycle a banked stack from the previous run if one is available
    // (EngineSession reuse: at a fixed n the steady state allocates no
    // stacks). The pool is mutex-guarded because the sharded backend calls
    // make_fiber from its owning workers in parallel; every stack has the
    // one fixed size, so any one fits. Default-initialised (not
    // value-initialised) allocation so untouched stack pages stay lazily
    // unmapped — 4096 fibers must not commit a gigabyte.
    {
      std::lock_guard<std::mutex> lk(stack_pool_mu_);
      if (!stack_pool_.empty()) {
        f->stack = std::move(stack_pool_.back());
        stack_pool_.pop_back();
      }
    }
    if (f->stack == nullptr) f->stack.reset(new char[kFiberStackBytes]);
#ifdef CCQ_FAST_FIBER
    // Seed the stack so the first ccq_fiber_swap "returns" into
    // ccq_fiber_entry with the Fiber* in r12. The slot order matches the
    // swap's restore path; the -56-byte offset leaves rsp ≡ 8 (mod 16) so
    // the entry shim's call site sees a correctly aligned stack.
    const auto top =
        reinterpret_cast<std::uintptr_t>(f->stack.get() + kFiberStackBytes) &
        ~std::uintptr_t(15);
    auto* slots = reinterpret_cast<void**>(top);
    slots[-1] = reinterpret_cast<void*>(&ccq_fiber_entry);  // ret target
    slots[-2] = nullptr;                                    // rbp
    slots[-3] = nullptr;                                    // rbx
    slots[-4] = f.get();                                    // r12
    slots[-5] = nullptr;                                    // r13
    slots[-6] = nullptr;                                    // r14
    slots[-7] = nullptr;                                    // r15
    char* sp = reinterpret_cast<char*>(slots - 7) - 16;
    std::uint32_t mxcsr;
    asm("stmxcsr %0" : "=m"(mxcsr));
    std::uint16_t fcw;
    asm("fnstcw %0" : "=m"(fcw));
    std::memcpy(sp + 8, &mxcsr, sizeof mxcsr);
    std::memcpy(sp, &fcw, sizeof fcw);
    f->sp = sp;
#else
    CCQ_CHECK(getcontext(&f->ctx) == 0);
    f->ctx.uc_stack.ss_sp = f->stack.get();
    f->ctx.uc_stack.ss_size = kFiberStackBytes;
    f->ctx.uc_link = nullptr;
    // makecontext only passes ints; smuggle the Fiber* through two halves.
    const auto p = reinterpret_cast<std::uintptr_t>(f.get());
    makecontext(&f->ctx, reinterpret_cast<void (*)()>(&trampoline), 2,
                static_cast<unsigned>(p >> 32),
                static_cast<unsigned>(p & 0xffffffffu));
#endif
#ifdef CCQ_TSAN
    f->tsan_fiber = __tsan_create_fiber(0);
#endif
    fibers_[v] = std::move(f);
    return fibers_[v].get();
  }

 private:
  void destroy_fibers() {
    // Bank the stacks for the next run (serial: called from run() entry and
    // exit only). The fiber bookkeeping itself is rebuilt per run — only
    // the stack allocations, the expensive part, survive.
    std::lock_guard<std::mutex> lk(stack_pool_mu_);
    for (auto& f : fibers_) {
      if (!f) continue;
#ifdef CCQ_TSAN
      if (f->tsan_fiber) __tsan_destroy_fiber(f->tsan_fiber);
#endif
      stack_pool_.push_back(std::move(f->stack));
    }
    fibers_.clear();
  }

 public:
  // Top of every fiber stack: run the node body, swallow Aborted (another
  // node already recorded the error), record anything else, then yield for
  // the last time. A finished fiber is never resumed, so control cannot
  // fall off the end. Public so the fast-fiber first-activation shim
  // (ccq_fiber_main) can reach it.
  static void run_node(Fiber* f) {
    FiberSchedulerBase* sched = f->sched;
    try {
      (*sched->body_)(f->id);
      sched->any_returned_.store(true, std::memory_order_relaxed);
    } catch (Aborted&) {
    } catch (...) {
      sched->record_error(std::current_exception());
    }
    f->finished = true;
    sched->yield_to_worker(*f);
    std::abort();  // unreachable
  }

#ifndef CCQ_FAST_FIBER
  static void trampoline(unsigned hi, unsigned lo) {
    run_node(reinterpret_cast<Fiber*>((static_cast<std::uintptr_t>(hi) << 32) |
                                      static_cast<std::uintptr_t>(lo)));
  }
#endif

 protected:
  void resume(Fiber& f) {
    CCQ_DCHECK(!f.finished);
    count_switch();
    Fiber* prev = tls_fiber;
    tls_fiber = &f;
#ifdef CCQ_FAST_FIBER
    ccq_fiber_swap(&f.worker_sp, f.sp);
#else
    ucontext_t here;
    f.resumer = &here;
#ifdef CCQ_TSAN
    f.tsan_resumer = __tsan_get_current_fiber();
    __tsan_switch_to_fiber(f.tsan_fiber, 0);
#endif
    swapcontext(&here, &f.ctx);
#endif
    tls_fiber = prev;
  }

  void yield_to_worker(Fiber& f) {
#ifdef CCQ_FAST_FIBER
    ccq_fiber_swap(&f.sp, f.worker_sp);
#else
#ifdef CCQ_TSAN
    __tsan_switch_to_fiber(f.tsan_resumer, 0);
#endif
    swapcontext(&f.ctx, f.resumer);
#endif
  }

 private:
  // Claim and run chunks of the currently published leader job, if any.
  // Each claim is a CAS that advances the ticket's `next` field while
  // re-asserting the epoch (and chunk count) captured in the snapshot, so a
  // helper holding state from a superseded job simply fails the CAS and
  // re-reads — it never consumes an index or increments job_done_ for a job
  // it did not observe. The ChunkFn is loaded between the snapshot and the
  // CAS: a successful claim of epoch e proves job e was still incomplete at
  // claim time, and a later epoch's fn (or the retiring nullptr store) only
  // becomes visible after job e's last job_done_ increment, which this very
  // chunk has yet to perform — so the loaded fn is necessarily job e's.
  void help_with_job() {
    std::uint64_t t = job_ticket_.load(std::memory_order_acquire);
    for (;;) {
      const std::uint64_t chunks = (t >> kTicketChunksShift) & kTicketFieldMask;
      const std::uint64_t i = t & kTicketFieldMask;
      if (i >= chunks) return;  // no job published, or all chunks claimed
      const ChunkFn* fn = job_fn_.load(std::memory_order_acquire);
      if (fn == nullptr) return;
      if (!job_ticket_.compare_exchange_weak(t, t + 1,
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
        continue;  // epoch moved on or another helper took i; re-validate
      }
      try {
        (*fn)(i);
      } catch (...) {
        record_error(std::current_exception());
      }
      job_done_.fetch_add(1, std::memory_order_acq_rel);
      t = job_ticket_.load(std::memory_order_acquire);
    }
  }

  void record_error(std::exception_ptr e) {
    {
      std::lock_guard<std::mutex> lk(error_mu_);
      if (!error_) error_ = std::move(e);
    }
    aborted_.store(true, std::memory_order_release);
  }

  // One superstep: resume this worker's share of the unfinished fibers
  // until each parks at a collective (or finishes), meet the other workers
  // at the sense-reversing barrier, and let the last arrival run the serial
  // leader step.
  void worker_loop(std::size_t worker) {
    bool sense = false;
    while (true) {
      resume_phase(worker);
      sense = !sense;
      if (barrier_count_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          participants_) {
        superstep_end();
        barrier_count_.store(0, std::memory_order_relaxed);
        barrier_sense_.store(sense, std::memory_order_release);
      } else {
        unsigned spins = 0;
        while (barrier_sense_.load(std::memory_order_acquire) != sense) {
          if (job_fn_.load(std::memory_order_acquire) != nullptr) {
            help_with_job();
            spins = 0;
          } else {
            spin_pause(spins);
          }
        }
      }
      if (done_) return;
    }
  }

  // Serial phase: every fiber has yielded, so plain accesses are safe (the
  // barrier orders them). Validates the rendezvous, runs the leader, and
  // lets the backend rebuild its resume schedule.
  void superstep_end() {
    std::size_t parked = 0;
    for (const auto& f : fibers_) {
      if (f && !f->finished) ++parked;
    }
    if (!aborted_.load(std::memory_order_relaxed) && parked > 0) {
      if (any_returned_.load(std::memory_order_relaxed)) {
        record_error(std::make_exception_ptr(ModelViolation(
            "divergent collectives: a node finished while others were inside "
            "a collective")));
      } else {
        // All n fibers are parked at a collective; validate and deliver.
        // (parked > 0 and no normal return means no fiber finished at all:
        // an exceptional finish would have set aborted_.)
        Fiber* first = fibers_.front().get();
        for (const auto& f : fibers_) {
          if (!(f->tag == first->tag)) {
            record_error(std::make_exception_ptr(ModelViolation(
                "divergent collectives: nodes issued different operations")));
            break;
          }
        }
        if (!aborted_.load(std::memory_order_relaxed)) {
          try {
            (*first->leader)();
          } catch (...) {
            record_error(std::current_exception());
          }
        }
      }
    }
    // Next superstep resumes every unfinished fiber — after an abort they
    // observe aborted_ and unwind with Aborted, draining the schedule.
    end_superstep();
    done_ = parked == 0;
  }

  // Recycled fiber stacks; see make_fiber.
  std::mutex stack_pool_mu_;
  std::vector<std::unique_ptr<char[]>> stack_pool_;

  NodeId n_ = 0;
  const NodeBody* body_ = nullptr;
  // One entry per node id; slots are filled by plan_run or (sharded) by the
  // owning worker before the first barrier, so the serial phase always sees
  // a complete table.
  std::vector<std::unique_ptr<Fiber>> fibers_;
  bool done_ = false;  // written in the serial phase, read after release

  std::size_t participants_ = 0;
  std::atomic<std::size_t> barrier_count_{0};
  std::atomic<bool> barrier_sense_{false};

  // Leader-issued parallel job (leader_parallel_for). The ticket carries
  // the epoch, chunk count, and next unclaimed index in one word; its
  // release store in leader_parallel_for publishes job_fn_ and the
  // job_done_ reset. job_epoch_ is written only by the leader (the serial
  // phase) and reaches helpers through the ticket.
  std::atomic<const ChunkFn*> job_fn_{nullptr};
  std::atomic<std::uint64_t> job_ticket_{0};
  std::uint64_t job_epoch_ = 0;
  std::atomic<std::size_t> job_done_{0};

  std::atomic<bool> aborted_{false};
  std::atomic<bool> any_returned_{false};
  std::mutex error_mu_;
  std::exception_ptr error_;
};

// Dynamic balance: all n fibers sit in one run list and workers claim them
// through a shared counter, so a straggling node program cannot idle the
// rest of the team. The price is one contended fetch_add per resume.
class PooledScheduler final : public FiberSchedulerBase {
 public:
  explicit PooledScheduler(std::size_t workers) : workers_cap_(workers) {}

 private:
  std::size_t plan_run(std::size_t pool_size) override {
    run_list_.clear();
    run_list_.reserve(n());
    for (NodeId v = 0; v < n(); ++v) run_list_.push_back(make_fiber(v));
    next_.store(0, std::memory_order_relaxed);
    std::size_t workers = std::min<std::size_t>(pool_size, n());
    if (workers_cap_ > 0) workers = std::min(workers, workers_cap_);
    return workers == 0 ? 1 : workers;
  }

  void resume_phase(std::size_t /*worker*/) override {
    std::size_t i;
    while ((i = next_.fetch_add(1, std::memory_order_relaxed)) <
           run_list_.size()) {
      resume(*run_list_[i]);
    }
  }

  void end_superstep() override {
    run_list_.clear();
    for (NodeId v = 0; v < n(); ++v) {
      Fiber* f = fiber(v);
      if (!f->finished) run_list_.push_back(f);
    }
    next_.store(0, std::memory_order_relaxed);
  }

  const std::size_t workers_cap_;
  std::vector<Fiber*> run_list_;  // mutated only in the serial phase
  std::atomic<std::size_t> next_{0};
};

// Owner-computes (the libgalois/libdist pattern): the id space is cut into
// `shards` contiguous blocks handed to workers statically, and each worker
// resumes its owned nodes with a plain id-ordered loop — no shared claim
// counter, no cross-worker cache traffic on the resume path, and fiber
// stacks are created by their owner on first resume so the memory a worker
// keeps switching through is memory it allocated itself. Static ownership
// trades the pooled backend's load balance for that locality, which is the
// right trade exactly when n ≫ cores: with hundreds of fibers per worker,
// per-shard imbalance averages out (the scenario matrix's sharded
// routing_uniform and mm_bool_3d cells measure this).
class ShardedScheduler final : public FiberSchedulerBase {
 public:
  explicit ShardedScheduler(std::size_t shards) : shards_cfg_(shards) {}

 private:
  std::size_t plan_run(std::size_t pool_size) override {
    // Shard count: configured, else one shard per pool thread; clamped so
    // every shard is non-empty. The worker team never exceeds the shard
    // count — a worker with no shard would only spin at the barrier.
    std::size_t shards = shards_cfg_ == 0 ? pool_size : shards_cfg_;
    shards = std::max<std::size_t>(
        1, std::min<std::size_t>(shards, n()));
    const std::size_t workers =
        std::max<std::size_t>(1, std::min(pool_size, shards));
    owned_.assign(workers, {});
    // Shard s owns the contiguous block [s·n/S, (s+1)·n/S) — balanced to
    // ±1 node even when S does not divide n — and shards are dealt to
    // workers round-robin so a team smaller than S still covers every
    // node. Results cannot depend on any of this: ownership only decides
    // which worker resumes a fiber, never what the serial phase computes.
    for (std::size_t s = 0; s < shards; ++s) {
      const NodeId b = static_cast<NodeId>(s * n() / shards);
      const NodeId e = static_cast<NodeId>((s + 1) * n() / shards);
      if (b < e) owned_[s % workers].push_back({b, e});
    }
    return workers;
  }

  void resume_phase(std::size_t worker) override {
    for (const auto& [b, e] : owned_[worker]) {
      for (NodeId v = b; v < e; ++v) {
        Fiber* f = fiber(v);
        if (f == nullptr) f = make_fiber(v);  // first superstep, owner-local
        if (!f->finished) resume(*f);
      }
    }
  }

  const std::size_t shards_cfg_;
  // Per-worker owned shards as [begin, end) node-id ranges; built in
  // plan_run, read-only while workers run.
  std::vector<std::vector<std::pair<NodeId, NodeId>>> owned_;
};

}  // namespace

#ifdef CCQ_FAST_FIBER
extern "C" void ccq_fiber_main(void* fiber) {
  FiberSchedulerBase::run_node(static_cast<Fiber*>(fiber));
}
#endif

bool on_scheduler_fiber() { return tls_fiber != nullptr; }

std::unique_ptr<Scheduler> make_scheduler(ExecutionBackend backend,
                                          std::size_t workers) {
  switch (backend) {
    case ExecutionBackend::kThreadPerNode:
      return std::make_unique<ThreadPerNodeScheduler>();
    case ExecutionBackend::kPooled:
      return std::make_unique<PooledScheduler>(workers);
    case ExecutionBackend::kSharded:
      return std::make_unique<ShardedScheduler>(workers);
  }
  CCQ_CHECK_MSG(false, "unknown execution backend");
  return nullptr;
}

}  // namespace detail
}  // namespace ccq
