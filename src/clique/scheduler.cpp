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

// Sanitizers cannot see fiber stack switches; annotate them (TSan's fiber
// API, ASan's start/finish_switch_fiber) so the -fsanitize=thread and
// -fsanitize=address CI jobs can vet the scheduler and the node programs
// it runs.
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
#if defined(__SANITIZE_ADDRESS__)
#define CCQ_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CCQ_ASAN 1
#endif
#endif
#ifdef CCQ_ASAN
#include <sanitizer/asan_interface.h>
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
// Fiber backend: node programs as stackful fibers over the shared pool.
//
// The calling thread creates all n fibers, then a team of W workers runs the
// supersteps: worker w resumes the unfinished fibers of the contiguous id
// block [w·n/W, (w+1)·n/W) in id order, the team meets at a barrier, and the
// last arrival runs the serial leader step (validate + deliver). A fiber is
// resumed by the same worker for the whole run, and no shared counter sits
// on the resume path. Which worker resumes a fiber never reaches results:
// delivery and accounting happen only in the serial phase, in id order.
// ---------------------------------------------------------------------------

/// Workers the fiber backend draws from. One process-wide pool sized by
/// hardware_concurrency: engine runs are frequent and short, so per-run
/// thread creation would reintroduce exactly the overhead fibers remove.
ThreadPool& shared_pool() {
  static ThreadPool pool;
  return pool;
}

class FiberScheduler;

struct Fiber {
#ifdef CCQ_FAST_FIBER
  void* sp = nullptr;         // fiber's saved stack pointer while parked
  void* worker_sp = nullptr;  // resuming worker's saved stack pointer
#else
  ucontext_t ctx{};
  ucontext_t* resumer = nullptr;  // the worker context to yield back to
#endif
  std::unique_ptr<char[]> stack;
  FiberScheduler* sched = nullptr;
  NodeId id = 0;
  bool finished = false;
  // Rendezvous payload while parked at a collective.
  OpTag tag{};
  const Scheduler::Thunk* leader = nullptr;
#ifdef CCQ_TSAN
  void* tsan_fiber = nullptr;
  void* tsan_resumer = nullptr;
#endif
#ifdef CCQ_ASAN
  void* asan_fake_stack = nullptr;  // the fiber's fake stack while parked
  const void* asan_resumer_bottom = nullptr;  // the resuming worker's stack
  std::size_t asan_resumer_size = 0;
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

class FiberScheduler final : public Scheduler {
 public:
  explicit FiberScheduler(std::size_t workers) : workers_cap_(workers) {}

  void run(NodeId n, const NodeBody& body) override {
    n_ = n;
    body_ = &body;
    aborted_.store(false, std::memory_order_relaxed);
    any_returned_.store(false, std::memory_order_relaxed);
    error_ = nullptr;
    done_ = false;

    // The caller creates every fiber before the team starts, so all stacks
    // come from this thread's malloc arena (DESIGN.md §12), and a failed
    // allocation throws here, before any worker waits at the barrier.
    destroy_fibers();
    fibers_.reserve(n);
    for (NodeId v = 0; v < n; ++v) fibers_.push_back(make_fiber(v));

    ThreadPool& pool = shared_pool();
    team_ = std::min<std::size_t>(pool.size(), n);
    if (workers_cap_ > 0) team_ = std::min(team_, workers_cap_);
    barrier_count_.store(0, std::memory_order_relaxed);
    barrier_sense_.store(false, std::memory_order_relaxed);

    pool.parallel_for(team_, [this](std::size_t w) { worker_loop(w); });

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
  void leader_parallel_for(std::size_t chunks, const ChunkFn& fn) override {
    count_job(chunks);
    if (chunks <= 1 || team_ <= 1 || chunks > kTicketFieldMask) {
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
                  const Thunk& leader) override {
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

  // Top of every fiber stack: run the node body, swallow Aborted (another
  // node already recorded the error), record anything else, then yield for
  // the last time. A finished fiber is never resumed, so control cannot
  // fall off the end. Public so the fast-fiber first-activation shim
  // (ccq_fiber_main) can reach it.
  static void run_node(Fiber* f) {
#ifdef CCQ_ASAN
    // First activation: the other half of resume()'s start_switch_fiber.
    __sanitizer_finish_switch_fiber(nullptr, &f->asan_resumer_bottom,
                                    &f->asan_resumer_size);
#endif
    FiberScheduler* sched = f->sched;
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

  // Builds node v's fiber on a recycled stack if the previous run banked
  // one (EngineSession reuse: at a fixed n the steady state allocates no
  // stacks); every stack has the one fixed size, so any one fits.
  // Default-initialised (not value-initialised) allocation so untouched
  // stack pages stay lazily unmapped — 4096 fibers must not commit a
  // gigabyte.
  std::unique_ptr<Fiber> make_fiber(NodeId v) {
    auto f = std::make_unique<Fiber>();
    f->sched = this;
    f->id = v;
    if (stack_pool_.empty()) {
      f->stack.reset(new char[kFiberStackBytes]);
    } else {
      f->stack = std::move(stack_pool_.back());
      stack_pool_.pop_back();
#ifdef CCQ_ASAN
      // The previous fiber's last frames are still poisoned in the shadow.
      __asan_unpoison_memory_region(f->stack.get(), kFiberStackBytes);
#endif
    }
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
    return f;
  }

  // Bank the stacks for the next run (called from run() entry and exit
  // only). The fiber bookkeeping itself is rebuilt per run — only the stack
  // allocations, the expensive part, survive.
  void destroy_fibers() {
    for (auto& f : fibers_) {
#ifdef CCQ_TSAN
      __tsan_destroy_fiber(f->tsan_fiber);
#endif
      stack_pool_.push_back(std::move(f->stack));
    }
    fibers_.clear();
  }

  void resume(Fiber& f) {
    CCQ_DCHECK(!f.finished);
    count_switch();
    Fiber* prev = tls_fiber;
    tls_fiber = &f;
#ifdef CCQ_ASAN
    void* fake_stack = nullptr;
    __sanitizer_start_switch_fiber(&fake_stack, f.stack.get(),
                                   kFiberStackBytes);
#endif
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
#ifdef CCQ_ASAN
    __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
    tls_fiber = prev;
  }

  void yield_to_worker(Fiber& f) {
#ifdef CCQ_ASAN
    // A finished fiber never runs again: the null save lets ASan free its
    // fake stack.
    __sanitizer_start_switch_fiber(f.finished ? nullptr : &f.asan_fake_stack,
                                   f.asan_resumer_bottom, f.asan_resumer_size);
#endif
#ifdef CCQ_FAST_FIBER
    ccq_fiber_swap(&f.sp, f.worker_sp);
#else
#ifdef CCQ_TSAN
    __tsan_switch_to_fiber(f.tsan_resumer, 0);
#endif
    swapcontext(&f.ctx, f.resumer);
#endif
#ifdef CCQ_ASAN
    __sanitizer_finish_switch_fiber(f.asan_fake_stack, &f.asan_resumer_bottom,
                                    &f.asan_resumer_size);
#endif
  }

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

  // One superstep: resume the unfinished fibers of this worker's block
  // until each parks at a collective (or finishes), meet the other workers
  // at the sense-reversing barrier, and let the last arrival run the serial
  // leader step.
  void worker_loop(std::size_t worker) {
    // Blocks are balanced to ±1 fiber when the team size does not divide n.
    const NodeId begin = static_cast<NodeId>(worker * n_ / team_);
    const NodeId end = static_cast<NodeId>((worker + 1) * n_ / team_);
    bool sense = false;
    while (true) {
      for (NodeId v = begin; v < end; ++v) {
        if (!fibers_[v]->finished) resume(*fibers_[v]);
      }
      sense = !sense;
      if (barrier_count_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          team_) {
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
  // barrier orders them). Validates the rendezvous and runs the leader.
  void superstep_end() {
    std::size_t parked = 0;
    for (const auto& f : fibers_) parked += f->finished ? 0 : 1;
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
    // The next superstep resumes every unfinished fiber — after an abort
    // they observe aborted_ and unwind with Aborted, draining the run.
    done_ = parked == 0;
  }

  const std::size_t workers_cap_;  // 0 = pool size
  // Recycled fiber stacks; see make_fiber.
  std::vector<std::unique_ptr<char[]>> stack_pool_;

  NodeId n_ = 0;
  const NodeBody* body_ = nullptr;
  std::vector<std::unique_ptr<Fiber>> fibers_;  // one per node id
  bool done_ = false;  // written in the serial phase, read after release

  std::size_t team_ = 0;
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

}  // namespace

#ifdef CCQ_FAST_FIBER
extern "C" void ccq_fiber_main(void* fiber) {
  FiberScheduler::run_node(static_cast<Fiber*>(fiber));
}
#endif

bool on_scheduler_fiber() { return tls_fiber != nullptr; }

std::unique_ptr<Scheduler> make_scheduler(ExecutionBackend backend,
                                          std::size_t workers) {
  switch (backend) {
    case ExecutionBackend::kThreadPerNode:
      return std::make_unique<ThreadPerNodeScheduler>();
    case ExecutionBackend::kPooled:
      return std::make_unique<FiberScheduler>(workers);
  }
  CCQ_CHECK_MSG(false, "unknown execution backend");
  return nullptr;
}

}  // namespace detail
}  // namespace ccq
