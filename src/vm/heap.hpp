// Managed heap: objects, 1-D arrays, true rank-2 arrays, boxes and strings,
// with a generational, parallel stop-the-world mark-sweep collector. The CLI
// requires automatic heap management; the benchmarks (Create, Serial, Boxing,
// the SciMark kernels' array traffic) all allocate through here.
//
// Storage design (DESIGN.md §7): the heap hands out 64 KiB-aligned *segments*
// under its lock; each mutator thread owns a *TLAB* (thread-local allocation
// buffer) — a bump-pointer window into a segment or into a free run recovered
// by the sweeper — and allocates objects inside it with zero synchronization.
// The lock is taken only to refill an exhausted TLAB (one lock acquisition
// per ~64 KiB of allocation instead of one per object) and for oversized
// objects (> 1/4 segment), which go to a dedicated large-object list. Every
// segment is kept fully tiled with object headers (dead space is covered by
// ObjKind::Free filler headers), so the sweeper can walk a segment linearly
// using the per-object size stored in the header. Each segment embeds a card
// table in its first kGcSegmentMetaBytes: the write barrier masks the object
// address down to the segment base and dirties the 512-byte card holding the
// object's header.
//
// Generations (non-moving): the GcFrame root protocol hands out roots by
// value, so objects can never move — the nursery is therefore *logical*:
// every region handed to a TLAB since the last collection is a young window,
// and a minor collection marks only from young roots plus the dirty cards of
// old objects, sweeps only the young windows, and promotes every survivor in
// place by setting the kGcOld header bit (promotion threshold = one
// collection, which is exactly what makes clearing the scanned cards sound:
// after the sweep an old->young edge has become old->old). A major
// collection marks the full heap with a parallel worker pool and sweeps
// segment-at-a-time across threads; segments are independently walkable so
// workers claim them with one atomic increment.
//
// Collection protocol: allocation is the only GC trigger. Allocated-byte
// counts accumulate per-TLAB and are folded into the heap's atomic
// bytes_since_gc_ at refill points; when the folded total exceeds the budget,
// the refilling thread asks the VirtualMachine (via the gc_requester
// callback) to bring all managed threads to safepoints and then runs
// gc_prepare / mark(root)* / gc_perform. The requested kind is Minor unless
// the promoted (old-generation) byte count has outgrown its own threshold.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "vm/module.hpp"
#include "vm/value.hpp"

namespace hpcnet::vm {

/// Free is a filler pseudo-object covering dead space inside a segment so the
/// sweeper can walk segments linearly; it is never visible to managed code.
enum class ObjKind : std::uint8_t { Instance, Array, Matrix2, Boxed, String,
                                    Free };

/// Which collection the rendezvous runs: Minor traces young windows + dirty
/// cards and promotes survivors; Major marks and sweeps the whole heap.
enum class GcKind : std::uint8_t { Minor, Major };

struct ObjHeader {
  /// gc_state bit layout. Marked is claimed with a relaxed fetch_or so
  /// parallel markers race benignly; Old is the promotion bit (set once,
  /// under stop-the-world); Remembered is the large-object stand-in for a
  /// dirty card (large blocks are not segment-aligned, so the barrier cannot
  /// mask their address down to a card table).
  static constexpr std::uint8_t kGcMarked = 1;
  static constexpr std::uint8_t kGcOld = 2;
  static constexpr std::uint8_t kGcRemembered = 4;

  std::int32_t klass = -1;   // class id for Instance; -1 otherwise
  ObjKind kind = ObjKind::Instance;
  ValType elem = ValType::None;  // element type for Array/Matrix2/Boxed
  std::atomic<std::uint8_t> gc_state{0};  // kGc* bits; 0 = young, unmarked
  std::uint32_t lock_id = 0;  // 1-based monitor-table index, 0 = never locked
  std::int32_t length = 0;    // Array: elements; Matrix2: rows; String: bytes;
                              // Instance: field count; Boxed: 1
  std::int32_t cols = 0;      // Matrix2 only
  std::uint32_t alloc_bytes = 0;  // total block size (header + payload + pad)
                                  // for segment-resident objects; the sweeper
                                  // walks segments by this. 0 for objects on
                                  // the large-object list (side table holds
                                  // their sizes, which may exceed 4 GiB).

  bool is_marked() const {
    return (gc_state.load(std::memory_order_relaxed) & kGcMarked) != 0;
  }
  bool is_old() const {
    return (gc_state.load(std::memory_order_relaxed) & kGcOld) != 0;
  }
  /// Claims the mark bit; true when this caller won the claim. Relaxed is
  /// enough: the pool handshake orders marking against mutation, and
  /// duplicate tracing (the only race) is idempotent.
  bool try_mark() {
    return (gc_state.fetch_or(kGcMarked, std::memory_order_relaxed) &
            kGcMarked) == 0;
  }

  // Payload follows the header, 8-byte aligned.
  Slot* fields() { return reinterpret_cast<Slot*>(this + 1); }
  const Slot* fields() const { return reinterpret_cast<const Slot*>(this + 1); }
  void* data() { return this + 1; }
  const void* data() const { return this + 1; }

  std::int32_t* i32_data() { return static_cast<std::int32_t*>(data()); }
  std::int64_t* i64_data() { return static_cast<std::int64_t*>(data()); }
  float* f32_data() { return static_cast<float*>(data()); }
  double* f64_data() { return static_cast<double*>(data()); }
  ObjRef* ref_data() { return static_cast<ObjRef*>(data()); }
  char* chars() { return static_cast<char*>(data()); }
  const char* chars() const { return static_cast<const char*>(data()); }
};

/// Segment geometry, shared by the allocator and the inline write barrier.
/// Segments are allocated at kGcSegmentBytes alignment so the barrier can
/// reach the embedded card table with one mask.
inline constexpr std::size_t kGcSegmentBytes = 64u << 10;
inline constexpr std::size_t kGcCardShift = 9;  // 512-byte cards
inline constexpr std::size_t kGcCardsPerSegment =
    kGcSegmentBytes >> kGcCardShift;
/// Bytes reserved at the start of every segment for SegmentMeta; the object
/// area (and every TLAB window) starts after it.
inline constexpr std::size_t kGcSegmentMetaBytes = 256;

/// Embedded at the base of every segment. One card byte per 512 bytes of
/// segment; the barrier dirties the card containing the stored-to object's
/// HEADER (scanning re-derives field spans from the header, so header-granule
/// cards are enough and stay valid when free runs are coalesced). dirty_any
/// marks the segment as enqueued on its heap's intrusive dirty list
/// (next_dirty / dirty_list): the first barrier hit on a clean segment
/// pushes its meta onto the list, and a minor collection scans exactly the
/// listed segments — pause cost tracks the number of *dirtied* segments,
/// not the size of the old generation, which is what keeps minor pauses
/// flat as the heap grows.
struct SegmentMeta {
  std::atomic<std::uint8_t> cards[kGcCardsPerSegment] = {};
  std::atomic<std::uint8_t> dirty_any{0};
  /// Treiber-stack link; meaningful only while dirty_any is set.
  std::atomic<SegmentMeta*> next_dirty{nullptr};
  /// The owning heap's dirty-list head, set once when the segment enters
  /// service (the barrier has no heap reference — only the masked address).
  std::atomic<SegmentMeta*>* dirty_list = nullptr;

  void clear() {
    for (auto& c : cards) c.store(0, std::memory_order_relaxed);
    dirty_any.store(0, std::memory_order_relaxed);
    next_dirty.store(nullptr, std::memory_order_relaxed);
  }
};
static_assert(sizeof(SegmentMeta) <= kGcSegmentMetaBytes,
              "card table must fit the reserved segment prefix");

/// Old->young write barrier. Call after storing a reference into `obj` (a
/// non-null object that may be old); every ref-store site in all three
/// engine tiers, the serializer's fixup pass and the RegIR CARDMARK op go
/// through here. Deliberately unconditional (no "is old?" load): two relaxed
/// byte stores are cheaper than a dependent branch, and the minor scan
/// filters young objects anyway. Large objects (alloc_bytes == 0) are not
/// segment-aligned, so they use the kGcRemembered header bit instead of a
/// card — masking their address would touch unmapped memory.
inline void gc_write_barrier(ObjRef obj) {
  if (obj->alloc_bytes != 0) {
    const auto addr = reinterpret_cast<std::uintptr_t>(obj);
    auto* meta = reinterpret_cast<SegmentMeta*>(addr & ~(kGcSegmentBytes - 1));
    meta->cards[(addr & (kGcSegmentBytes - 1)) >> kGcCardShift].store(
        1, std::memory_order_relaxed);
    // First store into a clean segment enqueues it on the heap's dirty
    // list (lock-free push; the exchange arbitrates racing first-storers).
    // Repeat stores cost one extra relaxed load on the card's cache line.
    if (meta->dirty_any.load(std::memory_order_relaxed) == 0 &&
        meta->dirty_any.exchange(1, std::memory_order_relaxed) == 0) {
      SegmentMeta* head = meta->dirty_list->load(std::memory_order_relaxed);
      do {
        meta->next_dirty.store(head, std::memory_order_relaxed);
      } while (!meta->dirty_list->compare_exchange_weak(
          head, meta, std::memory_order_release, std::memory_order_relaxed));
    }
  } else {
    obj->gc_state.fetch_or(ObjHeader::kGcRemembered,
                           std::memory_order_relaxed);
  }
}

/// Bytes per element for array storage.
std::size_t elem_size(ValType t);

struct HeapStats {
  std::size_t live_objects = 0;
  std::size_t live_bytes = 0;
  std::size_t total_allocations = 0;
  std::size_t collections = 0;       // minor + major
  std::size_t minor_collections = 0;
  std::size_t major_collections = 0;
  std::size_t swept_objects = 0;
  std::size_t promoted_bytes = 0;    // cumulative survivor bytes turned old
  std::size_t old_bytes = 0;         // current old-generation live bytes
  std::size_t segments = 0;        // active (walkable) segments
  std::size_t pooled_segments = 0; // empty segments awaiting reuse
  std::size_t large_objects = 0;   // live entries on the large-object list
};

/// A tenant's allocation budget (src/vm/service, DESIGN.md §11): a shared
/// atomic pool of bytes that TLAB refills and large-object allocations charge
/// against before taking heap space. When a charge would overdraw the pool
/// the allocation is refused (alloc_* return nullptr) and the engines raise a
/// managed OutOfMemoryException — one tenant's allocation storm cannot take
/// heap headroom from a co-tenant. Granularity: a budgeted TLAB refill always
/// charges exactly one kSegmentBytes granule (bumps inside the window are
/// then free), independent of fragmentation state, so the budget-kill point
/// is deterministic; the large-object path charges exact sizes. Promotion
/// charges nothing: the budget caps a tenant's in-flight allocation, and a
/// survivor's bytes were already paid for at refill time.
class AllocBudget {
 public:
  /// Limits above INT64_MAX clamp to INT64_MAX (the pool arithmetic is
  /// signed): an over-wide configuration means "effectively unmetered", not
  /// a pool that starts overdrawn.
  explicit AllocBudget(std::uint64_t limit_bytes)
      : remaining_(static_cast<std::int64_t>(std::min<std::uint64_t>(
            limit_bytes, std::numeric_limits<std::int64_t>::max()))) {}

  /// Attempts to take `bytes` from the pool; false when it would overdraw.
  bool try_charge(std::uint64_t bytes) {
    if (bytes > static_cast<std::uint64_t>(
                    std::numeric_limits<std::int64_t>::max())) {
      return false;  // can never fit in a clamped pool; the cast would wrap
    }
    std::int64_t cur = remaining_.load(std::memory_order_relaxed);
    while (cur >= static_cast<std::int64_t>(bytes)) {
      if (remaining_.compare_exchange_weak(
              cur, cur - static_cast<std::int64_t>(bytes),
              std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

  /// Returns bytes to the pool (job teardown: the budget bounds a tenant's
  /// in-flight allocation, not its lifetime total; killed jobs' garbage is
  /// reclaimed by the next GC). Only charged amounts may be released, so the
  /// clamped cast cannot be reached in practice.
  void release(std::uint64_t bytes) {
    remaining_.fetch_add(static_cast<std::int64_t>(std::min<std::uint64_t>(
                             bytes, std::numeric_limits<std::int64_t>::max())),
                         std::memory_order_relaxed);
  }

  std::int64_t remaining() const {
    return remaining_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> remaining_;
};

/// A thread's bump-allocation window. Owned by the mutator's VMContext and
/// registered with the Heap while the thread is attached; only the owning
/// thread touches it while the world is running, so the allocation fast path
/// needs no synchronization. The sweeper retires all registered TLABs during
/// the stop-the-world window (the park handshake provides the
/// happens-before edge TSan needs).
class Tlab {
 public:
  Tlab() = default;
  Tlab(const Tlab&) = delete;
  Tlab& operator=(const Tlab&) = delete;

  /// Binds (or, with nullptr, unbinds) a tenant budget: subsequent refills
  /// and large allocations through this TLAB charge the budget and are
  /// refused when it runs dry. Resets budget_charged(). Callers should
  /// retire the TLAB around bind/unbind (Heap::retire_tlab) so a window
  /// acquired under one accounting regime is not consumed under another.
  void bind_budget(AllocBudget* b) {
    budget_ = b;
    budget_charged_ = 0;
  }
  AllocBudget* budget() const { return budget_; }
  /// Bytes charged to the bound budget since bind_budget().
  std::uint64_t budget_charged() const { return budget_charged_; }

 private:
  friend class Heap;
  char* cur_ = nullptr;
  char* end_ = nullptr;
  // Allocation accounting since the last fold into the heap's shared
  // counters (see Heap::fold_locked).
  std::uint64_t pending_allocs_ = 0;
  std::uint64_t pending_bytes_ = 0;
  // Tenant accounting (null = unmetered; the heap-shared TLAB is always
  // unmetered, which is why metered jobs must never route through it).
  AllocBudget* budget_ = nullptr;
  std::uint64_t budget_charged_ = 0;
};

class Heap {
 public:
  /// Segment granule handed to TLABs. Aligned to its own size so the write
  /// barrier reaches the embedded card table with one mask; one lock
  /// acquisition per segment of allocation instead of one per object.
  static constexpr std::size_t kSegmentBytes = kGcSegmentBytes;
  /// Blocks of at least this total size bypass TLABs for the large-object
  /// list (they would waste too much of a segment).
  static constexpr std::size_t kLargeThreshold = kSegmentBytes / 4;
  /// Empty segments kept for reuse before being returned to the OS.
  static constexpr std::size_t kMaxPooledSegments = 256;

  /// `module` supplies field layouts for marking instances. GC worker count
  /// defaults from HPCNET_GC_THREADS, clamped to hardware concurrency.
  explicit Heap(Module* module, std::size_t gc_threshold_bytes = 64u << 20);
  ~Heap();

  Heap(const Heap&) = delete;
  Heap& operator=(const Heap&) = delete;

  /// Called (with the allocation lock *not* held) when a trigger fires;
  /// responsible for stopping the world and running the requested
  /// collection via gc_prepare / mark / gc_perform.
  void set_gc_requester(std::function<void(GcKind)> fn) {
    gc_requester_ = std::move(fn);
  }

  /// Registers a mutator's TLAB. Call from the owning thread once it is
  /// attached (and before it allocates through the TLAB); unregister before
  /// the thread detaches. Registration is what lets the collector retire the
  /// buffer at the GC rendezvous.
  void register_tlab(Tlab& tlab);
  void unregister_tlab(Tlab& tlab);

  /// Folds and retires `tlab`'s current window from the owning thread (the
  /// remainder becomes walkable filler). The service layer calls this around
  /// AllocBudget bind/unbind so no window crosses accounting regimes.
  void retire_tlab(Tlab& tlab);

  /// Allocation. Passing the calling thread's registered TLAB takes the
  /// lock-free bump fast path; with tlab == nullptr the allocation is served
  /// from a heap-shared buffer under the lock (the pre-TLAB behaviour, kept
  /// for native callers without a VMContext and as the bench baseline).
  /// When the TLAB has a bound AllocBudget that refuses the charge, these
  /// return nullptr (the engines turn that into a managed
  /// OutOfMemoryException); unmetered allocation never returns nullptr.
  ObjRef alloc_instance(std::int32_t class_id, Tlab* tlab = nullptr);
  ObjRef alloc_array(ValType elem, std::int32_t length, Tlab* tlab = nullptr);
  ObjRef alloc_matrix2(ValType elem, std::int32_t rows, std::int32_t cols,
                       Tlab* tlab = nullptr);
  ObjRef alloc_box(ValType type, Slot value, Tlab* tlab = nullptr);
  ObjRef alloc_string(const std::string& s, Tlab* tlab = nullptr);

  /// Collection, under stop-the-world, in three steps driven by the VM:
  /// gc_prepare retires every registered TLAB; mark() is called once per
  /// root and enqueues it on the member worklist — for a minor collection,
  /// old roots are skipped (the old generation is live by assumption; its
  /// young edges come from the card scan); gc_perform finishes marking
  /// (card/remembered scan on minor, parallel drain on major) and sweeps
  /// (young windows on minor, the whole heap — in parallel across
  /// segments — on major).
  void gc_prepare(GcKind kind);
  void mark(ObjRef root);
  void gc_perform(GcKind kind);

  /// Worker threads the major path may use for mark and sweep (1 = serial).
  /// Workers are spawned lazily at the first parallel collection and park on
  /// a condition variable between GCs; they never touch the heap while
  /// mutators run. Also settable via HPCNET_GC_THREADS.
  void set_gc_threads(int n);
  int gc_threads() const;

  /// Counts are exact once the threads whose allocations are being counted
  /// have been joined (their TLAB pendings are read under the lock).
  HeapStats stats();
  std::size_t bytes_since_gc() const;
  void set_threshold(std::size_t bytes);

  /// Forces a full (major) collection via the registered requester
  /// (tests/examples, the GC.Collect intrinsic).
  void request_gc();

  /// GC.PretouchArray: hint that a freshly allocated primitive array is a
  /// long-lived working set. Large-object-list arrays (the only allocations
  /// big enough for the hint to matter) are promoted to the old generation
  /// on the spot — minor collections then neither trace nor sweep them, and
  /// their pages stay where the first-touch policy put them. Segment-resident
  /// objects, ref-element arrays (which would need card tracking) and
  /// already-old objects are left to the normal promotion path; null is
  /// ignored. Safe to call from any mutator thread.
  void pretouch(ObjRef obj);

 private:
  struct Segment;
  struct FreeRun {
    char* p = nullptr;
    std::size_t bytes = 0;
  };
  /// A TLAB region handed out since the last collection: the logical
  /// nursery. Rebuilt from scratch each cycle (every survivor promotes).
  struct YoungWindow {
    char* begin = nullptr;
    char* end = nullptr;
  };
  /// Per-segment result of a (possibly parallel) major sweep; workers write
  /// only the slot of the segment index they claimed, so no merging locks.
  struct SegmentSweep {
    bool any_live = false;
    std::size_t live_objects = 0;
    std::size_t live_bytes = 0;
    std::size_t swept = 0;
    std::size_t freed = 0;
    std::size_t promoted = 0;
    std::vector<FreeRun> runs;
  };

  ObjRef alloc_raw(std::size_t payload_bytes, Tlab* tlab);
  ObjRef alloc_slow(std::size_t total, Tlab* tlab);
  ObjRef bump(Tlab& t, std::size_t total);
  void fold_locked(Tlab& t);
  void retire_locked(Tlab& t, bool count_waste);
  /// False when the TLAB's bound budget refuses the region charge.
  bool acquire_region_locked(Tlab& t, std::size_t total);

  // -- collection internals (mu_ held, world stopped) --
  void drain_worklist_serial(bool minor);
  std::size_t scan_cards_locked();  // minor: returns dirty cards scanned
  SegmentMeta* take_dirty_segments();  // pops the whole barrier dirty list
  void sweep_minor_locked(std::size_t& freed, std::size_t& swept,
                          std::size_t& promoted);
  void sweep_major_locked(std::size_t& freed, std::size_t& swept,
                          std::size_t& promoted);
  void sweep_large_locked(bool minor, std::size_t& freed, std::size_t& swept,
                          std::size_t& promoted);
  void sweep_segment(Segment& seg, SegmentSweep& out);

  // -- parallel GC worker pool --
  void parallel_mark(int workers);
  void parallel_sweep(int workers, std::vector<SegmentSweep>& results);
  void run_job(int workers, const std::function<void(int)>& fn);
  void worker_loop();

  Module* module_;
  std::function<void(GcKind)> gc_requester_;
  mutable std::mutex mu_;

  // Segment store. segments_ holds walkable segments (fully tiled with
  // object/filler headers outside live TLAB windows); pool_ holds empty
  // segments awaiting reuse.
  std::vector<std::unique_ptr<Segment>> segments_;
  std::vector<std::unique_ptr<Segment>> pool_;
  std::vector<FreeRun> free_runs_;  // dead runs inside live segments,
                                    // rebuilt by each major sweep
  std::vector<YoungWindow> young_windows_;  // regions handed out this cycle
  // Head of the intrusive list of segments the write barrier dirtied since
  // the last collection; every segment's meta points back here.
  std::atomic<SegmentMeta*> dirty_head_{nullptr};

  // Large-object list (blocks >= kLargeThreshold), swept individually.
  // Entries at index >= large_young_start_ were allocated this cycle (the
  // large nursery); minor sweeps touch only that tail.
  std::vector<ObjRef> large_;
  std::vector<std::size_t> large_sizes_;  // parallel to large_
  std::size_t large_young_start_ = 0;

  std::vector<Tlab*> tlabs_;  // registered mutator TLABs (+ shared_tlab_)
  Tlab shared_tlab_;          // serves tlab-less callers, used under mu_

  // GC-trigger protocol: the bump fast path never checks the budget; each
  // TLAB's byte count is folded into this atomic at refill points (under
  // mu_) and the refilling/large-allocating thread compares it against
  // threshold_ *before* acquiring new space, calling the requester with no
  // locks held. gc_perform resets it while the world is stopped. Atomic so
  // the unlocked compare is well-defined against the collector's reset.
  std::atomic<std::size_t> bytes_since_gc_{0};
  std::size_t threshold_;
  // Major trigger: a collection is promoted to Major once the old
  // generation alone exceeds this; rescaled after every major so major
  // frequency tracks heap growth (2x live), never dropping below 4x the
  // minor threshold.
  std::size_t major_threshold_;
  std::size_t old_bytes_ = 0;  // current old-generation live bytes

  // Authoritative at fold points; a major sweep recomputes live_* exactly
  // from the mark bits, a minor sweep decrements them by the dead it found.
  std::size_t live_bytes_ = 0;
  std::size_t live_objects_ = 0;
  HeapStats stats_{};

  // Member mark worklist, reused across collections and reserved to the
  // previous high-water mark (replaces the per-root stack the old
  // Heap::mark built).
  std::vector<ObjRef> worklist_;
  std::size_t worklist_hwm_ = 0;
  GcKind cur_kind_ = GcKind::Major;

  // GC worker pool (lazy-spawned, parked between collections).
  int gc_threads_ = 1;
  std::vector<std::thread> gc_workers_;
  std::mutex pool_mu_;
  std::condition_variable pool_cv_;
  std::condition_variable done_cv_;
  std::function<void(int)> job_;
  std::uint64_t job_gen_ = 0;
  int job_slots_ = 0;  // unclaimed helper slots for the current job
  int job_done_ = 0;   // helpers finished with the current job
  bool shutdown_ = false;

  // Parallel mark: global chunk pool + idle-tracking termination.
  std::mutex mark_mu_;
  std::condition_variable mark_cv_;
  std::deque<std::vector<ObjRef>> mark_chunks_;
  int mark_active_ = 0;
  // Lock-free hint of mark_chunks_.size(); lets workers decide to donate
  // without taking mark_mu_ on every trace.
  std::atomic<int> mark_pool_size_{0};
};

/// String helpers.
std::string string_value(ObjRef s);

}  // namespace hpcnet::vm
