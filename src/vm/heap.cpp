#include "vm/heap.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <new>
#include <stdexcept>

#include "vm/telemetry/telemetry.hpp"

namespace hpcnet::vm {

namespace {

constexpr std::size_t kAllocAlign = alignof(Slot);
/// Segments are aligned to their own size so the write barrier can mask any
/// object address down to the segment base (and its embedded card table).
constexpr std::size_t kSegmentAlign = kGcSegmentBytes;

/// Smallest block that can carry a header: dead space below this cannot be
/// tiled with a Free filler, so bump() pads the preceding object instead.
constexpr std::size_t kMinBlock =
    (sizeof(ObjHeader) + kAllocAlign - 1) & ~(kAllocAlign - 1);

/// Parallel mark work granule: refs per chunk handed between workers, and
/// the local-stack size past which a worker donates a chunk to the pool.
constexpr std::size_t kMarkChunk = 256;
constexpr std::size_t kMarkSpill = 1024;
constexpr std::size_t kMarkDonateMin = 8;

std::size_t align_up(std::size_t n) {
  return (n + kAllocAlign - 1) & ~(kAllocAlign - 1);
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Tiles [p, p+bytes) with a Free filler so the segment stays walkable.
void write_filler(char* p, std::size_t bytes) {
  auto* h = new (p) ObjHeader();
  h->kind = ObjKind::Free;
  h->alloc_bytes = static_cast<std::uint32_t>(bytes);
}

int default_gc_threads() {
  if (const char* env = std::getenv("HPCNET_GC_THREADS")) {
    const int n = std::atoi(env);
    if (n >= 1) return std::min(n, 16);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::min(4u, hw != 0 ? hw : 1u));
}

}  // namespace

std::size_t elem_size(ValType t) {
  switch (t) {
    case ValType::I32: return 4;
    case ValType::I64: return 8;
    case ValType::F32: return 4;
    case ValType::F64: return 8;
    case ValType::Ref: return sizeof(ObjRef);
    case ValType::None: break;
  }
  return 8;
}

struct Heap::Segment {
  explicit Segment(std::size_t n)
      : mem(static_cast<char*>(
            ::operator new(n, std::align_val_t{kSegmentAlign}))),
        bytes(n) {
    new (mem) SegmentMeta();
  }
  ~Segment() { ::operator delete(mem, std::align_val_t{kSegmentAlign}); }
  Segment(const Segment&) = delete;
  Segment& operator=(const Segment&) = delete;

  SegmentMeta* meta() { return reinterpret_cast<SegmentMeta*>(mem); }
  char* area_begin() { return mem + kGcSegmentMetaBytes; }
  char* area_end() { return mem + bytes; }

  char* mem;
  std::size_t bytes;
};

Heap::Heap(Module* module, std::size_t gc_threshold_bytes)
    : module_(module),
      threshold_(gc_threshold_bytes),
      major_threshold_(gc_threshold_bytes * 4),
      gc_threads_(default_gc_threads()) {
  tlabs_.push_back(&shared_tlab_);
}

Heap::~Heap() {
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    shutdown_ = true;
  }
  pool_cv_.notify_all();
  for (std::thread& t : gc_workers_) t.join();
  // Registered TLABs may dangle here (the VM tears contexts down first);
  // only the raw storage needs freeing.
  for (ObjRef o : large_) ::operator delete(o, std::align_val_t{kAllocAlign});
}

void Heap::register_tlab(Tlab& tlab) {
  std::lock_guard<std::mutex> lock(mu_);
  tlabs_.push_back(&tlab);
}

void Heap::unregister_tlab(Tlab& tlab) {
  std::lock_guard<std::mutex> lock(mu_);
  fold_locked(tlab);
  retire_locked(tlab, /*count_waste=*/true);
  tlabs_.erase(std::remove(tlabs_.begin(), tlabs_.end(), &tlab),
               tlabs_.end());
}

void Heap::retire_tlab(Tlab& tlab) {
  std::lock_guard<std::mutex> lock(mu_);
  fold_locked(tlab);
  retire_locked(tlab, /*count_waste=*/true);
}

void Heap::fold_locked(Tlab& t) {
  if (t.pending_allocs_ == 0 && t.pending_bytes_ == 0) return;
  stats_.total_allocations += t.pending_allocs_;
  live_objects_ += t.pending_allocs_;
  live_bytes_ += t.pending_bytes_;
  bytes_since_gc_.fetch_add(t.pending_bytes_, std::memory_order_relaxed);
  t.pending_allocs_ = 0;
  t.pending_bytes_ = 0;
}

void Heap::retire_locked(Tlab& t, bool count_waste) {
  if (t.cur_ != nullptr && t.cur_ < t.end_) {
    const std::size_t tail = static_cast<std::size_t>(t.end_ - t.cur_);
    write_filler(t.cur_, tail);
    if (count_waste) {
      telemetry::count(telemetry::Counter::TlabWasteBytes, tail);
    }
  }
  t.cur_ = nullptr;
  t.end_ = nullptr;
}

bool Heap::acquire_region_locked(Tlab& t, std::size_t total) {
  telemetry::count(telemetry::Counter::TlabRefills);
  if (t.budget_ == nullptr) {
    // First fit from the free runs the last sweep recovered inside live
    // segments; the run's filler header is overwritten as the TLAB bumps.
    for (std::size_t i = 0; i < free_runs_.size(); ++i) {
      if (free_runs_[i].bytes >= total) {
        t.cur_ = free_runs_[i].p;
        t.end_ = free_runs_[i].p + free_runs_[i].bytes;
        free_runs_[i] = free_runs_.back();
        free_runs_.pop_back();
        young_windows_.push_back({t.cur_, t.end_});
        return true;
      }
    }
  } else {
    // Budgeted refills bypass the free-run first fit and always charge (and
    // receive) exactly one segment granule: free-run sizes depend on
    // co-tenant-driven GC/fragmentation history, so a fixed per-refill
    // charge is what keeps the tenant's budget-kill point deterministic —
    // and caps how much budget one TLAB window can consume. A refill is
    // refused only when the tenant cannot pay for a single granule.
    if (!t.budget_->try_charge(kSegmentBytes)) return false;
    t.budget_charged_ += kSegmentBytes;
  }
  // Whole segment: reuse a pooled one or take fresh pages. Pooled segments
  // may carry stale cards from their previous life; clear them so a minor
  // collection does not scan a fully-young segment.
  std::unique_ptr<Segment> seg;
  if (!pool_.empty()) {
    seg = std::move(pool_.back());
    pool_.pop_back();
    seg->meta()->clear();
  } else {
    seg = std::make_unique<Segment>(kSegmentBytes);
  }
  // Wire the barrier's dirty-list push to this heap before any object (and
  // therefore any ref store) can exist in the segment.
  seg->meta()->dirty_list = &dirty_head_;
  t.cur_ = seg->area_begin();
  t.end_ = seg->area_end();
  young_windows_.push_back({t.cur_, t.end_});
  segments_.push_back(std::move(seg));
  return true;
}

ObjRef Heap::bump(Tlab& t, std::size_t total) {
  const std::size_t rem = static_cast<std::size_t>(t.end_ - t.cur_) - total;
  // A tail too small to carry a filler header would break segment walking;
  // absorb it into this block as hidden padding.
  if (rem != 0 && rem < kMinBlock) total += rem;
  char* p = t.cur_;
  t.cur_ += total;
  std::memset(p, 0, total);
  auto* obj = new (p) ObjHeader();
  obj->alloc_bytes = static_cast<std::uint32_t>(total);
  t.pending_allocs_ += 1;
  t.pending_bytes_ += total;
  telemetry::record_allocation(total);
  return obj;
}

ObjRef Heap::alloc_raw(std::size_t payload_bytes, Tlab* tlab) {
  const std::size_t total = align_up(sizeof(ObjHeader) + payload_bytes);
  // Fast path: bump inside the calling thread's TLAB, no synchronization.
  // The GC budget is deliberately not checked here — it is enforced at
  // refill points, giving the trigger one-TLAB (64 KiB) granularity.
  if (tlab != nullptr && total < kLargeThreshold && tlab->cur_ != nullptr &&
      total <= static_cast<std::size_t>(tlab->end_ - tlab->cur_)) {
    return bump(*tlab, total);
  }
  return alloc_slow(total, tlab);
}

ObjRef Heap::alloc_slow(std::size_t total, Tlab* tlab) {
  // Fold this thread's pending byte count, then decide whether to trigger a
  // collection *before* acquiring new space, with no locks held (the
  // requester stops the world and re-enters the heap via gc_prepare). The
  // request is Minor unless the old generation has outgrown its own
  // threshold — minor pauses track nursery size, not total heap size.
  bool trigger;
  GcKind kind = GcKind::Minor;
  {
    std::lock_guard<std::mutex> lock(mu_);
    fold_locked(tlab != nullptr ? *tlab : shared_tlab_);
    trigger = bytes_since_gc_.load(std::memory_order_relaxed) > threshold_;
    if (trigger && old_bytes_ > major_threshold_) kind = GcKind::Major;
  }
  if (trigger && gc_requester_) {
    gc_requester_(kind);
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (total >= kLargeThreshold) {
    // The large path charges exact sizes (no region rounding), which is what
    // makes memory-budget kills on big-array allocation deterministic.
    if (tlab != nullptr && tlab->budget_ != nullptr) {
      if (!tlab->budget_->try_charge(total)) return nullptr;
      tlab->budget_charged_ += total;
    }
    void* mem = ::operator new(total, std::align_val_t{kAllocAlign});
    std::memset(mem, 0, total);
    auto* obj = new (mem) ObjHeader();  // alloc_bytes stays 0: size lives in
                                        // large_sizes_ (may exceed 4 GiB)
    large_.push_back(obj);
    large_sizes_.push_back(total);
    ++stats_.total_allocations;
    ++live_objects_;
    live_bytes_ += total;
    bytes_since_gc_.fetch_add(total, std::memory_order_relaxed);
    telemetry::count(telemetry::Counter::LargeAllocs);
    telemetry::record_allocation(total);
    return obj;
  }

  // Refill. tlab-less callers share shared_tlab_, which is only ever
  // touched under mu_ — this is the old one-lock-per-object path.
  Tlab& t = tlab != nullptr ? *tlab : shared_tlab_;
  if (t.cur_ == nullptr ||
      total > static_cast<std::size_t>(t.end_ - t.cur_)) {
    retire_locked(t, /*count_waste=*/true);
    if (!acquire_region_locked(t, total)) return nullptr;
  }
  return bump(t, total);
}

ObjRef Heap::alloc_instance(std::int32_t class_id, Tlab* tlab) {
  const auto& cls = module_->klass(class_id);
  ObjRef obj = alloc_raw(cls.fields.size() * sizeof(Slot), tlab);
  if (obj == nullptr) return nullptr;  // tenant budget refused
  obj->kind = ObjKind::Instance;
  obj->klass = class_id;
  obj->length = static_cast<std::int32_t>(cls.fields.size());
  return obj;
}

ObjRef Heap::alloc_array(ValType elem, std::int32_t length, Tlab* tlab) {
  if (length < 0) throw std::invalid_argument("negative array length");
  ObjRef obj =
      alloc_raw(static_cast<std::size_t>(length) * elem_size(elem), tlab);
  if (obj == nullptr) return nullptr;  // tenant budget refused
  obj->kind = ObjKind::Array;
  obj->elem = elem;
  obj->length = length;
  return obj;
}

ObjRef Heap::alloc_matrix2(ValType elem, std::int32_t rows, std::int32_t cols,
                           Tlab* tlab) {
  if (rows < 0 || cols < 0) throw std::invalid_argument("negative matrix dim");
  ObjRef obj = alloc_raw(static_cast<std::size_t>(rows) *
                             static_cast<std::size_t>(cols) * elem_size(elem),
                         tlab);
  if (obj == nullptr) return nullptr;  // tenant budget refused
  obj->kind = ObjKind::Matrix2;
  obj->elem = elem;
  obj->length = rows;
  obj->cols = cols;
  return obj;
}

ObjRef Heap::alloc_box(ValType type, Slot value, Tlab* tlab) {
  ObjRef obj = alloc_raw(sizeof(Slot), tlab);
  if (obj == nullptr) return nullptr;  // tenant budget refused
  obj->kind = ObjKind::Boxed;
  obj->elem = type;
  obj->length = 1;
  obj->fields()[0] = value;  // initializing store: the box is young
  return obj;
}

ObjRef Heap::alloc_string(const std::string& s, Tlab* tlab) {
  ObjRef obj = alloc_raw(s.size(), tlab);
  if (obj == nullptr) return nullptr;  // tenant budget refused
  obj->kind = ObjKind::String;
  obj->length = static_cast<std::int32_t>(s.size());
  std::memcpy(obj->chars(), s.data(), s.size());
  return obj;
}

// --------------------------------------------------------------------------
// Collection. All entry points below run while the world is stopped; the
// park handshake in VirtualMachine::collect() provides the happens-before
// edge from every mutator's last store to the collector (and back on
// resume), so plain reads of object payloads are race-free here.

namespace {

/// Applies `push` to every reference field of `obj`. The push callback owns
/// the mark-claim and generation filter.
template <typename PushFn>
void trace_refs(const Module& mod, ObjRef obj, PushFn&& push) {
  switch (obj->kind) {
    case ObjKind::Instance: {
      const auto& cls = mod.klass(obj->klass);
      Slot* f = obj->fields();
      for (std::size_t i = 0; i < cls.fields.size(); ++i) {
        if (cls.fields[i].type == ValType::Ref) push(f[i].ref);
      }
      break;
    }
    case ObjKind::Array:
      if (obj->elem == ValType::Ref) {
        ObjRef* data = obj->ref_data();
        for (std::int32_t i = 0; i < obj->length; ++i) push(data[i]);
      }
      break;
    case ObjKind::Matrix2:
      if (obj->elem == ValType::Ref) {
        ObjRef* data = obj->ref_data();
        const std::int64_t n =
            static_cast<std::int64_t>(obj->length) * obj->cols;
        for (std::int64_t i = 0; i < n; ++i) push(data[i]);
      }
      break;
    case ObjKind::Boxed:
      if (obj->elem == ValType::Ref) push(obj->fields()[0].ref);
      break;
    case ObjKind::String:
    case ObjKind::Free:
      break;
  }
}

}  // namespace

void Heap::gc_prepare(GcKind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  cur_kind_ = kind;
  // Every mutator is parked, so their TLABs can be retired here. Retiring
  // tiles each live window with a filler; the sweep below reclaims it.
  for (Tlab* t : tlabs_) {
    fold_locked(*t);
    retire_locked(*t, /*count_waste=*/false);
  }
  worklist_.clear();
  worklist_.reserve(worklist_hwm_);
}

void Heap::mark(ObjRef root) {
  if (root == nullptr) return;
  // Minor collections never trace into the old generation: old objects are
  // live by assumption, and their young edges arrive via the card scan.
  if (cur_kind_ == GcKind::Minor && root->is_old()) return;
  if (!root->try_mark()) return;
  worklist_.push_back(root);
}

void Heap::drain_worklist_serial(bool minor) {
  std::size_t hwm = worklist_.size();
  auto push = [&](ObjRef child) {
    if (child == nullptr) return;
    if (minor && child->is_old()) return;
    if (!child->try_mark()) return;
    worklist_.push_back(child);
  };
  while (!worklist_.empty()) {
    ObjRef obj = worklist_.back();
    worklist_.pop_back();
    trace_refs(*module_, obj, push);
    hwm = std::max(hwm, worklist_.size());
  }
  worklist_hwm_ = std::max(worklist_hwm_, hwm);
}

SegmentMeta* Heap::take_dirty_segments() {
  // Pop the barrier's whole dirty list. The world is stopped, so there are
  // no concurrent pushes: one exchange detaches the list atomically and the
  // acquire pairs with the barrier's release push for the card stores.
  return dirty_head_.exchange(nullptr, std::memory_order_acquire);
}

std::size_t Heap::scan_cards_locked() {
  // Dirty-card scan (minor only): visit old objects whose header card was
  // dirtied by the write barrier and enqueue their unmarked young children.
  // Only segments on the barrier's dirty list are walked, so the scan's
  // cost tracks mutator store activity, not old-generation size — that is
  // what keeps minor pauses flat as the heap grows. Cards are cleared as
  // they are consumed; that is sound because every young survivor is
  // promoted this cycle, turning old->young edges into old->old.
  std::size_t scanned = 0;
  auto push = [&](ObjRef child) {
    if (child == nullptr || child->is_old()) return;
    if (!child->try_mark()) return;
    worklist_.push_back(child);
  };
  for (SegmentMeta* meta = take_dirty_segments(); meta != nullptr;) {
    SegmentMeta* const next = meta->next_dirty.load(std::memory_order_relaxed);
    bool dirty[kGcCardsPerSegment];
    for (std::size_t c = 0; c < kGcCardsPerSegment; ++c) {
      dirty[c] = meta->cards[c].load(std::memory_order_relaxed) != 0;
      if (dirty[c]) ++scanned;
    }
    // The meta sits at the segment base; recover the object area from the
    // same alignment invariant the barrier's address mask relies on.
    char* const base = reinterpret_cast<char*>(meta);
    char* p = base + kGcSegmentMetaBytes;
    char* const end = base + kGcSegmentBytes;
    while (p < end) {
      auto* h = reinterpret_cast<ObjHeader*>(p);
      const std::size_t sz = h->alloc_bytes;
      if (h->kind != ObjKind::Free && h->is_old() &&
          dirty[static_cast<std::size_t>(p - base) >> kGcCardShift]) {
        trace_refs(*module_, h, push);
      }
      p += sz;
    }
    meta->clear();
    meta = next;
  }
  // Large objects remember stores via a header bit instead of a card.
  for (ObjRef o : large_) {
    const auto st = o->gc_state.load(std::memory_order_relaxed);
    if ((st & ObjHeader::kGcRemembered) == 0) continue;
    if ((st & ObjHeader::kGcOld) != 0) {
      ++scanned;
      trace_refs(*module_, o, push);
    }
    o->gc_state.fetch_and(
        static_cast<std::uint8_t>(~ObjHeader::kGcRemembered),
        std::memory_order_relaxed);
  }
  return scanned;
}

void Heap::sweep_minor_locked(std::size_t& freed, std::size_t& swept,
                              std::size_t& promoted) {
  // Sweep ONLY the regions handed to TLABs this cycle (the logical
  // nursery); clean old segments are never touched. Survivors promote in
  // place (set kGcOld, clear the mark); dead blocks coalesce into free runs
  // for the next refills. Runs never merge across window boundaries — the
  // neighbouring space belongs to the old generation and stays tiled.
  for (const YoungWindow& w : young_windows_) {
    char* p = w.begin;
    char* run_start = nullptr;
    auto close_run = [&](char* run_end) {
      if (run_start == nullptr) return;
      const auto bytes = static_cast<std::size_t>(run_end - run_start);
      write_filler(run_start, bytes);
      free_runs_.push_back({run_start, bytes});
      run_start = nullptr;
    };
    while (p < w.end) {
      auto* h = reinterpret_cast<ObjHeader*>(p);
      const std::size_t sz = h->alloc_bytes;
      if (h->is_marked()) {
        h->gc_state.store(ObjHeader::kGcOld, std::memory_order_relaxed);
        promoted += sz;
        close_run(p);
      } else {
        if (h->kind != ObjKind::Free) {
          ++swept;
          freed += sz;
          --live_objects_;
          live_bytes_ -= sz;
        }
        if (run_start == nullptr) run_start = p;
      }
      p += sz;
    }
    close_run(w.end);
  }
  young_windows_.clear();
  sweep_large_locked(/*minor=*/true, freed, swept, promoted);
  old_bytes_ += promoted;
}

void Heap::sweep_large_locked(bool minor, std::size_t& freed,
                              std::size_t& swept, std::size_t& promoted) {
  // Large objects are swept individually. A minor touches only the young
  // tail (entries appended since the last collection); a major walks all.
  const std::size_t start = minor ? large_young_start_ : 0;
  std::size_t out = start;
  for (std::size_t i = start; i < large_.size(); ++i) {
    ObjRef obj = large_[i];
    if (obj->is_marked()) {
      if (!obj->is_old()) promoted += large_sizes_[i];
      obj->gc_state.store(ObjHeader::kGcOld, std::memory_order_relaxed);
      large_[out] = obj;
      large_sizes_[out] = large_sizes_[i];
      ++out;
    } else {
      freed += large_sizes_[i];
      ++swept;
      if (minor) {
        --live_objects_;
        live_bytes_ -= large_sizes_[i];
      }
      ::operator delete(obj, std::align_val_t{kAllocAlign});
    }
  }
  large_.resize(out);
  large_sizes_.resize(out);
  large_young_start_ = large_.size();
}

void Heap::sweep_segment(Segment& seg, SegmentSweep& out) {
  // One segment's share of a major sweep: walk by header sizes, clear mark
  // bits, promote survivors, coalesce dead blocks (including old fillers)
  // into free runs, and clear the card table (after a full collection every
  // live object is old, so no old->young edge can exist). Runs entirely
  // inside one segment; safe to run from any worker thread.
  char* p = seg.area_begin();
  char* const end = seg.area_end();
  char* run_start = nullptr;
  auto close_run = [&](char* run_end) {
    if (run_start == nullptr) return;
    const auto bytes = static_cast<std::size_t>(run_end - run_start);
    write_filler(run_start, bytes);
    out.runs.push_back({run_start, bytes});
    run_start = nullptr;
  };
  while (p < end) {
    auto* h = reinterpret_cast<ObjHeader*>(p);
    const std::size_t sz = h->alloc_bytes;
    if (h->is_marked()) {
      if (!h->is_old()) out.promoted += sz;
      h->gc_state.store(ObjHeader::kGcOld, std::memory_order_relaxed);
      out.any_live = true;
      ++out.live_objects;
      out.live_bytes += sz;
      close_run(p);
    } else {
      if (h->kind != ObjKind::Free) {
        ++out.swept;
        out.freed += sz;
      }
      if (run_start == nullptr) run_start = p;
    }
    p += sz;
  }
  close_run(end);
  seg.meta()->clear();
}

void Heap::sweep_major_locked(std::size_t& freed, std::size_t& swept,
                              std::size_t& promoted) {
  const int workers =
      std::min<int>(gc_threads_, static_cast<int>(segments_.size()));
  std::vector<SegmentSweep> results(segments_.size());
  if (workers > 1) {
    parallel_sweep(workers, results);
  } else {
    for (std::size_t i = 0; i < segments_.size(); ++i) {
      sweep_segment(*segments_[i], results[i]);
    }
  }

  // Serial merge: rebuild the run list, pool fully-dead segments, recompute
  // the live census exactly from what the walk saw.
  live_bytes_ = 0;
  live_objects_ = 0;
  free_runs_.clear();
  young_windows_.clear();
  std::size_t seg_out = 0;
  for (std::size_t s = 0; s < segments_.size(); ++s) {
    SegmentSweep& r = results[s];
    freed += r.freed;
    swept += r.swept;
    promoted += r.promoted;
    live_objects_ += r.live_objects;
    live_bytes_ += r.live_bytes;
    if (!r.any_live) {
      if (pool_.size() < kMaxPooledSegments) {
        pool_.push_back(std::move(segments_[s]));
      }
      continue;  // segment leaves the walkable list
    }
    for (const FreeRun& run : r.runs) free_runs_.push_back(run);
    segments_[seg_out++] = std::move(segments_[s]);
  }
  segments_.resize(seg_out);

  sweep_large_locked(/*minor=*/false, freed, swept, promoted);
  for (std::size_t i = 0; i < large_.size(); ++i) {
    ++live_objects_;
    live_bytes_ += large_sizes_[i];
  }
  // Everything that survived a full collection is old now; rescale the
  // major trigger so collection frequency tracks heap growth.
  old_bytes_ = live_bytes_;
  major_threshold_ = std::max(threshold_ * 4, old_bytes_ * 2);
}

void Heap::gc_perform(GcKind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t allocated_window =
      bytes_since_gc_.load(std::memory_order_relaxed);

  const std::uint64_t t0 = now_ns();
  std::size_t cards_scanned = 0;
  if (kind == GcKind::Minor) {
    // The nursery is small and card scanning is a linear flag walk; the
    // parallel pool would cost more in wakeup latency than it saves.
    cards_scanned = scan_cards_locked();
    drain_worklist_serial(/*minor=*/true);
  } else {
    // A major traces everything, so pending cards are moot — but the dirty
    // list must be detached and reset NOW, while every listed segment is
    // still alive: the sweep below may pool or free segments, and a stale
    // list entry would dangle into the next minor's scan.
    for (SegmentMeta* meta = take_dirty_segments(); meta != nullptr;) {
      SegmentMeta* const next =
          meta->next_dirty.load(std::memory_order_relaxed);
      meta->clear();
      meta = next;
    }
    const int workers = gc_threads_;
    if (workers > 1 && worklist_.size() > 1) {
      parallel_mark(workers);
    } else {
      drain_worklist_serial(/*minor=*/false);
    }
  }
  const std::uint64_t t1 = now_ns();

  std::size_t freed = 0;
  std::size_t swept = 0;
  std::size_t promoted = 0;
  if (kind == GcKind::Minor) {
    sweep_minor_locked(freed, swept, promoted);
    ++stats_.minor_collections;
  } else {
    sweep_major_locked(freed, swept, promoted);
    ++stats_.major_collections;
  }
  const std::uint64_t t2 = now_ns();

  stats_.swept_objects += swept;
  stats_.promoted_bytes += promoted;
  bytes_since_gc_.store(0, std::memory_order_relaxed);
  ++stats_.collections;
  // Runs during the stop-the-world window; the VM's collect() folds these
  // into the pause event it records when the world resumes.
  telemetry::count(telemetry::Counter::CardsScanned, cards_scanned);
  telemetry::count(telemetry::Counter::PromotedBytes, promoted);
  telemetry::record_gc_sweep(kind == GcKind::Major, allocated_window, freed,
                             swept, segments_.size(), t1 - t0, t2 - t1);
}

// --------------------------------------------------------------------------
// GC worker pool. Workers are spawned lazily at the first parallel
// collection, park on pool_cv_ between jobs, and only ever run while the
// world is stopped (the collector thread holds mu_ and drives them). The
// pool mutex/condvar pair provides the happens-before edges between the
// collector and its workers in both directions.

void Heap::worker_loop() {
  std::uint64_t seen_gen = 0;
  for (;;) {
    std::function<void(int)> job;
    int id;
    {
      std::unique_lock<std::mutex> lock(pool_mu_);
      pool_cv_.wait(lock,
                    [&] { return shutdown_ || job_gen_ != seen_gen; });
      if (shutdown_) return;
      seen_gen = job_gen_;
      // Claim a helper slot; a pool that grew for an earlier, wider job can
      // hold more parked workers than this job wants — latecomers go back
      // to sleep so the job runs with exactly the requested parallelism.
      if (job_slots_ == 0) continue;
      id = job_slots_--;  // 1-based worker id; 0 is the collector
      job = job_;
    }
    job(id);
    {
      std::lock_guard<std::mutex> lock(pool_mu_);
      ++job_done_;
    }
    done_cv_.notify_one();
  }
}

void Heap::run_job(int workers, const std::function<void(int)>& fn) {
  const int helpers = workers - 1;  // the collector itself is worker 0
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    while (static_cast<int>(gc_workers_.size()) < helpers) {
      gc_workers_.emplace_back([this] { worker_loop(); });
    }
    job_ = fn;
    job_slots_ = helpers;
    job_done_ = 0;
    ++job_gen_;
  }
  pool_cv_.notify_all();
  fn(0);
  std::unique_lock<std::mutex> lock(pool_mu_);
  done_cv_.wait(lock, [&] { return job_done_ == helpers; });
  job_ = nullptr;
}

void Heap::parallel_mark(int workers) {
  // Seed the shared pool with chunks of the root worklist, then let each
  // worker drain a private stack, donating a chunk back whenever the stack
  // grows past the spill mark (work sharing, the flood-control variant of
  // work stealing). The spill mark alone is not enough: pointer-chasing
  // graphs (linked lists, trees of small nodes) keep the private stack at a
  // handful of entries, so a worker that got the only seed chunk would mark
  // the whole heap serially. Two countermeasures: the seed is split into
  // ~4 chunks per worker so everybody starts busy, and a worker donates
  // half its stack whenever the shared pool runs dry (tracked by a relaxed
  // atomic hint so the check costs nothing on the hot path). Termination: a
  // worker finding the pool empty goes idle; when the last active worker
  // goes idle the mark is complete.
  mark_chunks_.clear();
  const std::size_t seed_chunk = std::max<std::size_t>(
      1, std::min(kMarkChunk, worklist_.size() /
                                  (static_cast<std::size_t>(workers) * 4)));
  for (std::size_t i = 0; i < worklist_.size(); i += seed_chunk) {
    const std::size_t n = std::min(seed_chunk, worklist_.size() - i);
    mark_chunks_.emplace_back(worklist_.begin() + static_cast<std::ptrdiff_t>(i),
                              worklist_.begin() +
                                  static_cast<std::ptrdiff_t>(i + n));
  }
  mark_pool_size_.store(static_cast<int>(mark_chunks_.size()),
                        std::memory_order_relaxed);
  worklist_hwm_ = std::max(worklist_hwm_, worklist_.size());
  worklist_.clear();
  mark_active_ = workers;

  run_job(workers, [this](int) {
    std::vector<ObjRef> local;
    auto donate = [&] {
      const std::size_t n = std::min(kMarkChunk, local.size() / 2);
      std::vector<ObjRef> donation(local.end() - static_cast<std::ptrdiff_t>(n),
                                   local.end());
      local.resize(local.size() - n);
      {
        std::lock_guard<std::mutex> lock(mark_mu_);
        mark_chunks_.push_back(std::move(donation));
        mark_pool_size_.fetch_add(1, std::memory_order_relaxed);
      }
      mark_cv_.notify_one();
    };
    auto push = [&](ObjRef child) {
      // Claim with an atomic fetch_or: two workers reaching the same child
      // race only on who pushes it, never on tracing it twice.
      if (child == nullptr || !child->try_mark()) return;
      local.push_back(child);
      if (local.size() >= kMarkSpill ||
          (local.size() >= kMarkDonateMin &&
           mark_pool_size_.load(std::memory_order_relaxed) == 0)) {
        donate();
      }
    };
    std::unique_lock<std::mutex> lock(mark_mu_);
    for (;;) {
      if (!mark_chunks_.empty()) {
        std::vector<ObjRef> chunk = std::move(mark_chunks_.front());
        mark_chunks_.pop_front();
        mark_pool_size_.fetch_sub(1, std::memory_order_relaxed);
        lock.unlock();
        for (ObjRef obj : chunk) trace_refs(*module_, obj, push);
        while (!local.empty()) {
          ObjRef obj = local.back();
          local.pop_back();
          trace_refs(*module_, obj, push);
        }
        lock.lock();
        continue;
      }
      if (--mark_active_ == 0) {
        mark_cv_.notify_all();
        return;
      }
      mark_cv_.wait(lock, [&] {
        return !mark_chunks_.empty() || mark_active_ == 0;
      });
      if (mark_active_ == 0 && mark_chunks_.empty()) return;
      ++mark_active_;
    }
  });
}

void Heap::parallel_sweep(int workers, std::vector<SegmentSweep>& results) {
  // Segments are independently walkable; workers claim indices with one
  // atomic increment and write only their claimed result slots, so the
  // merge needs no locks at all.
  std::atomic<std::size_t> next{0};
  run_job(workers, [this, &next, &results](int) {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= segments_.size()) return;
      sweep_segment(*segments_[i], results[i]);
    }
  });
}

void Heap::set_gc_threads(int n) {
  std::lock_guard<std::mutex> lock(mu_);
  gc_threads_ = std::clamp(n, 1, 16);
}

int Heap::gc_threads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return gc_threads_;
}

// --------------------------------------------------------------------------

HeapStats Heap::stats() {
  std::lock_guard<std::mutex> lock(mu_);
  HeapStats s = stats_;
  s.live_objects = live_objects_;
  s.live_bytes = live_bytes_;
  s.old_bytes = old_bytes_;
  // Read (without resetting) the registered TLABs' unfolded counts. Exact
  // when the owning threads are quiescent/joined; a thread racing its own
  // bump path may be missed, like the telemetry sinks.
  for (const Tlab* t : tlabs_) {
    s.total_allocations += t->pending_allocs_;
    s.live_objects += t->pending_allocs_;
    s.live_bytes += t->pending_bytes_;
  }
  s.segments = segments_.size();
  s.pooled_segments = pool_.size();
  s.large_objects = large_.size();
  return s;
}

std::size_t Heap::bytes_since_gc() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = bytes_since_gc_.load(std::memory_order_relaxed);
  for (const Tlab* t : tlabs_) n += t->pending_bytes_;
  return n;
}

void Heap::set_threshold(std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  threshold_ = bytes;
  major_threshold_ = std::max(bytes * 4, old_bytes_ * 2);
}

void Heap::request_gc() {
  if (gc_requester_) gc_requester_(GcKind::Major);
}

void Heap::pretouch(ObjRef obj) {
  if (obj == nullptr || obj->is_old()) return;
  if (obj->kind != ObjKind::Array && obj->kind != ObjKind::Matrix2) return;
  if (obj->elem == ValType::Ref) return;  // would need old->young tracking
  if (obj->alloc_bytes != 0) return;      // segment-resident: sweep promotes
  std::lock_guard<std::mutex> lock(mu_);
  // Move the entry out of the large-object nursery tail into the old prefix
  // so minor sweeps (which only walk the tail) never visit it again.
  for (std::size_t i = large_young_start_; i < large_.size(); ++i) {
    if (large_[i] != obj) continue;
    const std::size_t sz = large_sizes_[i];
    std::swap(large_[i], large_[large_young_start_]);
    std::swap(large_sizes_[i], large_sizes_[large_young_start_]);
    obj->gc_state.store(ObjHeader::kGcOld, std::memory_order_relaxed);
    ++large_young_start_;
    old_bytes_ += sz;
    return;
  }
}

std::string string_value(ObjRef s) {
  if (s == nullptr || s->kind != ObjKind::String) return {};
  return std::string(s->chars(), static_cast<std::size_t>(s->length));
}

}  // namespace hpcnet::vm
