/// \file
/// \brief Event primitives for the discrete-event engine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace mcsim {

/// Opaque handle for a scheduled event; valid until the event fires or is
/// cancelled. Id 0 is never issued ("no event").
using EventId = std::uint64_t;

inline constexpr EventId kNoEvent = 0;

/// Move-only callable for event payloads — the engine's replacement for
/// std::function<void()> on the dispatch hot path.
///
/// Why not std::function: libstdc++'s small-object buffer holds only
/// trivially-copyable targets of <= 16 bytes, so every engine closure that
/// captures a shared state pointer plus a payload (an arrival capturing
/// {engine, job}, a departure capturing {engine, job}) heap-allocates on
/// schedule and frees on dispatch — two allocator round trips per event.
/// EventFn stores any nothrow-movable callable up to kInlineSize bytes
/// inline (48 bytes covers every closure in the engine with room to spare)
/// and falls back to the heap above that. Being move-only it also never
/// needs the copy machinery std::function carries.
///
/// Handlers run at the event's timestamp with the simulator clock already
/// advanced.
class EventFn {
 public:
  /// Inline storage: sized for the engine's largest closure (engine
  /// closures are 16 bytes, a copied std::function is 32) plus headroom
  /// for test fixtures capturing a few references.
  static constexpr std::size_t kInlineSize = 48;

  EventFn() noexcept = default;
  EventFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, EventFn> &&
                !std::is_same_v<std::remove_cvref_t<F>, std::nullptr_t> &&
                std::is_invocable_r_v<void, std::remove_cvref_t<F>&>>>
  EventFn(F&& fn) {  // NOLINT(google-explicit-constructor)
    using Fn = std::remove_cvref_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(fn)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  EventFn(EventFn&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      if (ops_ != nullptr) ops_->destroy(storage_);
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(storage_, other.storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  ~EventFn() {
    if (ops_ != nullptr) ops_->destroy(storage_);
  }

  /// Invoke the callable; requires non-empty.
  void operator()() { ops_->invoke(storage_); }

  [[nodiscard]] explicit operator bool() const noexcept { return ops_ != nullptr; }
  friend bool operator==(const EventFn& fn, std::nullptr_t) noexcept {
    return fn.ops_ == nullptr;
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    /// Move-construct the target into `dst` and destroy the `src` copy.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineSize && alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  template <typename Fn>
  static Fn* inline_target(void* storage) {
    return std::launder(reinterpret_cast<Fn*>(storage));
  }

  template <typename Fn>
  static Fn** heap_target(void* storage) {
    return std::launder(reinterpret_cast<Fn**>(storage));
  }

  template <typename Fn>
  static constexpr Ops kInlineOps{
      [](void* storage) { (*inline_target<Fn>(storage))(); },
      [](void* dst, void* src) noexcept {
        Fn* from = inline_target<Fn>(src);
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      },
      [](void* storage) noexcept { inline_target<Fn>(storage)->~Fn(); }};

  template <typename Fn>
  static constexpr Ops kHeapOps{
      [](void* storage) { (**heap_target<Fn>(storage))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn*(*heap_target<Fn>(src));
      },
      [](void* storage) noexcept { delete *heap_target<Fn>(storage); }};

  alignas(std::max_align_t) std::byte storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

/// Event payload type accepted by Simulator::schedule_at/schedule_in.
using EventHandler = EventFn;

}  // namespace mcsim
