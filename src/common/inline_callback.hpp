/**
 * @file
 * Move-only type-erased callable with a small inline buffer.
 *
 * The timed path hands continuations from component to component on
 * every simulated access: the event queue's events, the memory
 * devices' completion callbacks, the DRAM-cache controller's
 * demand-read completions.  std::function would heap-allocate every
 * capture over its 16-byte local buffer and demand copyability;
 * InlineCallback instead sizes its buffer per use (the `Bytes`
 * template argument) so each of those continuations is constructed in
 * place with no allocation.  Oversized captures still work: they
 * transparently spill to the heap.
 */

#ifndef ACCORD_COMMON_INLINE_CALLBACK_HPP
#define ACCORD_COMMON_INLINE_CALLBACK_HPP

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "common/types.hpp"

namespace accord
{

/**
 * Move-only `void(Args...)` callable holding captures of up to `Bytes`
 * bytes (pointer-aligned) inline.  Default-constructed, `nullptr` and
 * `{}` all give an empty callback; invoking an empty one is undefined,
 * so callers test it with operator bool when it may be empty.
 */
template <std::size_t Bytes, typename... Args>
class InlineCallback
{
  public:
    /** True when a callable of type Fn is stored without allocating. */
    template <typename Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= Bytes && alignof(Fn) <= alignof(void *)
            && std::is_nothrow_move_constructible_v<Fn>;
    }

    InlineCallback() = default;

    InlineCallback(std::nullptr_t) noexcept {} // NOLINT

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineCallback>
                  && !std::is_same_v<std::decay_t<F>, std::nullptr_t>>>
    ACCORD_HOT
    InlineCallback(F &&fn) // NOLINT(google-explicit-constructor)
    {
        emplace(std::forward<F>(fn));
    }

    InlineCallback(InlineCallback &&other) noexcept { moveFrom(other); }

    InlineCallback &
    operator=(InlineCallback &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    InlineCallback(const InlineCallback &) = delete;
    InlineCallback &operator=(const InlineCallback &) = delete;

    ~InlineCallback() { reset(); }

    /**
     * Replace the held callable with `fn`, constructed directly in the
     * buffer: the event queue builds each event inside its node this
     * way, with no intermediate callback object to relocate.
     */
    template <typename F>
    ACCORD_HOT ACCORD_HOT_ALLOW(
        "oversized captures spill to the heap by design; every capture "
        "the timed path builds fits its inline buffer")
    void
    emplace(F &&fn)
    {
        using Fn = std::decay_t<F>;
        reset();
        if constexpr (std::is_same_v<Fn, InlineCallback>) {
            moveFrom(fn);
        } else if constexpr (fitsInline<Fn>()) {
            ::new (static_cast<void *>(storage_))
                Fn(std::forward<F>(fn));
            ops_ = &kInlineOps<Fn>;
        } else {
            ::new (static_cast<void *>(storage_))
                Fn *(new Fn(std::forward<F>(fn)));
            ops_ = &kHeapOps<Fn>;
        }
    }

    explicit operator bool() const { return ops_ != nullptr; }

    ACCORD_HOT void
    operator()(Args... args)
    {
        ops_->invoke(storage_, std::forward<Args>(args)...);
    }

    /** Destroy the held callable (no-op when empty). */
    void
    reset()
    {
        if (ops_ != nullptr) {
            ops_->destroy(storage_);
            ops_ = nullptr;
        }
    }

  private:
    struct Ops
    {
        void (*invoke)(void *storage, Args... args);
        /** Move-construct dst from src, then destroy src. */
        void (*relocate)(void *dst, void *src);
        void (*destroy)(void *storage);
    };

    template <typename Fn>
    static inline const Ops kInlineOps = {
        [](void *storage, Args... args) {
            (*static_cast<Fn *>(storage))(std::forward<Args>(args)...);
        },
        [](void *dst, void *src) {
            ::new (dst) Fn(std::move(*static_cast<Fn *>(src)));
            static_cast<Fn *>(src)->~Fn();
        },
        [](void *storage) { static_cast<Fn *>(storage)->~Fn(); },
    };

    template <typename Fn>
    static inline const Ops kHeapOps = {
        [](void *storage, Args... args) {
            (**static_cast<Fn **>(storage))(std::forward<Args>(args)...);
        },
        [](void *dst, void *src) {
            ::new (dst) Fn *(*static_cast<Fn **>(src));
        },
        [](void *storage) { delete *static_cast<Fn **>(storage); },
    };

    void
    moveFrom(InlineCallback &other) noexcept
    {
        ops_ = other.ops_;
        if (ops_ != nullptr) {
            ops_->relocate(storage_, other.storage_);
            other.ops_ = nullptr;
        }
    }

    const Ops *ops_ = nullptr;
    alignas(void *) unsigned char storage_[Bytes];
};

} // namespace accord

#endif // ACCORD_COMMON_INLINE_CALLBACK_HPP
