// Clang Thread Safety Analysis attribute macros (DESIGN.md section 3g).
//
// The concurrent core — the thread pool's dispatch protocol, the obs
// metrics registry and span shards, the CsrMatrix kernel caches and the
// shared SatCache — declares its locking discipline with these macros so
// clang can prove, at compile time, that every access to a guarded field
// happens under its mutex and that every REQUIRES contract is met at each
// call site.  The runtime layer (TSan jobs) checks executions; this layer
// checks code.
//
// Build wiring: the CSRL_THREAD_SAFETY CMake option adds
// `-Wthread-safety -Werror=thread-safety` on clang, so a violation fails
// the build (negative try_compile cases in cmake/ThreadSafetyChecks.cmake
// prove the diagnostics actually fire).  Under gcc — which has no
// thread-safety analysis — every macro expands to nothing and the
// annotated code compiles unchanged.
//
// Vocabulary (mirrors the canonical mutex.h of the clang documentation):
//
//   CSRL_CAPABILITY("mutex")    class declares itself a lockable capability
//   CSRL_SCOPED_CAPABILITY      RAII class that acquires/releases in
//                               ctor/dtor (MutexLock)
//   CSRL_GUARDED_BY(mu)         field may only be accessed holding `mu`
//   CSRL_PT_GUARDED_BY(mu)      pointee may only be accessed holding `mu`
//   CSRL_REQUIRES(mu)           caller must already hold `mu`
//   CSRL_ACQUIRE(mu)/CSRL_RELEASE(mu)  function acquires/releases `mu`
//   CSRL_TRY_ACQUIRE(b, mu)     returns `b` when `mu` was acquired
//   CSRL_EXCLUDES(mu)           caller must NOT hold `mu` (deadlock guard)
//   CSRL_ACQUIRED_BEFORE/AFTER  lock-ordering declarations between mutexes
//   CSRL_NO_THREAD_SAFETY_ANALYSIS  opt a function body out (used only
//                               inside the CondVar adopt/release dance)
#pragma once

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define CSRL_TSA(x) __attribute__((x))
#endif
#endif

#ifndef CSRL_TSA
#define CSRL_TSA(x)  // no-op: compiler lacks thread-safety attributes
#endif

#define CSRL_CAPABILITY(x) CSRL_TSA(capability(x))
#define CSRL_SCOPED_CAPABILITY CSRL_TSA(scoped_lockable)
#define CSRL_GUARDED_BY(x) CSRL_TSA(guarded_by(x))
#define CSRL_PT_GUARDED_BY(x) CSRL_TSA(pt_guarded_by(x))
#define CSRL_ACQUIRED_BEFORE(...) CSRL_TSA(acquired_before(__VA_ARGS__))
#define CSRL_ACQUIRED_AFTER(...) CSRL_TSA(acquired_after(__VA_ARGS__))
#define CSRL_REQUIRES(...) CSRL_TSA(requires_capability(__VA_ARGS__))
#define CSRL_REQUIRES_SHARED(...) \
  CSRL_TSA(requires_shared_capability(__VA_ARGS__))
#define CSRL_ACQUIRE(...) CSRL_TSA(acquire_capability(__VA_ARGS__))
#define CSRL_RELEASE(...) CSRL_TSA(release_capability(__VA_ARGS__))
#define CSRL_TRY_ACQUIRE(...) CSRL_TSA(try_acquire_capability(__VA_ARGS__))
#define CSRL_EXCLUDES(...) CSRL_TSA(locks_excluded(__VA_ARGS__))
#define CSRL_RETURN_CAPABILITY(x) CSRL_TSA(lock_returned(x))
#define CSRL_NO_THREAD_SAFETY_ANALYSIS CSRL_TSA(no_thread_safety_analysis)
