#ifndef MWSJ_COMMON_EFFECTS_H_
#define MWSJ_COMMON_EFFECTS_H_

/// Effect annotations consumed by tools/mwsj_check.py (DESIGN.md §2.15).
///
/// Each macro expands to a `[[clang::annotate("mwsj::<effect>")]]` attribute
/// under Clang and to nothing under other compilers, so the annotations have
/// zero runtime cost and do not constrain the GCC build. They declare the
/// *effect contract* of a function; the analyzer propagates the contracts
/// over the whole-program call graph built from compile_commands.json:
///
///   MWSJ_ALLOC_FREE     The function must not transitively reach
///                       operator new / malloc / growing-container calls.
///                       Enforces the `allocs_per_probe == 0` kernel
///                       contract across the call graph.
///   MWSJ_DETERMINISTIC  Every path from the function into Emitter::Emit
///                       must avoid unordered-container iteration,
///                       pointer-valued ordering, and RNG outside common/ —
///                       the static form of the tie-break bug class that
///                       breaks byte-identical emit streams.
///   MWSJ_BLOCKING       The function may block (CondVar waits, pool
///                       joins). Must be unreachable
///                       from map/reduce inner loops (any MWSJ_ALLOC_FREE
///                       or MWSJ_DETERMINISTIC function) except through an
///                       MWSJ_BLOCKING_OK entry point.
///   MWSJ_BLOCKING_OK    A sanctioned blocking entry point (job
///                       orchestration: MapReduceJob::Run). The blocking-reach
///                       traversal stops here: callees may block.
///
/// Annotations go on the declaration, before the return type:
///
///   MWSJ_ALLOC_FREE void Collect(..., QueryScratch* scratch, ...) const;
///
/// Lambdas cannot carry attributes; hoist hot lambda bodies into named
/// functions (see queries/knn_mr.cc) — which is also what makes them unit
/// testable. Violations are suppressed per-site with a justified comment:
///
///   // mwsj-check: allow(alloc-free-reach): caller-owned scratch push_back.
///
/// See tools/mwsj_check_rules.md for the rule table.

#if defined(__clang__)
#define MWSJ_ALLOC_FREE [[clang::annotate("mwsj::alloc_free")]]
#define MWSJ_DETERMINISTIC [[clang::annotate("mwsj::deterministic")]]
#define MWSJ_BLOCKING [[clang::annotate("mwsj::blocking")]]
#define MWSJ_BLOCKING_OK [[clang::annotate("mwsj::blocking_ok")]]
#else
#define MWSJ_ALLOC_FREE
#define MWSJ_DETERMINISTIC
#define MWSJ_BLOCKING
#define MWSJ_BLOCKING_OK
#endif

#endif  // MWSJ_COMMON_EFFECTS_H_
