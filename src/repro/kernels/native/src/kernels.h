/* Shared declarations for the repro native kernel tier.
 *
 * Every kernel here is a bit-for-bit replication of the corresponding
 * pure (NumPy/SciPy) route — same arithmetic, same accumulation order,
 * same emission order — so the Python dispatch layer can swap tiers
 * without perturbing a single ulp.  See docs/performance.md ("Kernel
 * tiers") for the contract and tests/test_kernel_tiers.py for the pins.
 *
 * Index-generic kernels are instantiated twice (int32/int64 — scipy's
 * two index dtypes) from the .inc bodies; value arrays are float64.
 */
#ifndef REPRO_KERNELS_H
#define REPRO_KERNELS_H

#include <stdint.h>
#include <string.h>
#include <math.h>

#if defined(_WIN32)
#define RK_EXPORT __declspec(dllexport)
#else
#define RK_EXPORT __attribute__((visibility("default")))
#endif

/* ThreadSanitizer happens-before annotations for the OpenMP fork/join
 * edges.  GCC's libgomp is not TSan-instrumented, so the implicit
 * barrier at the end of a `#pragma omp parallel` region is invisible to
 * TSan and every write inside a region would be reported as racing with
 * the serial code after it.  The annotations model exactly (and only)
 * the synchronization the runtime really provides — a release by the
 * forking thread at region entry, acquire by each worker; release by
 * each worker at region exit, acquire by the joining thread — so races
 * *between* workers inside a region stay fully detectable.  Two
 * distinct tag addresses keep the entry and exit edges from creating
 * spurious worker-to-worker orderings.  No-ops unless the library is
 * built with -fsanitize=thread (REPRO_KERNEL_SANITIZE=tsan). */
#if defined(__has_feature)
#if __has_feature(thread_sanitizer) && !defined(__SANITIZE_THREAD__)
#define __SANITIZE_THREAD__ 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
void __tsan_acquire(void *addr);
void __tsan_release(void *addr);
#define RK_TSAN_ACQUIRE(p) __tsan_acquire(p)
#define RK_TSAN_RELEASE(p) __tsan_release(p)
/* The fork/join *wrapper* is excluded from TSan instrumentation: GCC
 * materializes the region's capture struct on the forking thread's
 * stack at the pragma itself — before any statement an annotation
 * could precede — so the wrapper's compiler-generated writes are
 * unorderable false positives.  Its serial phases are ordered by the
 * region barriers (annotated above), and the per-row worker functions
 * carrying the actual race surface stay fully instrumented.  The
 * RK_TSAN_* annotations are explicit calls and still run inside an
 * uninstrumented function. */
#define RK_NO_TSAN __attribute__((no_sanitize_thread))
#else
#define RK_TSAN_ACQUIRE(p) ((void)(p))
#define RK_TSAN_RELEASE(p) ((void)(p))
#define RK_NO_TSAN
#endif

/* ---------------------------------------------------------------------
 * Exported ABI.
 *
 * One prototype per exported symbol, in the exact types the ctypes
 * bindings in kernels/native/__init__.py declare.  This block is the C
 * side of the ABI contract: the compiler cross-checks each prototype
 * against the macro-instantiated definition in the .c/.inc files, and
 * `repro.lint` (rules KERN001–KERN003) parses it and cross-checks it
 * against the Python `_ABI` table.  Keep it machine-readable: one
 * symbol per `RK_EXPORT` prototype, fixed-width integer types only
 * (int32_t/int64_t/unsigned char — never int/long/size_t), `void *` only
 * for a foreign function's address, and no `restrict` qualifiers (those
 * live on the definitions).
 * ------------------------------------------------------------------ */

/* Capability probe: 1 when the library was built with OpenMP, else 0. */
RK_EXPORT int64_t rk_openmp_enabled(void);

/* Fused ILUT mu-threshold accounting pass (threshold.c). */
RK_EXPORT int64_t rk_thresh_mask(
    const double *data, int64_t nnz, double mu,
    unsigned char *mask, double *dropped, double *dmax);

/* Row-merge SpGEMM, C = A @ B on canonical CSR (spgemm_impl.inc). */
RK_EXPORT int64_t rk_spgemm_i32(
    int64_t n_row, int64_t n_col,
    const int32_t *Ap, const int32_t *Aj, const double *Ax,
    const int32_t *Bp, const int32_t *Bj, const double *Bx,
    int32_t *Cp, int32_t *Cj, double *Cx,
    int64_t *mark, double *sums, int64_t *touched);
RK_EXPORT int64_t rk_spgemm_i64(
    int64_t n_row, int64_t n_col,
    const int64_t *Ap, const int64_t *Aj, const double *Ax,
    const int64_t *Bp, const int64_t *Bj, const double *Bx,
    int64_t *Cp, int64_t *Cj, double *Cx,
    int64_t *mark, double *sums, int64_t *touched);

/* OpenMP row-parallel SpGEMM (spgemm_par_impl.inc). */
RK_EXPORT int64_t rk_spgemm_par_i32(
    int64_t n_row, int64_t n_col, int64_t nthreads,
    const int32_t *Ap, const int32_t *Aj, const double *Ax,
    const int32_t *Bp, const int32_t *Bj, const double *Bx,
    int32_t *Cp, int32_t *Cj, double *Cx,
    int64_t *mark, double *sums, int64_t *touched, int64_t *rownnz);
RK_EXPORT int64_t rk_spgemm_par_i64(
    int64_t n_row, int64_t n_col, int64_t nthreads,
    const int64_t *Ap, const int64_t *Aj, const double *Ax,
    const int64_t *Bp, const int64_t *Bj, const double *Bx,
    int64_t *Cp, int64_t *Cj, double *Cx,
    int64_t *mark, double *sums, int64_t *touched, int64_t *rownnz);

/* Fused ILUT mu-threshold apply+compact pass (threshold_impl.inc). */
RK_EXPORT int64_t rk_thresh_apply_i32(
    int64_t n_outer, int32_t *indptr, int32_t *indices, double *data,
    const unsigned char *mask);
RK_EXPORT int64_t rk_thresh_apply_i64(
    int64_t n_outer, int64_t *indptr, int64_t *indices, double *data,
    const unsigned char *mask);

/* Schur index-window occupancy count (window_impl.inc). */
RK_EXPORT int64_t rk_window_count_i32(
    int64_t m, int64_t k, int64_t ncols,
    const int32_t *Ap, const int32_t *Ai,
    const int64_t *cols, const int64_t *ipos, int64_t *rowcount);
RK_EXPORT int64_t rk_window_count_i64(
    int64_t m, int64_t k, int64_t ncols,
    const int64_t *Ap, const int64_t *Ai,
    const int64_t *cols, const int64_t *ipos, int64_t *rowcount);

/* Fused permute+split scatter, sparse top block (window_impl.inc). */
RK_EXPORT void rk_window_fill_i32(
    int64_t m, int64_t k, int64_t ncols,
    const int32_t *Ap, const int32_t *Ai, const double *Ax,
    const int64_t *cols, const int64_t *ipos, int64_t *rowcount,
    int32_t *Bp, int32_t *Bj, double *Bx,
    int32_t *Cp, int32_t *Cj, double *Cx);
RK_EXPORT void rk_window_fill_i64(
    int64_t m, int64_t k, int64_t ncols,
    const int64_t *Ap, const int64_t *Ai, const double *Ax,
    const int64_t *cols, const int64_t *ipos, int64_t *rowcount,
    int64_t *Bp, int64_t *Bj, double *Bx,
    int64_t *Cp, int64_t *Cj, double *Cx);

/* Fused permute+split scatter, dense top block (window_impl.inc). */
RK_EXPORT void rk_window_fill_topdense_i32(
    int64_t m, int64_t k, int64_t ncols,
    const int32_t *Ap, const int32_t *Ai, const double *Ax,
    const int64_t *cols, const int64_t *ipos, int64_t *rowcount,
    double *D, int32_t *Cp, int32_t *Cj, double *Cx);
RK_EXPORT void rk_window_fill_topdense_i64(
    int64_t m, int64_t k, int64_t ncols,
    const int64_t *Ap, const int64_t *Ai, const double *Ax,
    const int64_t *cols, const int64_t *ipos, int64_t *rowcount,
    double *D, int64_t *Cp, int64_t *Cj, double *Cx);

/* CSR -> CSC counting-sort conversion, scipy-bitwise (convert_impl.inc). */
RK_EXPORT void rk_csr_tocsc_i32(
    int64_t n_row, int64_t n_col,
    const int32_t *Ap, const int32_t *Aj, const double *Ax,
    int32_t *Bp, int32_t *Bi, double *Bx);
RK_EXPORT void rk_csr_tocsc_i64(
    int64_t n_row, int64_t n_col,
    const int64_t *Ap, const int64_t *Aj, const double *Ax,
    int64_t *Bp, int64_t *Bi, double *Bx);

/* memcpy column gather from CSC (gather_impl.inc). */
RK_EXPORT int64_t rk_gather_cols_i32(
    int64_t ncols,
    const int32_t *Ap, const int32_t *Ai, const double *Ax,
    const int64_t *cols, int64_t *Bp, int32_t *Bi, double *Bx);
RK_EXPORT int64_t rk_gather_cols_i64(
    int64_t ncols,
    const int64_t *Ap, const int64_t *Ai, const double *Ax,
    const int64_t *cols, int64_t *Bp, int64_t *Bi, double *Bx);

/* Batched Gram products A[:, l]^T @ A[:, r] read from CSC A by column
 * id, per-pair sparse or dense-panel route; returns the first pair left
 * undone (npairs when all are done) (gram_impl.inc). */
RK_EXPORT int64_t rk_gram_batch_i32(
    int64_t m, int64_t npairs, int64_t p0,
    const int32_t *Ap, const int32_t *Ai, const double *Ax,
    const int64_t *ids, int64_t *meta, double *C,
    int64_t *tp, int64_t *tj, double *tx, int64_t cap, double *P);
RK_EXPORT int64_t rk_gram_batch_i64(
    int64_t m, int64_t npairs, int64_t p0,
    const int64_t *Ap, const int64_t *Ai, const double *Ax,
    const int64_t *ids, int64_t *meta, double *C,
    int64_t *tp, int64_t *tj, double *tx, int64_t cap, double *P);

/* Fused Schur update difference, D = A - C with drop tol; returns -1
 * when A's column indices do not strictly ascend within a row
 * (schur_impl.inc). */
RK_EXPORT int64_t rk_schur_diff_i32(
    int64_t n_row, int64_t n_col,
    const int32_t *Ap, const int32_t *Aj, const double *Ax,
    const int32_t *Cp, const int32_t *Cj, const double *Cx,
    int32_t *Dp, int32_t *Dj, double *Dx,
    int64_t *mark, double *sums, double tol);
RK_EXPORT int64_t rk_schur_diff_i64(
    int64_t n_row, int64_t n_col,
    const int64_t *Ap, const int64_t *Aj, const double *Ax,
    const int64_t *Cp, const int64_t *Cj, const double *Cx,
    int64_t *Dp, int64_t *Dj, double *Dx,
    int64_t *mark, double *sums, double tol);

/* Dense-panel route of the whole Schur update for a filled-in product:
 * block pass (returns nnz, or -1 when a precondition fails) and CSC
 * gather pass (schur_impl.inc). */
RK_EXPORT int64_t rk_schur_dense_i32(
    int64_t m, int64_t n, int64_t k,
    const int32_t *Ap, const int32_t *Aj, const double *Ax,
    const int32_t *Fp, const int32_t *Fj, const double *Fx,
    const int32_t *Bp, const int32_t *Bj, const double *Bx,
    double *P, int64_t *mark, double *arow, double *R, int32_t *Sp,
    double tol);
RK_EXPORT int64_t rk_schur_dense_i64(
    int64_t m, int64_t n, int64_t k,
    const int64_t *Ap, const int64_t *Aj, const double *Ax,
    const int64_t *Fp, const int64_t *Fj, const double *Fx,
    const int64_t *Bp, const int64_t *Bj, const double *Bx,
    double *P, int64_t *mark, double *arow, double *R, int64_t *Sp,
    double tol);
RK_EXPORT void rk_schur_dense_emit_i32(
    int64_t m, int64_t n, const double *R,
    const int32_t *Sp, int32_t *Si, double *Sx);
RK_EXPORT void rk_schur_dense_emit_i64(
    int64_t m, int64_t n, const double *R,
    const int64_t *Sp, int64_t *Si, double *Sx);

/* QR with column pivoting of a stack of column-major m x n blocks, one
 * call of the LAPACK dgeqp3 whose address `geqp3` holds per block
 * (scipy.linalg.cython_lapack's export); 0-based pivots and |diag R|
 * out; returns 0 or the first nonzero LAPACK info (qrcp.c). */
RK_EXPORT int64_t rk_qrcp_batch(
    void *geqp3, int64_t nb, int64_t m, int64_t n, const double *blocks,
    int64_t lwork, double *ws, int32_t *jpvt, int64_t *piv,
    double *rdiag);

/* COLAMD ordering + postorder of the column elimination tree of a CSC
 * pattern in one call; returns 0, -1 for a pattern outside the contract
 * (duplicate or unsorted entries), -2 for short scratch
 * (order_impl.inc). */
RK_EXPORT int64_t rk_colamd_postorder_i32(
    int64_t m, int64_t n, int64_t dense_cut,
    const int32_t *Ap, const int32_t *Ai,
    int64_t *ws, int64_t nws, int64_t *perm);
RK_EXPORT int64_t rk_colamd_postorder_i64(
    int64_t m, int64_t n, int64_t dense_cut,
    const int64_t *Ap, const int64_t *Ai,
    int64_t *ws, int64_t nws, int64_t *perm);

#endif /* REPRO_KERNELS_H */
