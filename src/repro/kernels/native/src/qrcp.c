/* Batched QR with column pivoting — native tier.
 *
 * A QR_TP tree level factors dozens of small blocks (a 2k x 2k Gram
 * factor R, or a k x 2k slice of Q_k^T).  The pure tier calls LAPACK's
 * dgeqp3 once per block through scipy's f2py wrapper, whose argument
 * handling costs more than the factorization at these sizes.  Here one
 * call walks the whole stack and calls the same LAPACK routine: the
 * dgeqp3 that scipy.linalg.cython_lapack exports, whose address the
 * Python side passes in.  Each block gets what the f2py wrapper gives
 * it — a private column-major copy with lda = m, a zeroed jpvt (every
 * column free) and the same lwork — so pivots and R are the same bits.
 */
#include "kernels.h"

typedef void (*rk_dgeqp3_fn)(int32_t *m, int32_t *n, double *a,
                             int32_t *lda, int32_t *jpvt, double *tau,
                             double *work, int32_t *lwork, int32_t *info);

/* blocks: nb column-major m x n blocks, back to back (m, n >= 1; m, n
 * and lwork fit in int32).  ws: m*n + min(m, n) + lwork doubles of
 * scratch; jpvt: n int32 of scratch.  Out: piv (nb x n, 0-based column
 * order of each block) and rdiag (nb x min(m, n), |R(i, i)|).  Returns
 * 0, or the first nonzero LAPACK info (the remaining blocks are left
 * unfactored). */
RK_EXPORT int64_t rk_qrcp_batch(
    void *geqp3, int64_t nb, int64_t m, int64_t n,
    const double *restrict blocks, int64_t lwork,
    double *restrict ws, int32_t *restrict jpvt,
    int64_t *restrict piv, double *restrict rdiag)
{
    rk_dgeqp3_fn fn;
    memcpy(&fn, &geqp3, sizeof fn);  /* POSIX: object -> function pointer */
    const int64_t mn = m * n;
    const int64_t p = m < n ? m : n;
    double *a = ws, *tau = ws + mn, *work = ws + mn + p;
    int32_t im = (int32_t)m, in = (int32_t)n, lw = (int32_t)lwork;
    for (int64_t b = 0; b < nb; b++) {
        int32_t info = 0;
        memcpy(a, blocks + b * mn, (size_t)mn * sizeof(double));
        memset(jpvt, 0, (size_t)n * sizeof(int32_t));
        fn(&im, &in, a, &im, jpvt, tau, work, &lw, &info);
        if (info != 0)
            return info;
        int64_t *pb = piv + b * n;
        for (int64_t j = 0; j < n; j++)
            pb[j] = (int64_t)jpvt[j] - 1;
        double *db = rdiag + b * p;
        for (int64_t i = 0; i < p; i++)
            db[i] = fabs(a[i + i * m]);
    }
    return 0;
}
