/* Column ordering (COLAMD + column-etree postorder) — native tier entry
 * points.
 *
 * See order_impl.inc for the algorithm; this translation unit holds the
 * index-independent pieces (the pivot tournament tree, the scratch
 * layout) and instantiates the kernel for scipy's two index dtypes.
 */
#include "kernels.h"

/* Pivot selection: a tournament (winner) tree over the live variables'
 * (degree, index) pairs, laid out like a bottom-up segment tree: leaf v
 * at node n + v, internal node t in [1, n) holding the smaller of its
 * children 2t and 2t + 1, key and index copied into the node, so node 1
 * holds the live variable with the smallest (degree, index) pair.  A
 * retired variable's leaf holds INT64_MAX, which no live degree reaches.
 * The pair is compared as a pair: a node's subtree need not be a
 * contiguous index range, so "left wins ties" would not break ties by
 * index, and packing the pair into one integer could overflow on wide
 * inputs. */
static inline int ord_less(const int64_t *tk, const int64_t *ti,
                           int64_t a, int64_t b)
{
    return tk[a] < tk[b] || (tk[a] == tk[b] && ti[a] < ti[b]);
}

static inline void ord_node(int64_t *tk, int64_t *ti, int64_t t)
{
    const int64_t w = ord_less(tk, ti, 2 * t + 1, 2 * t) ? 2 * t + 1
                                                         : 2 * t;
    tk[t] = tk[w];
    ti[t] = ti[w];
}

/* Recompute every internal node bottom-up. */
static void ord_tree_build(int64_t *tk, int64_t *ti, int64_t n)
{
    for (int64_t t = n - 1; t >= 1; t--)
        ord_node(tk, ti, t);
}

/* Set leaf `v` to `key` and repair its path to the root, stopping at the
 * first node whose winner does not change (its ancestors are then still
 * correct). */
static void ord_tree_set(int64_t *tk, int64_t *ti, int64_t n, int64_t v,
                         int64_t key)
{
    int64_t t = n + v;
    tk[t] = key;
    for (t >>= 1; t >= 1; t >>= 1) {
        const int64_t k = tk[t], i = ti[t];
        ord_node(tk, ti, t);
        if (tk[t] == k && ti[t] == i)
            break;
    }
}

/* int64 scratch slots the kernel needs for an m x n input with nnz
 * stored entries; the Python wrapper sizes `ws` with the same formula
 * (`_order_scratch` in kernels/native/__init__.py). */
static int64_t ord_scratch(int64_t m, int64_t n, int64_t nnz)
{
    return 2 * m + 2 * (m + n) + 3 * nnz + 17 * n;
}

#define IDX int32_t
#define FN(name) name##_i32
#include "order_impl.inc"
#undef IDX
#undef FN

#define IDX int64_t
#define FN(name) name##_i64
#include "order_impl.inc"
#undef IDX
#undef FN
