/*
 * The oracle's shortest-path loops, compiled.
 *
 * repro.graph.kernel compiles this file with the system C compiler when
 * it is imported and calls settle(), repair() and walk_costs() through
 * ctypes; kernel.settle_python, kernel.repair_python and
 * kernel.walk_costs_python are the line-for-line Python twins they must
 * match bit for bit.
 *
 * settle() is a seeded label-setting loop over a CSR adjacency.  The
 * caller has already written the seeds' labels into dist/parent; the
 * loop pushes every seed, then pops heap entries in (dist, key) order
 * and relaxes the popped node's out-edges in CSR order, writing
 * improved labels straight into the row's dist/parent buffers.  Keys
 * are unique -- a push counter (counter_ties != 0) or the node id --
 * so the pop sequence is the one Python's heapq would produce for
 * (dist, key, node) tuples, and labels and parents come out identical.
 * Only IEEE double additions and comparisons touch the labels.
 *
 * When mask is non-NULL, only edges into nodes with mask[u] != 0 are
 * relaxed (a repair's affected region).  An infinite edge weight (a
 * tombstoned slot) never relaxes anything.  The loop runs until the
 * heap is dry; it returns 0, or -1 when the heap could not grow.
 *
 * repair() is the increase half of Ramalingam--Reps on one row whose
 * tree edges above `roots` got dearer: it marks the union of the
 * parent-tree subtrees below the roots (children of v are the u with
 * parent[u] == v over v's live CSR slots), resets those nodes to
 * inf/-1, seeds each from its first strictly cheapest unmarked
 * neighbour in CSR order, and runs settle() masked to the marked set
 * with node-id ties.  A marked node with no reachable unmarked
 * neighbour and no marked path to one stays unreachable.  Returns 0,
 * or -1 when a buffer could not be allocated.
 *
 * walk_costs() prices walks along rows' parent trees without building
 * them.  Each walk is per_walk consecutive hops; hop h is the triple
 * hops[3h..3h+2] = (row, head, tail): the tree path of parents[row]
 * from head down to tail, whose edges are read by walking up from tail
 * (each child's first live CSR slot to its parent gives the weight).
 * A walk's connection cost folds those weights left to right along the
 * walk, hop after hop, from 0; its setup cost folds setups[h] of its
 * hops the same way, and out[w] is the connection plus the setup cost.
 * A hop whose head is its tail has no edges and reads no row.  Returns
 * 0, -1 when a buffer could not be allocated, or -2 when the hops do
 * not split into walks, a hop names a node or row out of range, or a
 * parent chain leaves the tree (reaches -1 or an id out of range, runs
 * longer than n edges, or crosses an edge with no live slot) before its
 * head; nothing past the buffers is read either way.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

typedef struct {
    double dist;
    int64_t key;
    int64_t node;
} entry;

typedef struct {
    entry *items;
    int64_t size;
    int64_t cap;
} heap;

static int before(const entry *a, const entry *b)
{
    return a->dist < b->dist || (a->dist == b->dist && a->key < b->key);
}

static int push(heap *h, double dist, int64_t key, int64_t node)
{
    entry e = {dist, key, node};
    int64_t i;
    if (h->size == h->cap) {
        int64_t cap = h->cap ? 2 * h->cap : 64;
        entry *items = realloc(h->items, (size_t)cap * sizeof(entry));
        if (items == NULL)
            return -1;
        h->items = items;
        h->cap = cap;
    }
    i = h->size++;
    while (i > 0) {
        int64_t up = (i - 1) / 2;
        if (!before(&e, &h->items[up]))
            break;
        h->items[i] = h->items[up];
        i = up;
    }
    h->items[i] = e;
    return 0;
}

static entry pop(heap *h)
{
    entry top = h->items[0];
    entry last = h->items[--h->size];
    int64_t n = h->size;
    int64_t i = 0;
    if (n == 0)
        return top;
    for (;;) {
        int64_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && before(&h->items[child + 1], &h->items[child]))
            child++;
        if (!before(&h->items[child], &last))
            break;
        h->items[i] = h->items[child];
        i = child;
    }
    h->items[i] = last;
    return top;
}

int64_t settle(
    const int64_t *indptr, const int64_t *indices, const double *weights,
    double *dist, int64_t *parent,
    const int64_t *seeds, int64_t nseeds,
    const uint8_t *mask, int64_t counter_ties)
{
    heap h = {NULL, 0, 0};
    int64_t counter = 0;
    int64_t result = 0;
    int64_t i;
    for (i = 0; i < nseeds; i++) {
        int64_t v = seeds[i];
        if (push(&h, dist[v], counter_ties ? counter++ : v, v) < 0) {
            result = -1;
            goto done;
        }
    }
    while (h.size > 0) {
        entry e = pop(&h);
        double d = e.dist;
        int64_t v = e.node;
        int64_t pos;
        int64_t end;
        if (d > dist[v])
            continue;
        end = indptr[v + 1];
        for (pos = indptr[v]; pos < end; pos++) {
            int64_t u = indices[pos];
            double nd;
            if (mask != NULL && !mask[u])
                continue;
            nd = d + weights[pos];
            if (nd < dist[u]) {
                dist[u] = nd;
                parent[u] = v;
                if (push(&h, nd, counter_ties ? counter++ : u, u) < 0) {
                    result = -1;
                    goto done;
                }
            }
        }
    }
done:
    free(h.items);
    return result;
}

/* A growable list of node ids. */
typedef struct {
    int64_t *items;
    int64_t size;
    int64_t cap;
} list;

static int append(list *l, int64_t v)
{
    if (l->size == l->cap) {
        int64_t cap = l->cap ? 2 * l->cap : 64;
        int64_t *items = realloc(l->items, (size_t)cap * sizeof(int64_t));
        if (items == NULL)
            return -1;
        l->items = items;
        l->cap = cap;
    }
    l->items[l->size++] = v;
    return 0;
}

int64_t repair(
    const int64_t *indptr, const int64_t *indices, const double *weights,
    double *dist, int64_t *parent, int64_t n,
    const int64_t *roots, int64_t nroots)
{
    uint8_t *mask = calloc((size_t)n, 1);
    list region = {NULL, 0, 0};
    list seeds = {NULL, 0, 0};
    int64_t result = -1;
    int64_t i;
    if (mask == NULL)
        goto done;
    for (i = 0; i < nroots; i++) {
        int64_t v = roots[i];
        if (!mask[v]) {
            mask[v] = 1;
            if (append(&region, v) < 0)
                goto done;
        }
    }
    for (i = 0; i < region.size; i++) {
        int64_t v = region.items[i];
        int64_t end = indptr[v + 1];
        int64_t pos;
        for (pos = indptr[v]; pos < end; pos++) {
            int64_t u = indices[pos];
            if (parent[u] == v && !mask[u] && weights[pos] != INFINITY) {
                mask[u] = 1;
                if (append(&region, u) < 0)
                    goto done;
            }
        }
    }
    for (i = 0; i < region.size; i++) {
        dist[region.items[i]] = INFINITY;
        parent[region.items[i]] = -1;
    }
    for (i = 0; i < region.size; i++) {
        int64_t v = region.items[i];
        double best = INFINITY;
        int64_t best_parent = -1;
        int64_t end = indptr[v + 1];
        int64_t pos;
        for (pos = indptr[v]; pos < end; pos++) {
            int64_t u = indices[pos];
            if (!mask[u]) {
                double nd = dist[u] + weights[pos];
                if (nd < best) {
                    best = nd;
                    best_parent = u;
                }
            }
        }
        if (best_parent >= 0) {
            dist[v] = best;
            parent[v] = best_parent;
            if (append(&seeds, v) < 0)
                goto done;
        }
    }
    result = 0;
    if (seeds.size > 0
            && settle(indptr, indices, weights, dist, parent, seeds.items,
                      seeds.size, mask, 0) < 0)
        result = -1;
done:
    free(mask);
    free(region.items);
    free(seeds.items);
    return result;
}

int64_t walk_costs(
    const int64_t *indptr, const int64_t *indices, const double *weights,
    int64_t n, const int64_t *const *parents, int64_t nparents,
    const int64_t *hops, const double *setups, int64_t nhops,
    int64_t per_walk, double *out)
{
    double *chain;
    int64_t result = 0;
    int64_t start;
    if (per_walk <= 0 || nhops < 0 || nhops % per_walk != 0)
        return -2;
    chain = malloc((size_t)(n > 0 ? n : 1) * sizeof(double));
    if (chain == NULL)
        return -1;
    for (start = 0; start < nhops; start += per_walk) {
        double connection = 0.0;
        double setup = 0.0;
        int64_t h;
        for (h = start; h < start + per_walk; h++) {
            int64_t row = hops[3 * h];
            int64_t head = hops[3 * h + 1];
            int64_t v = hops[3 * h + 2];
            int64_t count = 0;
            if (head < 0 || head >= n || v < 0 || v >= n) {
                result = -2;
                goto done;
            }
            if (v != head && (row < 0 || row >= nparents)) {
                result = -2;
                goto done;
            }
            while (v != head) {
                int64_t p = parents[row][v];
                int64_t stop = indptr[v + 1];
                int64_t pos;
                if (p < 0 || p >= n || count == n) {
                    result = -2;
                    goto done;
                }
                for (pos = indptr[v]; pos < stop; pos++)
                    if (indices[pos] == p && weights[pos] != INFINITY)
                        break;
                if (pos == stop) {
                    result = -2;
                    goto done;
                }
                chain[count++] = weights[pos];
                v = p;
            }
            while (count > 0)
                connection += chain[--count];
            setup += setups[h];
        }
        out[start / per_walk] = connection + setup;
    }
done:
    free(chain);
    return result;
}
