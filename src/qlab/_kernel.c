/* Compiled generators for the Q-recurrence and the R/S/T tables: a pure
 * accelerator of _fallback, the Python reference.  Each entry point returns
 * what its _fallback namesake does (checked, that is in int64, for
 * q_generate and q_check), or None when it declines the call: when it
 * cannot read it or decide it in int64.  _backend then asks _fallback,
 * which owns every error: the kernel raises only MemoryError and interrupts.
 * q_generate(prefix, zero_extended, max_terms) returns (terms, status),
 * terms an array('q'); a run that stops, stops at len(terms) + 1 (see
 * engine._status_of).  A term outside int64, of the prefix or computed, is
 * STATUS_OVERFLOW, and terms holds the terms before it.  A prefix is a
 * range, a tuple or a list of ints; a range such as range(1, N + 1) is read
 * from its start, step and length (see load_prefix).
 * q_check(prefix, zero_extended, tiles, max_terms) returns (first_mismatch,
 * status, n_actual): it runs the same recurrence (see extend), n_actual
 * terms, and compares it with the tiles, which predict the terms past the
 * prefix, without building a list: every tile, of any kind, five terms at a
 * time (see tile_group, which evaluates a literal's forms), and value by
 * value only the group where the walk stops.
 * rst_generate(n_max) returns (r, s, t, which): R(0..n), S(0..n) and
 * T(0..n), row k at index k, in place in three array('q') allocated once,
 * at n_max + 1 rows, and cut only where which ends the system, at row
 * len(s) (see Store).
 * format_rows(columns, first, sep, per_row, lo, hi) writes its rows as ASCII
 * straight into one new str, in one pass over the values: the str is
 * allocated at an upper bound, 20 characters a field, each field is written
 * once, two digits a step, and the str is cut to what was written.
 * max_terms and n_max are clipped to Py_ssize_t (see clipped_size).  A table
 * (a column of format_rows, a literal's c, d or f, an R/S/T table of a block
 * tile) is read in place from a C-contiguous int64 buffer, such as an
 * array('q') (see Column), and any other is declined.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>

#define STATUS_ALIVE 0
#define STATUS_DIED 1
#define STATUS_ENDED 2
#define STATUS_OVERFLOW 3

#define TILE_LITERAL 1
#define TILE_CHUNK 2
#define TILE_BLOCKS 3

/* The answer to a call the kernel declines: None, with any Exception but
 * MemoryError cleared.  MemoryError and interrupts are raised as they are. */
static PyObject *
declined(void)
{
    if (PyErr_Occurred() &&
        (PyErr_ExceptionMatches(PyExc_MemoryError) || !PyErr_ExceptionMatches(PyExc_Exception)))
        return NULL;
    PyErr_Clear();
    Py_RETURN_NONE;
}

/* A PyArg converter: *n = the int o clipped to the range of Py_ssize_t,
 * which no array outgrows, so the clip changes no answer.  The clip may
 * size an allocation: a size computed from *n, such as rst_generate's
 * n_max + 1 rows, is clipped again before it can overflow. */
static int
clipped_size(PyObject *o, Py_ssize_t *n)
{
    *n = PyNumber_AsSsize_t(o, NULL);
    return *n != -1 || !PyErr_Occurred();
}

/* Store in *out the term Q(n - v) that the value v refers to, or return the
 * status that stops the run: v <= 0 points at or past n itself, and v >= n
 * at a nonpositive index, which reads 0 only under zero extension. */
static int
lookup(const long long *t, Py_ssize_t n, long long v, int zero, long long *out)
{
    if (v <= 0)
        return zero ? STATUS_ENDED : STATUS_DIED;
    if (v >= n && !zero)
        return STATUS_DIED;
    *out = v >= n ? 0 : t[n - 1 - v];
    return STATUS_ALIVE;
}

/* array('q', [0]): every store starts as a repeat of it. */
static PyObject *ZERO;

/* An int64 store: an array('q') whose values v[0..cap-1] are written in
 * place while its buffer is held, so its values are never copied into a
 * second container.  rst_generate allocates its stores at their final
 * size.  Only q_generate, whose run length is not known in advance, grows
 * its store by doubling and cuts it to its final rows when taken.  arr is
 * NULL once the store is freed or taken. */
typedef struct {
    PyObject *arr;
    Py_buffer view;
    long long *v;
    Py_ssize_t cap;
} Store;

/* Hold the buffer of s->arr: 0, or -1 with an exception set and s freed. */
static int
store_hold(Store *s)
{
    if (PyObject_GetBuffer(s->arr, &s->view, PyBUF_WRITABLE) < 0) {
        Py_CLEAR(s->arr);
        return -1;
    }
    s->v = s->view.buf;
    s->cap = s->view.len / (Py_ssize_t)sizeof(long long);
    return 0;
}

/* A new store of cap zeros: 0, or -1 with an exception set. */
static int
store_new(Store *s, Py_ssize_t cap)
{
    s->arr = PySequence_Repeat(ZERO, cap);
    return s->arr == NULL ? -1 : store_hold(s);
}

/* Double the capacity of s by repeating its values, which the rows to come
 * overwrite: an array resizes only through its own methods, and only while
 * no buffer of it is held.  0, or -1 with an exception set and s freed. */
static int
store_grow(Store *s)
{
    PyObject *grown;

    PyBuffer_Release(&s->view);
    grown = PySequence_InPlaceRepeat(s->arr, 2); /* s->arr itself */
    Py_DECREF(s->arr);
    s->arr = grown;
    return grown == NULL ? -1 : store_hold(s);
}

static void
store_free(Store *s)
{
    if (s->arr != NULL) {
        PyBuffer_Release(&s->view);
        Py_CLEAR(s->arr);
    }
}

/* The array of s cut to its values 0..n-1, s taken; NULL with an
 * exception set on failure or when s was freed. */
static PyObject *
store_take(Store *s, Py_ssize_t n)
{
    PyObject *arr = s->arr;

    if (arr == NULL)
        return NULL;
    PyBuffer_Release(&s->view);
    s->arr = NULL;
    if (PySequence_DelSlice(arr, n, s->cap) < 0)
        Py_CLEAR(arr);
    return arr;
}

/* *v = the int64 value of the int o, with *big set to 1 when o lies
 * outside int64 and to 0 otherwise: 0, or -1 with an exception set when o
 * is not an int. */
static int
read_int(PyObject *o, long long *v, int *big)
{
    int sign;

    *v = PyLong_AsLongLongAndOverflow(o, &sign);
    *big = sign != 0;
    return *v == -1 && PyErr_Occurred() ? -1 : 0;
}

/* Double the capacity of buf from cap entries; 0 (buf kept) on failure. */
static int
grow(long long **buf, Py_ssize_t cap)
{
    long long *grown = cap > PY_SSIZE_T_MAX / (2 * (Py_ssize_t)sizeof(long long))
                           ? NULL
                           : PyMem_Realloc(*buf, 2 * cap * sizeof(long long));
    if (grown == NULL)
        return 0;
    *buf = grown;
    return 1;
}

/* *v = the int64 value of the int attribute name of o, *big as read_int
 * sets it: 0, or -1 with an exception set. */
static int
read_attr(PyObject *o, const char *name, long long *v, int *big)
{
    PyObject *a = PyObject_GetAttrString(o, name);
    int rc;

    if (a == NULL)
        return -1;
    rc = read_int(a, v, big);
    Py_DECREF(a);
    return rc;
}

/* A new buffer holding the int64 values of prefix, a range, a tuple or a
 * list of at least two ints, with room for 1024 more, and *cap its
 * capacity.  *k is the prefix length; when a term lies outside int64, *big
 * is set and *k is the count of terms before it.  A range whose start and
 * step fit int64 is read in place, each term the one before plus step, with
 * no int object per term; any other prefix, a range such as
 * range(-2**63, 1, 2**63) among them, is read as its tuple.  Both reads give
 * what the tuple of the prefix gives.  NULL to decline. */
static long long *
load_prefix(PyObject *prefix, Py_ssize_t *k, Py_ssize_t *cap, int *big)
{
    PyObject *seq = NULL;
    long long *t = NULL, start = 0, step = 0;
    Py_ssize_t i;
    int range = PyRange_Check(prefix), wide = 0;

    *big = 0;
    if ((!range && !PyTuple_Check(prefix) && !PyList_Check(prefix)) ||
        (range && (read_attr(prefix, "start", &start, &wide) ||
                   (!wide && read_attr(prefix, "step", &step, &wide)))))
        return NULL;
    range = range && !wide;
    if (!range && (seq = PySequence_Tuple(prefix)) == NULL) /* a list copied: no call below changes it */
        return NULL;
    *k = range ? PyObject_Size(prefix) : PyTuple_GET_SIZE(seq); /* -1 past a Python size */
    *cap = Py_MIN(*k, PY_SSIZE_T_MAX - 1024) + 1024; /* too large for PyMem_New past that */
    if (*k >= 2 && (t = PyMem_New(long long, *cap)) == NULL)
        PyErr_NoMemory();
    for (i = 0; t != NULL && !*big && i < *k; i++) {
        if (!range) {
            if (read_int(PyTuple_GET_ITEM(seq, i), &t[i], big)) {
                PyMem_Free(t);
                t = NULL;
            }
        }
        else if (i == 0)
            t[0] = start;
        else
            *big = __builtin_add_overflow(t[i - 1], step, &t[i]);
    }
    if (*big)
        *k = i - 1;
    Py_XDECREF(seq);
    return t;
}

/* Extend the terms Q(1..*n-1) in t, which has room for cap terms, through
 * Q(min(max_terms, cap)).  Returns the status and sets *n to the stopping
 * index, or to one past the last term of an alive run: the caller grows t
 * and calls again while *n is within max_terms.  A prefix longer than
 * max_terms is kept whole.  The last two terms, Q(m-1) and Q(m-2), ride in
 * locals: a term is read back from t only where a later one refers to it,
 * never as the argument of the next. */
static int
extend(long long *t, Py_ssize_t cap, int zero, Py_ssize_t max_terms, Py_ssize_t *n)
{
    Py_ssize_t m = *n, last = max_terms < cap ? max_terms : cap;
    long long a, b, q1 = t[m - 2], q2 = t[m - 3];
    int status = STATUS_ALIVE;

    for (; m <= last; m++) {
        if ((status = lookup(t, m, q1, zero, &a)) ||
            (status = lookup(t, m, q2, zero, &b)))
            break;
        q2 = q1;
        if (__builtin_add_overflow(a, b, &q1)) {
            status = STATUS_OVERFLOW;
            break;
        }
        t[m - 1] = q1;
    }
    *n = m;
    return status;
}

/* The terms are computed in place in the array('q') they are returned as,
 * grown by doubling; the prefix is copied in from load_prefix's buffer. */
static PyObject *
q_generate(PyObject *self, PyObject *args)
{
    PyObject *prefix;
    int zero, status, big;
    Py_ssize_t max_terms, k, cap, n;
    long long *t;
    Store st;

    if (!PyArg_ParseTuple(args, "OpO&", &prefix, &zero, clipped_size, &max_terms) ||
        (t = load_prefix(prefix, &k, &cap, &big)) == NULL)
        return declined();
    if (store_new(&st, cap) == 0)
        memcpy(st.v, t, k * sizeof(long long));
    PyMem_Free(t);
    if (st.arr == NULL)
        return declined();
    n = k + 1;
    status = big ? STATUS_OVERFLOW : STATUS_ALIVE;
    while (status == STATUS_ALIVE && n <= max_terms) {
        if (n > st.cap && store_grow(&st) < 0)
            return declined();
        status = extend(st.v, st.cap, zero, max_terms, &n);
    }
    return Py_BuildValue("(Ni)", store_take(&st, n - 1), status);
}

/* A table read in place: the buffer of an object that exports a C-contiguous
 * int64 one (format "q", itemsize 8), such as an array('q').  view.obj is
 * NULL while no buffer is held, and column_close is then a no-op. */
typedef struct {
    Py_buffer view;
    const long long *v;
    Py_ssize_t len;
} Column;

/* Hold the int64 buffer of o in col: 1, or 0 with nothing held when o
 * exports none, and the call is declined. */
static int
column_open(PyObject *o, Column *col)
{
    col->view.obj = NULL;
    if (PyObject_GetBuffer(o, &col->view, PyBUF_FORMAT | PyBUF_ND) < 0)
        return 0; /* no buffer, or not a C-contiguous one */
    if (col->view.ndim != 1 || col->view.itemsize != 8 || strcmp(col->view.format, "q") != 0) {
        PyBuffer_Release(&col->view);
        return 0;
    }
    col->v = col->view.buf;
    col->len = col->view.len / 8;
    return 1;
}

static void
column_close(Column *col)
{
    PyBuffer_Release(&col->view);
}

/* One tile (kind, length, a, b) of a prediction, clipped to the budget;
 * _fallback.materialise says what each kind predicts. */
typedef struct {
    int kind;
    Py_ssize_t length;
    long long a, b;     /* chunk: first value and step; blocks: lam; literal: x and y */
    int a_big, b_big;   /* a or b lies outside int64 */
    Column tab[3];      /* blocks: R(0..), S(0..), T(0..); literal: c, d, f */
} Tile;

/* Read tile item, its length clipped to room: 0, or 1 to decline a
 * malformed tile, a parameter that is not an int, or a table that is not
 * an int64 buffer long enough for the tile: a literal's columns c, d and f
 * of at least length rows, or its R/S/T tables.  Close it with tile_close
 * either way. */
static int
read_tile(PyObject *item, Py_ssize_t room, Tile *tl)
{
    PyObject *a, *b, *x, *y, *col[3];
    Py_ssize_t kmax, need[3];

    memset(tl, 0, sizeof *tl);
    if (!PyTuple_Check(item) || !PyArg_ParseTuple(item, "inOO", &tl->kind, &tl->length, &a, &b) ||
        tl->length < 0)
        return 1;
    tl->length = Py_MAX(Py_MIN(tl->length, room), 0);
    kmax = (tl->length + 4) / 5;
    switch (tl->kind) {
    case TILE_CHUNK:
        return read_int(a, &tl->a, &tl->a_big) || read_int(b, &tl->b, &tl->b_big);
    case TILE_LITERAL: /* a = (x, y); row i of c, d and f for the value at offset i */
        if (!PyTuple_Check(a) || !PyArg_ParseTuple(a, "OO", &x, &y) ||
            read_int(x, &tl->a, &tl->a_big) || read_int(y, &tl->b, &tl->b_big))
            return 1;
        need[0] = need[1] = need[2] = tl->length;
        break;
    case TILE_BLOCKS: /* kmax blocks read rows 0..kmax+1 of r and s and 0..kmax of t */
        if (read_int(a, &tl->a, &tl->a_big))
            return 1;
        need[0] = need[1] = kmax + 2;
        need[2] = kmax + 1;
        break;
    default:
        return 1;
    }
    return !PyTuple_Check(b) || !PyArg_ParseTuple(b, "OOO", &col[0], &col[1], &col[2]) ||
           !column_open(col[0], &tl->tab[0]) || !column_open(col[1], &tl->tab[1]) ||
           !column_open(col[2], &tl->tab[2]) || tl->tab[0].len < need[0] ||
           tl->tab[1].len < need[1] || tl->tab[2].len < need[2];
}

static void
tile_close(Tile *tl)
{
    column_close(&tl->tab[0]);
    column_close(&tl->tab[1]);
    column_close(&tl->tab[2]);
}

/* Store in v[0..4] the values tile tl, of kind kind, predicts at offsets
 * 5g..5g+4 (5g < tl->length), in order, stopping at the first it cannot
 * compute in int64 or past the end of a literal: returns how many it
 * stored, 5 when it did not stop.  This is the one place in C that says
 * what each kind predicts.  Each value is computed exactly, with no state
 * kept from another group.  A literal's row c*x + d*y + f stops at x or y
 * outside int64 under a nonzero coefficient, or at a product or partial
 * sum outside int64.  A chunk's group g > 0 is asked for only once the run
 * has matched group 0, in which a and b each precede a later term, so both
 * are positive: a + b*g leaves int64 exactly when b*g or the sum does.  A
 * big b stops group 0 at 2 values.  A block's lam outside int64 is the
 * first value outside int64 that depends on it (T(k) >= 1 in every table). */
static inline __attribute__((always_inline)) int
tile_group(const Tile *tl, int kind, Py_ssize_t g, long long *v)
{
    const long long *r = tl->tab[0].v, *s = tl->tab[1].v, *t = tl->tab[2].v;
    long long cx, dy;
    int i;

    switch (kind) {
    case TILE_LITERAL: /* row 5g + i of the columns (c, d, f) = (r, s, t) */
        r += 5 * g, s += 5 * g, t += 5 * g;
        for (i = 0; i < 5 && 5 * g + i < tl->length; i++)
            if ((r[i] && tl->a_big) || (s[i] && tl->b_big) || __builtin_mul_overflow(r[i], tl->a, &cx) ||
                __builtin_mul_overflow(s[i], tl->b, &dy) || __builtin_add_overflow(cx, dy, &v[i]) ||
                __builtin_add_overflow(v[i], t[i], &v[i]))
                break;
        return i;
    case TILE_CHUNK: /* (a + b*g, 5, b, 3, 5) */
        v[1] = 5;
        v[2] = tl->b;
        v[3] = 3;
        v[4] = 5;
        return tl->a_big || __builtin_mul_overflow(tl->b, g, &v[0]) ||
               __builtin_add_overflow(tl->a, v[0], &v[0]) ? 0 : tl->b_big ? 2 : 5;
    default: /* TILE_BLOCKS, block k = g + 1: (lam*T(k), 4, 5R(k), 5R(k+1), 5S(k+1)) */
        v[1] = 4;
        return tl->a_big || __builtin_mul_overflow(tl->a, t[g + 1], &v[0]) ? 0
               : __builtin_mul_overflow(r[g + 1], 5LL, &v[2]) ? 2
               : __builtin_mul_overflow(r[g + 2], 5LL, &v[3]) ? 3
               : __builtin_mul_overflow(s[g + 2], 5LL, &v[4]) ? 4
               : 5;
    }
}

/* The count of the leading groups of tile tl that match u[0..5g-1], every
 * value within int64, at most whole, for kind = tl->kind. */
static inline __attribute__((always_inline)) Py_ssize_t
kind_groups(const Tile *tl, int kind, const long long *u, Py_ssize_t whole)
{
    long long v[5];
    Py_ssize_t g;

    for (g = 0; g < whole && tile_group(tl, kind, g, v) == 5; g++, u += 5) {
        if (u[0] != v[0] || u[1] != v[1] || u[2] != v[2] || u[3] != v[3] || u[4] != v[4])
            break;
    }
    return g;
}

/* kind_groups with a constant kind at each call, so that each kind gets a
 * loop of its own around its tile_group; kept out of q_check, whose locals
 * would push the loops' own out of registers. */
static __attribute__((noinline)) Py_ssize_t
matched_groups(const Tile *tl, const long long *u, Py_ssize_t whole)
{
    switch (tl->kind) {
    case TILE_LITERAL:
        return kind_groups(tl, TILE_LITERAL, u, whole);
    case TILE_CHUNK:
        return kind_groups(tl, TILE_CHUNK, u, whole);
    }
    return kind_groups(tl, TILE_BLOCKS, u, whole);
}

static PyObject *
q_check(PyObject *self, PyObject *args)
{
    PyObject *prefix, *tiles, *seq = NULL, *first = NULL, *result = NULL;
    int zero, status, big, rc = 0, differs = 0, stored;
    Py_ssize_t max_terms, k, cap, n, n_act, pos, end, i, j = 0, g;
    long long *t = NULL, v[5];
    Tile tl;

    /* a list of tiles copied: no call below changes it */
    if (!PyArg_ParseTuple(args, "OpOO&", &prefix, &zero, &tiles, clipped_size, &max_terms) ||
        (!PyTuple_Check(tiles) && !PyList_Check(tiles)) || (seq = PySequence_Tuple(tiles)) == NULL ||
        (t = load_prefix(prefix, &k, &cap, &big)) == NULL)
        goto done;
    n = k + 1;
    status = big ? STATUS_OVERFLOW : STATUS_ALIVE;
    while (status == STATUS_ALIVE && n <= max_terms) {
        if (n > cap) {
            if (!grow(&t, cap)) {
                PyErr_NoMemory();
                goto done;
            }
            cap *= 2;
        }
        status = extend(t, cap, zero, max_terms, &n);
    }
    if (status == STATUS_OVERFLOW)
        goto done;
    n_act = n - 1;
    pos = end = k; /* the run holds the prefix: the tiles predict past it */

    /* Read every tile, as _fallback.q_check does, each clipped to the
     * budget: end is the predicted length, the prefix's own included.  Walk
     * the predicted values past the prefix in order to the first one that
     * has no actual term or differs from it: pos ends at its offset, or at
     * end.  Each tile, of any kind, is matched
     * five values at a time while its groups lie within it and the actual
     * run; the group where that stops holds the first difference, the end of
     * the run or of the tile, or a value outside int64, and is walked value
     * by value: a value outside int64 is declined, then the end of the
     * actual run tested, then the value compared.  A tile that cannot be
     * read, or a value outside int64 up to that one, declines the call
     * (rc 1). */
    for (i = 0; !rc && i < PyTuple_GET_SIZE(seq); i++) {
        rc = read_tile(PyTuple_GET_ITEM(seq, i), max_terms - end, &tl);
        if (!rc && !differs) {
            g = matched_groups(&tl, t + pos, Py_MIN(tl.length, n_act - pos) / 5);
            pos += 5 * g;
            stored = 5 * g < tl.length ? tile_group(&tl, tl.kind, g, v) : 0;
            for (j = 0; j < Py_MIN(tl.length - 5 * g, 5); j++) {
                if ((rc = j >= stored) || pos + j >= n_act || v[j] != t[pos + j])
                    break;
            }
            differs = 5 * g + j < tl.length; /* then v[j] differs */
            pos += j;
        }
        end += tl.length;
        tile_close(&tl);
    }

    if (rc)
        goto done;
    /* (index, predicted, actual), None on the side that has no value */
    if (!differs && pos == n_act)
        first = Py_NewRef(Py_None);
    else
        first = Py_BuildValue("(nNN)", pos + 1, differs ? PyLong_FromLongLong(v[j]) : Py_NewRef(Py_None),
                              pos < n_act ? PyLong_FromLongLong(t[pos]) : Py_NewRef(Py_None));
    if (first != NULL)
        result = Py_BuildValue("(Nin)", first, status, n_act);

done:
    Py_XDECREF(seq);
    PyMem_Free(t);
    return result != NULL ? result : declined();
}

/* Argument a of table v: 0 when a is negative. */
#define AT(v, a) ((a) >= 0 ? (v)[a] : 0)

static PyObject *
rst_generate(PyObject *self, PyObject *args)
{
    Py_ssize_t n_max, rows, m;
    long long *r, *s, *t, i, i1, i2, rv, sv, a, b;
    const char *which = NULL;
    int overflow = 0;
    PyObject *rt, *st, *tt, *result = NULL;
    Store rs = {NULL}, ss = {NULL}, ts = {NULL};

    if (!PyArg_ParseTuple(args, "O&", clipped_size, &n_max) || n_max < 2)
        return declined();
    /* n_max + 1 rows, clipped before the sum can overflow: no memory holds
     * PY_SSIZE_T_MAX rows, so that store is a MemoryError all the same */
    rows = Py_MIN(n_max, PY_SSIZE_T_MAX - 1) + 1;
    if (store_new(&rs, rows) || store_new(&ss, rows) || store_new(&ts, rows))
        goto done;
    r = rs.v;
    s = ss.v;
    t = ts.v;
    r[0] = 0; r[1] = 1; r[2] = 2;
    s[0] = 1; s[1] = 1; s[2] = 2;
    t[0] = 1; t[1] = 2; t[2] = 2;

    /* Every value is a sum of earlier values or of zeros, so none is
     * negative, a reference at or past row m is one to a value <= 0, and a
     * sum leaves int64 exactly when a > LLONG_MAX - b. */
    for (m = 3; m <= n_max; m++) {
        i = m - r[m - 1];
        if (i >= m) {
            which = "r";
            break;
        }
        a = AT(r, i);
        b = s[m - 1];
        if ((overflow = a > LLONG_MAX - b))
            break;
        rv = a + b;
        i1 = m - rv;
        if (i1 >= m) {
            which = "s";
            break;
        }
        a = AT(s, i1);
        b = AT(s, i);
        if ((overflow = a > LLONG_MAX - b))
            break;
        sv = a + b;
        i2 = m - sv;
        if (i2 >= m) {
            which = "t";
            break;
        }
        a = AT(t, i1);
        b = AT(t, i2);
        if ((overflow = a > LLONG_MAX - b))
            break;
        r[m] = rv;
        s[m] = sv;
        t[m] = a + b;
    }

    /* Rows 0..m-1 are complete: m is the stopping row, where the tables are
     * cut, or n_max + 1, where they end already. */
    if (overflow) {
        result = Py_NewRef(Py_None);
        goto done;
    }
    rt = store_take(&rs, m);
    st = store_take(&ss, m);
    tt = store_take(&ts, m);
    if (rt != NULL && st != NULL && tt != NULL)
        result = Py_BuildValue("(NNNz)", rt, st, tt, which);
    else {
        Py_XDECREF(rt);
        Py_XDECREF(st);
        Py_XDECREF(tt);
    }

done:
    store_free(&rs);
    store_free(&ss);
    store_free(&ts);
    return result != NULL ? result : declined();
}

/* POW10[n] = 10^n, the least magnitude of n + 1 digits */
static const unsigned long long POW10[20] = {
    1ULL, 10ULL, 100ULL, 1000ULL, 10000ULL, 100000ULL, 1000000ULL, 10000000ULL,
    100000000ULL, 1000000000ULL, 10000000000ULL, 100000000000ULL, 1000000000000ULL,
    10000000000000ULL, 100000000000000ULL, 1000000000000000ULL, 10000000000000000ULL,
    100000000000000000ULL, 1000000000000000000ULL, 10000000000000000000ULL,
};

/* The magnitude of v in unsigned arithmetic, where -LLONG_MIN is defined. */
static unsigned long long
magnitude(long long v)
{
    return v < 0 ? 0ULL - (unsigned long long)v : (unsigned long long)v;
}

/* The length of the decimal form of v, its sign included.  A magnitude of
 * b bits has t or t + 1 digits, t = floor(b log10 2), which is b * 1233 >> 12
 * for every b <= 64; u | 1 has the digits of u and at least one bit. */
static Py_ssize_t
decimal_length(long long v)
{
    unsigned long long u = magnitude(v) | 1;
    int t = (64 - __builtin_clzll(u)) * 1233 >> 12;

    return t + (u >= POW10[t]) + (v < 0);
}

/* DIGITS[2d], DIGITS[2d + 1]: the two digits of d = 0..99 */
static const char DIGITS[201] =
    "0001020304050607080910111213141516171819"
    "2021222324252627282930313233343536373839"
    "4041424344454647484950515253545556575859"
    "6061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* Write the decimal form of v, decimal_length(v) characters, ending at end,
 * two digits a step. */
static void
put_decimal(Py_UCS1 *end, long long v)
{
    unsigned long long u = magnitude(v);

    for (; u >= 100; u /= 100) {
        end -= 2;
        memcpy(end, DIGITS + 2 * (u % 100), 2);
    }
    if (u >= 10) {
        end -= 2;
        memcpy(end, DIGITS + 2 * u, 2);
    }
    else
        *--end = (Py_UCS1)('0' + u);
    if (v < 0)
        *--end = '-';
}

/* The widest field: INT64_MIN, a sign and 19 digits */
#define FIELD_MAX 20

/* One pass over the columns' buffers: the str is allocated at an upper
 * bound, FIELD_MAX characters a field and its sep or newline, each field is
 * written once, and the str is then cut to what was written. */
static PyObject *
format_rows(PyObject *self, PyObject *args)
{
    PyObject *columns, *first, *sep, *cols, *text = NULL;
    Column *col = NULL;
    Py_ssize_t per_row, lo, hi, ncol, width, nfield, nline, i, c, f, n, seplen;
    long long index = 0, last, v;
    const Py_UCS1 *sepdata;
    Py_UCS1 *start, *p;
    int indexed, big = 0;

    /* columns that are not a list or a tuple are left unread */
    if (!PyArg_ParseTuple(args, "OOUnnn", &columns, &first, &sep, &per_row, &lo, &hi) ||
        (!PyList_Check(columns) && !PyTuple_Check(columns)) ||
        (cols = PySequence_Tuple(columns)) == NULL) /* a list copied: no call below changes it */
        return declined();
    ncol = PyTuple_GET_SIZE(cols);
    indexed = first != Py_None;
    if (!PyUnicode_IS_ASCII(sep) || ncol < 1 || per_row < 1 ||
        (per_row > 1 && (ncol > 1 || indexed)) || lo < 0 || lo > hi)
        goto done;
    /* row i has the index first + i, the last one first + hi - 1 */
    if (indexed && read_int(first, &index, &big) < 0)
        goto done;
    if (indexed && hi > lo && (big || __builtin_add_overflow(index, (long long)(hi - 1), &last)))
        goto done;
    if ((col = PyMem_Calloc(ncol, sizeof(Column))) == NULL) { /* every column closed */
        PyErr_NoMemory();
        goto done;
    }
    for (c = 0; c < ncol; c++) {
        if (!column_open(PyTuple_GET_ITEM(cols, c), &col[c]) || hi > col[c].len)
            goto done;
    }

    /* The fields in output order, row by row and the index first: each is
     * followed by sep or, when it ends a line of width fields, by "\n". */
    width = per_row > 1 ? per_row : ncol + indexed;
    nfield = (hi - lo) * (ncol + indexed);
    nline = (nfield + width - 1) / width;
    seplen = PyUnicode_GET_LENGTH(sep);
    if (nfield > 0 && FIELD_MAX + 1 + seplen > PY_SSIZE_T_MAX / nfield) {
        PyErr_NoMemory();
        goto done;
    }
    text = PyUnicode_New(nfield * FIELD_MAX + nline + (nfield - nline) * seplen, 127);
    if (text == NULL)
        goto done;
    p = start = PyUnicode_1BYTE_DATA(text);
    sepdata = PyUnicode_1BYTE_DATA(sep);
    for (i = lo, f = 0; i < hi; i++) {
        for (c = -indexed; c < ncol; c++) { /* c = -1: the index */
            v = c < 0 ? index + i : col[c].v[i];
            n = decimal_length(v);
            put_decimal(p + n, v);
            p += n;
            if (++f == width || (i + 1 == hi && c + 1 == ncol)) { /* f: the fields of the line */
                *p++ = '\n';
                f = 0;
            }
            else if (seplen == 1)
                *p++ = sepdata[0];
            else {
                memcpy(p, sepdata, seplen);
                p += seplen;
            }
        }
    }
    if (PyUnicode_Resize(&text, p - start) < 0)
        Py_CLEAR(text);

done:
    if (col != NULL) {
        for (c = 0; c < ncol; c++)
            column_close(&col[c]);
        PyMem_Free(col);
    }
    Py_DECREF(cols);
    return text != NULL ? text : declined();
}

static PyMethodDef methods[] = {
    {"q_generate", q_generate, METH_VARARGS,
     "q_generate(prefix, zero_extended, max_terms) -> (terms, status) or None\n\n"
     "Extend prefix under Q(n) = Q(n-Q(n-1)) + Q(n-Q(n-2)) in int64;\n"
     "terms is an array('q'), and a run that stops, stops at\n"
     "len(terms) + 1.  None when declined."},
    {"q_check", q_check, METH_VARARGS,
     "q_check(prefix, zero_extended, tiles, max_terms)\n"
     "-> (first_mismatch, status, n_actual) or None\n\n"
     "Run q_generate's recurrence, n_actual terms, and compare it with the\n"
     "tiles, each five terms at a time; None when declined."},
    {"rst_generate", rst_generate, METH_VARARGS,
     "rst_generate(n_max) -> (r, s, t, which) or None\n\n"
     "Tabulate R(0..n), S(0..n) and T(0..n) in int64, as three array('q'),\n"
     "cut at row len(s) where which ends the system; None when declined."},
    {"format_rows", format_rows, METH_VARARGS,
     "format_rows(columns, first, sep, per_row, lo, hi) -> str or None\n\n"
     "Rows lo..hi-1 of the int64 buffer columns as text, written in one\n"
     "pass into a str allocated at 20 characters a field and then cut to\n"
     "the text; None when declined."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_kernel", NULL, -1, methods,
};

PyMODINIT_FUNC
PyInit__kernel(void)
{
    PyObject *array = PyImport_ImportModule("array");

    if (array == NULL)
        return NULL;
    Py_XSETREF(ZERO, PyObject_CallMethod(array, "array", "s[i]", "q", 0));
    Py_DECREF(array);
    return ZERO == NULL ? NULL : PyModule_Create(&module);
}
