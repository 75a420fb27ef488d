/* Compiled generators for the Q-recurrence and the R/S/T tables: a pure
 * accelerator of _fallback, the Python reference.  Each entry point returns
 * what its _fallback namesake does (checked, that is in int64, for
 * q_generate and q_check), or None when it declines the call: when it
 * cannot read it or decide it in int64.  _backend then asks _fallback,
 * which owns every error: the kernel raises only MemoryError and interrupts.
 * Terms and tables come back as a read-only int64 memoryview (format "q")
 * of one bytes block per result, written in place and cut to exactly its
 * rows (see block_size): the type _fallback returns while the values fit
 * int64.
 * q_generate(prefix, zero_extended, max_terms) returns (terms, status); a
 * run that stops, stops at len(terms) + 1 (see engine._status_of).  A term
 * outside int64, of the prefix or computed, is STATUS_OVERFLOW, and terms
 * holds the terms before it.  A prefix is a range, a tuple or a list of
 * ints; a range such as range(1, N + 1) is read from its start, step and
 * length (see load_prefix).  Its block grows by doubling, never past
 * max(max_terms, prefix length) rows.
 * q_check(prefix, tiles, max_terms) returns (first_mismatch, status,
 * n_actual), the run of n_actual terms under zero extension compared with
 * the tiles, which predict the terms past the prefix.  It builds no list: it
 * writes the predicted values past the terms it has checked, a window of a
 * tile at a time (see tile_fill, which evaluates a literal's forms), and
 * tests each against the recurrence from the values before it (see
 * first_break), so the tests do not wait on each other.  Only from the
 * first that breaks the recurrence, or from the end of the prediction, does
 * it run the recurrence one term after another (see extend).
 * rst_generate(n_max) returns (r, s, t, which): R(0..n), S(0..n) and
 * T(0..n), row k at index k, three views of the segments of one block
 * allocated once at 3 (n_max + 1) rows, and compacted and cut only where
 * which ends the system, at row len(s).
 * format_rows(columns, first, sep, per_row, lo, hi) writes its rows as ASCII
 * straight into one new str, in one pass over the values: the str is
 * allocated at an upper bound, 20 characters a field, each field is written
 * once, four digits a step from a table of every group of four (see
 * put_decimal), and the str is cut to what was written.
 * max_terms and n_max are clipped to Py_ssize_t (see clipped_size).  A table
 * (a column of format_rows, a literal's c, d or f, an R/S/T table of a block
 * tile) is read in place from a C-contiguous int64 buffer, such as this
 * kernel's memoryviews or an array('q') (see Column), and any other is
 * declined.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

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
 * which no block outgrows, so the clip changes no answer.  The clip may
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

/* The most rows a block may hold: no memory holds PY_SSIZE_T_MAX / 32
 * rows of 8 bytes, so past them a block is a MemoryError, before its bytes
 * and a bytes object's header can overflow Py_ssize_t.  rst_generate clips
 * its rows to this, so that its three tables' rows cannot overflow either. */
#define BLOCK_ROWS_MAX (PY_SSIZE_T_MAX / 32)

/* Size *b to rows int64 rows: a new bytes block when *b is NULL, or *b
 * resized, its rows before the new end kept.  Nothing is zeroed: the
 * caller writes every row it returns.  0, or -1 with an exception set and
 * *b NULL. */
static int
block_size(PyObject **b, Py_ssize_t rows)
{
    if (rows > BLOCK_ROWS_MAX) {
        Py_CLEAR(*b);
        PyErr_NoMemory();
        return -1;
    }
    if (*b == NULL)
        return (*b = PyBytes_FromStringAndSize(NULL, rows * 8)) == NULL ? -1 : 0;
    return _PyBytes_Resize(b, rows * 8);
}

/* The int64 rows of block b, written in place before a view of it is made */
#define ROWS(b) ((long long *)PyBytes_AS_STRING(b))

/* A read-only int64 memoryview (format "q") of the block b, which it takes:
 * NULL with an exception set, also when b is NULL. */
static PyObject *
block_view(PyObject *b)
{
    PyObject *bytes = b == NULL ? NULL : PyMemoryView_FromObject(b), *view;

    Py_XDECREF(b);
    if (bytes == NULL)
        return NULL;
    view = PyObject_CallMethod(bytes, "cast", "s", "q");
    Py_DECREF(bytes);
    return view;
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

/* Double the capacity *cap of buf: 0, or -1 with MemoryError set and buf
 * kept. */
static int
grow(long long **buf, Py_ssize_t *cap)
{
    long long *grown = *cap > PY_SSIZE_T_MAX / (2 * (Py_ssize_t)sizeof(long long))
                           ? NULL
                           : PyMem_Realloc(*buf, 2 * *cap * sizeof(long long));
    if (grown == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    *buf = grown;
    *cap *= 2;
    return 0;
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

/* The terms are computed in place in the block they are returned in: it
 * starts at k + 1024 rows, k the prefix length, and doubles, but never
 * grows past max(max_terms, k) rows.  No row is zeroed or copied to grow
 * it, and it is cut to the run when the run ends. */
static PyObject *
q_generate(PyObject *self, PyObject *args)
{
    PyObject *prefix, *b = NULL;
    int zero, status, big;
    Py_ssize_t max_terms, k, cap, limit, n;
    long long *t;

    if (!PyArg_ParseTuple(args, "OpO&", &prefix, &zero, clipped_size, &max_terms) ||
        (t = load_prefix(prefix, &k, &cap, &big)) == NULL)
        return declined();
    limit = Py_MAX(max_terms, k);
    cap = Py_MIN(cap, limit);
    if (block_size(&b, cap) == 0)
        memcpy(ROWS(b), t, k * sizeof(long long));
    PyMem_Free(t);
    n = k + 1;
    status = big ? STATUS_OVERFLOW : STATUS_ALIVE;
    while (b != NULL && status == STATUS_ALIVE && n <= max_terms) {
        if (n > cap) {
            cap = cap > limit / 2 ? limit : 2 * cap;
            if (block_size(&b, cap))
                break;
        }
        status = extend(ROWS(b), cap, zero, max_terms, &n);
    }
    if (b == NULL || block_size(&b, n - 1) < 0)
        return declined();
    return Py_BuildValue("(Ni)", block_view(b), status);
}

/* A table read in place: the buffer of an object that exports a C-contiguous
 * int64 one (format "q", itemsize 8), such as a view of a block or an
 * array('q').  view.obj is NULL while no buffer is held, and column_close is
 * then a no-op. */
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

/* Write to v the count values tile tl predicts from offset off on (off +
 * count <= tl->length): a literal row by row, a chunk or a block tile by
 * whole groups of five from g = off / 5 (off a multiple of 5), so up to 4
 * values past them.  Returns count, or how many it wrote before the first
 * value it cannot compute in int64.  This is the one place in C that says
 * what each kind predicts, each value computed exactly, with no state kept
 * from another group.  A literal's row c*x + d*y + f stops at x or y
 * outside int64 under a nonzero coefficient, or at a product or partial
 * sum outside int64.  A chunk's group g > 0 decides q_check only once group
 * 0 has passed the recurrence, whose terms at offsets 1 and 3 read a and b
 * as Q(n-1), so both are positive: a + b*g leaves int64 exactly when b*g or
 * the sum does.  A big b stops group 0 at 2 values.  A block's lam outside
 * int64 is the first value outside int64 that depends on it (T(k) >= 1 in
 * every table). */
static Py_ssize_t
tile_fill(const Tile *tl, Py_ssize_t off, long long *v, Py_ssize_t count)
{
    const long long *r = tl->tab[0].v, *s = tl->tab[1].v, *t = tl->tab[2].v;
    long long cx, dy;
    Py_ssize_t i, g = off / 5;
    int got;

    switch (tl->kind) {
    case TILE_LITERAL: /* row off + i of the columns (c, d, f) = (r, s, t) */
        r += off, s += off, t += off;
        for (i = 0; i < count; i++)
            if ((r[i] && tl->a_big) || (s[i] && tl->b_big) || __builtin_mul_overflow(r[i], tl->a, &cx) ||
                __builtin_mul_overflow(s[i], tl->b, &dy) || __builtin_add_overflow(cx, dy, &v[i]) ||
                __builtin_add_overflow(v[i], t[i], &v[i]))
                return i;
        return count;
    case TILE_CHUNK: /* group g: (a + b*g, 5, b, 3, 5) */
        for (i = 0; i < count; i += 5, g++) {
            v[i + 1] = 5;
            v[i + 2] = tl->b;
            v[i + 3] = 3;
            v[i + 4] = 5;
            got = tl->a_big || __builtin_mul_overflow(tl->b, g, &v[i]) ||
                  __builtin_add_overflow(tl->a, v[i], &v[i]) ? 0 : tl->b_big ? 2 : 5;
            if (got < 5)
                return Py_MIN(i + got, count);
        }
        return count;
    default: /* TILE_BLOCKS, block k = g + 1: (lam*T(k), 4, 5R(k), 5R(k+1), 5S(k+1)) */
        for (i = 0; i < count; i += 5, g++) {
            v[i + 1] = 4;
            got = tl->a_big || __builtin_mul_overflow(tl->a, t[g + 1], &v[i]) ? 0
                  : __builtin_mul_overflow(r[g + 1], 5LL, &v[i + 2]) ? 2
                  : __builtin_mul_overflow(r[g + 2], 5LL, &v[i + 3]) ? 3
                  : __builtin_mul_overflow(s[g + 2], 5LL, &v[i + 4]) ? 4
                  : 5;
            if (got < 5)
                return Py_MIN(i + got, count);
        }
        return count;
    }
}

/* The first index n in lo+1..hi (lo >= 2) at which t[n-1] is not the term
 * the recurrence computes from t[0..n-2] under zero extension, or 0 when
 * there is none.  Each index is tested from the values before it, not from
 * a term computed here, so the tests do not wait on each other; while
 * t[0..lo-1] is the run, the first n that fails is where t departs from the
 * run, and every test before it read only terms of the run. */
static Py_ssize_t
first_break(const long long *t, Py_ssize_t lo, Py_ssize_t hi)
{
    Py_ssize_t n;
    long long q1, q2, a, b, sum;

    for (n = lo + 1; n <= hi; n++) {
        q1 = t[n - 2];
        q2 = t[n - 3];
        if (q1 <= 0 || q2 <= 0)
            return n;
        a = q1 < n ? t[n - 1 - q1] : 0;
        b = q2 < n ? t[n - 1 - q2] : 0;
        if (__builtin_add_overflow(a, b, &sum) || sum != t[n - 1])
            return n;
    }
    return 0;
}

/* How many predicted values of a tile q_check writes before first_break
 * tests them: a window, whole groups of five counted from the tile's start. */
#define WINDOW 4095

static PyObject *
q_check(PyObject *self, PyObject *args)
{
    PyObject *prefix, *tiles, *seq = NULL, *first = NULL, *result = NULL;
    int status = STATUS_ALIVE, big, rc = 0;
    Py_ssize_t max_terms, k, cap, n, fil, end, f = 0, off, want, got, i;
    long long *t = NULL, predicted = 0;
    Tile tl;

    /* a list of tiles copied: no call below changes it */
    if (!PyArg_ParseTuple(args, "OOO&", &prefix, &tiles, clipped_size, &max_terms) ||
        (!PyTuple_Check(tiles) && !PyList_Check(tiles)) || (seq = PySequence_Tuple(tiles)) == NULL ||
        (t = load_prefix(prefix, &k, &cap, &big)) == NULL || big)
        goto done; /* big: the run overflows in its prefix */
    fil = end = k; /* the run holds the prefix: the tiles predict past it */

    /* Read every tile, as _fallback's walk does, each clipped to the
     * budget where it starts: end is the predicted length, the prefix's
     * own included.  t holds the run's terms t[0..fil-1], checked.  tile_fill writes a
     * window of a tile past them, WINDOW values or the rest of the tile,
     * and first_break tests it before the next window is written.  t grows,
     * by doubling, only as far as the values written and the 4 that
     * tile_fill may write past them.  f is set at the first index that
     * fails, where the prediction departs from the run, and no window past
     * it is filled.  A tile that cannot be read, or a value outside int64
     * with every value before it checked, declines the call (rc 1). */
    for (i = 0; !rc && i < PyTuple_GET_SIZE(seq); i++) {
        rc = read_tile(PyTuple_GET_ITEM(seq, i), max_terms - end, &tl);
        for (off = 0; !rc && !f && off < tl.length; off += WINDOW) {
            want = Py_MIN(tl.length - off, WINDOW);
            while (!rc && fil + want + 4 > cap)
                rc = grow(&t, &cap);
            if (rc)
                break;
            got = tile_fill(&tl, off, t + fil, want);
            f = first_break(t, fil, fil + got);
            fil += got;
            rc = !f && got < want;
        }
        end += tl.length;
        tile_close(&tl);
    }
    if (rc)
        goto done;
    if (f)
        predicted = t[f - 1];
    else
        f = fil + 1; /* the prediction holds: the run may go on past it */

    /* The run from f on, over the predicted values, as q_generate runs it. */
    n = f;
    while (status == STATUS_ALIVE && n <= max_terms) {
        if (n > cap && grow(&t, &cap))
            goto done;
        status = extend(t, cap, 1, max_terms, &n);
    }
    if (status == STATUS_OVERFLOW)
        goto done;
    /* (index, predicted, actual), None on the side that has no value */
    if (f > fil && n == f)
        first = Py_NewRef(Py_None);
    else
        first = Py_BuildValue("(nNN)", f, f <= fil ? PyLong_FromLongLong(predicted) : Py_NewRef(Py_None),
                              f < n ? PyLong_FromLongLong(t[f - 1]) : Py_NewRef(Py_None));
    if (first != NULL)
        result = Py_BuildValue("(Nin)", first, status, n - 1);

done:
    Py_XDECREF(seq);
    PyMem_Free(t);
    return result != NULL ? result : declined();
}

/* Argument a of table v: 0 when a is negative. */
#define AT(v, a) ((a) >= 0 ? (v)[a] : 0)

/* R(0..n), S(0..n) and T(0..n) in three segments of one block, rows
 * apart: row k of R at k, of S at rows + k, of T at 2 rows + k.  Where the
 * system ends at row m < rows, S and T are moved down to m and 2m and the
 * block is cut to 3m rows.  Each table is a view of its segment. */
static PyObject *
rst_generate(PyObject *self, PyObject *args)
{
    Py_ssize_t n_max, rows, m;
    long long *r, *s, *t, i, i1, i2, rv, sv;
    const char *which = NULL;
    int overflow = 0;
    PyObject *b = NULL, *view, *result = NULL;

    if (!PyArg_ParseTuple(args, "O&", clipped_size, &n_max) || n_max < 2)
        return declined();
    /* n_max + 1 rows, clipped before 3 * rows can overflow: block_size
     * refuses a block of that many rows all the same */
    rows = Py_MIN(n_max, BLOCK_ROWS_MAX) + 1;
    if (block_size(&b, 3 * rows))
        goto done;
    r = ROWS(b);
    s = r + rows;
    t = s + rows;
    r[0] = 0; r[1] = 1; r[2] = 2;
    s[0] = 1; s[1] = 1; s[2] = 2;
    t[0] = 1; t[1] = 2; t[2] = 2;

    /* Every value is a sum of earlier values or of zeros, so none is
     * negative, and a reference at or past row m is one to a value <= 0. */
    for (m = 3; m <= n_max; m++) {
        i = m - r[m - 1];
        if (i >= m) {
            which = "r";
            break;
        }
        if ((overflow = __builtin_add_overflow(AT(r, i), s[m - 1], &rv)))
            break;
        i1 = m - rv;
        if (i1 >= m) {
            which = "s";
            break;
        }
        if ((overflow = __builtin_add_overflow(AT(s, i1), AT(s, i), &sv)))
            break;
        i2 = m - sv;
        if (i2 >= m) {
            which = "t";
            break;
        }
        if ((overflow = __builtin_add_overflow(AT(t, i1), AT(t, i2), &t[m])))
            break;
        r[m] = rv;
        s[m] = sv;
    }

    /* Rows 0..m-1 are complete: m is the stopping row, where the tables are
     * cut, or n_max + 1, where they end already. */
    if (overflow) {
        result = Py_NewRef(Py_None);
        goto done;
    }
    if (m < rows) {
        memmove(r + m, s, m * sizeof *s);
        memmove(r + 2 * m, t, m * sizeof *t);
        if (block_size(&b, 3 * m))
            goto done;
    }
    view = block_view(b);
    b = NULL;
    if (view != NULL)
        result = Py_BuildValue("(NNNz)", PySequence_GetSlice(view, 0, m),
                               PySequence_GetSlice(view, m, 2 * m),
                               PySequence_GetSlice(view, 2 * m, 3 * m), which);
    Py_XDECREF(view);

done:
    Py_XDECREF(b);
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

/* DIGITS[4d..4d+3]: the four digits of d = 0..9999, zeros leading.  It is
 * written out by the compiler, so it sits in read-only pages that only a
 * process that formats touches; character constants, as ISO C bounds the
 * length of a string literal. */
#define DIGITS_1(...) \
    __VA_ARGS__, '0', __VA_ARGS__, '1', __VA_ARGS__, '2', __VA_ARGS__, '3', __VA_ARGS__, '4', \
    __VA_ARGS__, '5', __VA_ARGS__, '6', __VA_ARGS__, '7', __VA_ARGS__, '8', __VA_ARGS__, '9'
#define DIGITS_2(...) \
    DIGITS_1(__VA_ARGS__, '0'), DIGITS_1(__VA_ARGS__, '1'), DIGITS_1(__VA_ARGS__, '2'), \
    DIGITS_1(__VA_ARGS__, '3'), DIGITS_1(__VA_ARGS__, '4'), DIGITS_1(__VA_ARGS__, '5'), \
    DIGITS_1(__VA_ARGS__, '6'), DIGITS_1(__VA_ARGS__, '7'), DIGITS_1(__VA_ARGS__, '8'), \
    DIGITS_1(__VA_ARGS__, '9')
#define DIGITS_3(d) \
    DIGITS_2(d, '0'), DIGITS_2(d, '1'), DIGITS_2(d, '2'), DIGITS_2(d, '3'), DIGITS_2(d, '4'), \
    DIGITS_2(d, '5'), DIGITS_2(d, '6'), DIGITS_2(d, '7'), DIGITS_2(d, '8'), DIGITS_2(d, '9')
static const char DIGITS[40000] = {
    DIGITS_3('0'), DIGITS_3('1'), DIGITS_3('2'), DIGITS_3('3'), DIGITS_3('4'),
    DIGITS_3('5'), DIGITS_3('6'), DIGITS_3('7'), DIGITS_3('8'), DIGITS_3('9'),
};

/* Write the decimal form of v at p, decimal_length(v) characters, four
 * digits a step from its end: the first character past it.  The leading
 * group, its k = 1..4 digits the last k of its four in DIGITS, is copied as
 * four characters from its first digit, so the 4 - k after it land on the
 * group that follows, which is then written again, or past the field, where
 * its sep or newline and the next field are written later.  A field of one
 * group takes at most 5 characters with its sign, so the copy stays within
 * the FIELD_MAX characters that format_rows allocates for each field. */
static Py_UCS1 *
put_decimal(Py_UCS1 *p, long long v)
{
    unsigned long long u = magnitude(v), r = 0;
    Py_UCS1 *end = p + decimal_length(v), *q = end;

    for (; u >= 10000; u /= 10000) {
        q -= 4;
        r = u % 10000;
        memcpy(q, DIGITS + 4 * r, 4);
    }
    if (v < 0)
        *p++ = '-';
    memcpy(p, DIGITS + 4 * u + 4 - (q - p), 4);
    if (q != end)
        memcpy(q, DIGITS + 4 * r, 4);
    return end;
}

/* The widest field: INT64_MIN, a sign and 19 digits */
#define FIELD_MAX 20

/* Write sep, seplen characters, at p: the first character past it.  s is
 * its first character, held by the caller in a local, since a store through
 * p may alias any memory the compiler would otherwise read it from again. */
static Py_UCS1 *
put_sep(Py_UCS1 *p, Py_UCS1 s, const Py_UCS1 *sep, Py_ssize_t seplen)
{
    if (seplen == 1) {
        *p = s;
        return p + 1;
    }
    memcpy(p, sep, seplen);
    return p + seplen;
}

/* One pass over the columns' buffers: the str is allocated at an upper
 * bound, FIELD_MAX characters a field and its sep or newline, each field is
 * written once, and the str is then cut to what was written.  Each layout
 * has a loop of its own, which reads the last column's pointer and sep's
 * first character from locals. */
static PyObject *
format_rows(PyObject *self, PyObject *args)
{
    PyObject *columns, *first, *sep, *cols, *text = NULL;
    Column *col = NULL;
    Py_ssize_t per_row, lo, hi, ncol, width, nfield, nline, i, c, e, seplen;
    long long index = 0, last;
    const long long *tail;
    const Py_UCS1 *sepdata;
    Py_UCS1 *start, *p, s;
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
    nline = nfield / width + (nfield % width != 0); /* no sum past a width of PY_SSIZE_T_MAX */
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
    s = sepdata[0];
    tail = col[ncol - 1].v;
    if (per_row == 1) /* rows: the index, the columns before the last, the last */
        for (i = lo; i < hi; i++) {
            if (indexed)
                p = put_sep(put_decimal(p, index + i), s, sepdata, seplen);
            for (c = 0; c < ncol - 1; c++)
                p = put_sep(put_decimal(p, col[c].v[i]), s, sepdata, seplen);
            p = put_decimal(p, tail[i]);
            *p++ = '\n';
        }
    else /* one column, per_row values to a line and the rest on the last */
        for (i = lo; i < hi; i = e) {
            for (e = i + Py_MIN(per_row, hi - i); i < e - 1; i++)
                p = put_sep(put_decimal(p, tail[i]), s, sepdata, seplen);
            p = put_decimal(p, tail[i]);
            *p++ = '\n';
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
     "terms is a read-only int64 memoryview of exactly its rows, and a run\n"
     "that stops, stops at len(terms) + 1.  None when declined."},
    {"q_check", q_check, METH_VARARGS,
     "q_check(prefix, tiles, max_terms)\n"
     "-> (first_mismatch, status, n_actual) or None\n\n"
     "Test the terms the tiles predict against q_generate's recurrence under\n"
     "zero extension, each on its own, and run the recurrence from the first\n"
     "that breaks it: n_actual terms.  None when declined."},
    {"rst_generate", rst_generate, METH_VARARGS,
     "rst_generate(n_max) -> (r, s, t, which) or None\n\n"
     "Tabulate R(0..n), S(0..n) and T(0..n) in int64, as three read-only\n"
     "int64 memoryviews of one block of exactly 3 (n + 1) rows, cut at row\n"
     "len(s) where which ends the system; None when declined."},
    {"format_rows", format_rows, METH_VARARGS,
     "format_rows(columns, first, sep, per_row, lo, hi) -> str or None\n\n"
     "Rows lo..hi-1 of the int64 buffer columns as text, written in one\n"
     "pass, four digits a step, into a str allocated at 20 characters a\n"
     "field and then cut to the text; None when declined."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_kernel", NULL, -1, methods,
};

PyMODINIT_FUNC
PyInit__kernel(void)
{
    return PyModule_Create(&module);
}
