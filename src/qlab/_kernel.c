/* Compiled generators for the Q-recurrence and the R/S/T tables.
 *
 * Mirrors the contract of _fallback.q_generate in checked (int64) mode:
 * q_generate(prefix, zero_extended, max_terms) returns (terms, status, at)
 * with terms a list of int; status 0 alive, 1 died, 2 ended, 3 overflow.
 * rst_generate(n_max) returns what _fallback.rst_generate does, or None
 * when a value would leave int64.  Values are computed in private int64
 * buffers that grow with the rows produced and are freed before the call
 * returns.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>

#define STATUS_ALIVE 0
#define STATUS_DIED 1
#define STATUS_ENDED 2
#define STATUS_OVERFLOW 3

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

static PyObject *
q_generate(PyObject *self, PyObject *args)
{
    PyObject *prefix, *seq, *terms = NULL;
    int zero;
    Py_ssize_t max_terms, k, cap, n, i;
    long long *t, a, b;
    int status = STATUS_ALIVE;

    if (!PyArg_ParseTuple(args, "Opn:q_generate", &prefix, &zero, &max_terms))
        return NULL;
    seq = PySequence_Fast(prefix, "prefix must be a sequence");
    if (seq == NULL)
        return NULL;
    k = PySequence_Fast_GET_SIZE(seq);
    if (k < 2) {
        Py_DECREF(seq);
        PyErr_SetString(PyExc_ValueError, "prefix needs at least two terms");
        return NULL;
    }
    cap = k + 1024;
    t = PyMem_New(long long, cap);
    if (t == NULL) {
        Py_DECREF(seq);
        return PyErr_NoMemory();
    }
    for (i = 0; i < k; i++) {
        t[i] = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(seq, i));
        if (t[i] == -1 && PyErr_Occurred()) {
            Py_DECREF(seq);
            goto done;
        }
    }
    Py_DECREF(seq);

    for (n = k + 1; n <= max_terms; n++) {
        if ((status = lookup(t, n, t[n - 2], zero, &a)) ||
            (status = lookup(t, n, t[n - 3], zero, &b)))
            break;
        if ((b > 0 && a > LLONG_MAX - b) || (b < 0 && a < LLONG_MIN - b)) {
            status = STATUS_OVERFLOW;
            break;
        }
        if (n > cap) {
            if (!grow(&t, cap)) {
                PyErr_NoMemory();
                goto done;
            }
            cap *= 2;
        }
        t[n - 1] = a + b;
    }

    /* Q(1..n-1) are known: n is the stopping index, or one past the last
     * term of an alive run (which keeps a prefix longer than max_terms). */
    terms = PyList_New(n - 1);
    for (i = 0; terms != NULL && i < n - 1; i++) {
        PyObject *v = PyLong_FromLongLong(t[i]);
        if (v == NULL)
            Py_CLEAR(terms);
        else
            PyList_SET_ITEM(terms, i, v);
    }

done:
    PyMem_Free(t);
    if (terms == NULL)
        return NULL;
    return Py_BuildValue("(Nin)", terms, status,
                         status == STATUS_ALIVE ? (Py_ssize_t)0 : n);
}

static PyObject *
tuple_of(const long long *v, Py_ssize_t n)
{
    PyObject *tuple = PyTuple_New(n);
    Py_ssize_t i;

    for (i = 0; tuple != NULL && i < n; i++) {
        PyObject *x = PyLong_FromLongLong(v[i]);
        if (x == NULL)
            Py_CLEAR(tuple);
        else
            PyTuple_SET_ITEM(tuple, i, x);
    }
    return tuple;
}

/* Argument a of table v: 0 when a is negative. */
#define AT(v, a) ((a) >= 0 ? (v)[a] : 0)

static PyObject *
rst_generate(PyObject *self, PyObject *args)
{
    Py_ssize_t n_max, cap = 1024, m;
    long long *r, *s, *t, i, i1, i2, rv, sv, a, b;
    const char *which = NULL;
    int overflow = 0;
    PyObject *rt = NULL, *st = NULL, *tt = NULL, *result = NULL;

    if (!PyArg_ParseTuple(args, "n:rst_generate", &n_max))
        return NULL;
    if (n_max < 2) {
        PyErr_SetString(PyExc_ValueError, "rst_generate needs n_max >= 2");
        return NULL;
    }
    r = PyMem_New(long long, cap);
    s = PyMem_New(long long, cap);
    t = PyMem_New(long long, cap);
    if (r == NULL || s == NULL || t == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    r[0] = 0; r[1] = 1; r[2] = 2;
    s[0] = 1; s[1] = 1; s[2] = 2;
    t[0] = 1; t[1] = 2; t[2] = 2;

    /* Every value is a sum of earlier values or of zeros, so none is
     * negative, a reference at or past row m is one to a value <= 0, and a
     * sum leaves int64 exactly when a > LLONG_MAX - b. */
    for (m = 3; m <= n_max; m++) {
        if (m == cap) {
            if (!grow(&r, cap) || !grow(&s, cap) || !grow(&t, cap)) {
                PyErr_NoMemory();
                goto done;
            }
            cap *= 2;
        }
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

    /* Rows 0..m-1 are complete: m is the stopping row, or n_max + 1.  Each
     * buffer is freed once its tuple is built, which lowers the peak. */
    if (overflow) {
        result = Py_NewRef(Py_None);
        goto done;
    }
    rt = tuple_of(r + 1, m - 1);
    PyMem_Free(r);
    r = NULL;
    st = rt == NULL ? NULL : tuple_of(s, m);
    PyMem_Free(s);
    s = NULL;
    tt = st == NULL ? NULL : tuple_of(t, m);
    if (tt == NULL) {
        Py_XDECREF(rt);
        Py_XDECREF(st);
    }
    else
        result = Py_BuildValue("(NNNzn)", rt, st, tt, which,
                               which == NULL ? (Py_ssize_t)0 : m);

done:
    PyMem_Free(r);
    PyMem_Free(s);
    PyMem_Free(t);
    return result;
}

static PyMethodDef methods[] = {
    {"q_generate", q_generate, METH_VARARGS,
     "q_generate(prefix, zero_extended, max_terms) -> (terms, status, at)\n\n"
     "Extend prefix under Q(n) = Q(n-Q(n-1)) + Q(n-Q(n-2)) in int64."},
    {"rst_generate", rst_generate, METH_VARARGS,
     "rst_generate(n_max) -> (r, s, t, which, at) or None\n\n"
     "Tabulate R(1..n), S(0..n) and T(0..n) in int64; None on overflow."},
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
