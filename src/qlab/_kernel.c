/* Compiled term generator for the Q-recurrence.
 *
 * Mirrors the contract of _fallback.q_generate in checked (int64) mode:
 * q_generate(prefix, zero_extended, max_terms) returns (terms, status, at)
 * with terms a list of int; status 0 alive, 1 died, 2 ended, 3 overflow.
 * The terms are computed in a private int64 buffer that grows with the
 * terms produced and is freed before the call returns.
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

static PyObject *
q_generate(PyObject *self, PyObject *args)
{
    PyObject *prefix, *seq, *terms = NULL;
    int zero;
    Py_ssize_t max_terms, k, cap, n, i;
    long long *t, *grown, a, b;
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
            grown = cap > PY_SSIZE_T_MAX / (2 * (Py_ssize_t)sizeof(long long))
                        ? NULL
                        : PyMem_Realloc(t, 2 * cap * sizeof(long long));
            if (grown == NULL) {
                PyErr_NoMemory();
                goto done;
            }
            t = grown;
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

static PyMethodDef methods[] = {
    {"q_generate", q_generate, METH_VARARGS,
     "q_generate(prefix, zero_extended, max_terms) -> (terms, status, at)\n\n"
     "Extend prefix under Q(n) = Q(n-Q(n-1)) + Q(n-Q(n-2)) in int64."},
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
