"""Library of benchmark programs.

These are the applicative workloads the examples, tests, and benchmarks
run: classic divide-and-conquer programs in the style Rediflow papers used
(nfib, tak, tree folds, sorting, n-queens, matrix-ish reductions).

Each entry is a :class:`NamedProgram` with a source template, a builder for
instance arguments, and a reference Python implementation so tests can check
answers without trusting either interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

from repro.lang.compileprog import Program, compile_program


@dataclass(frozen=True)
class NamedProgram:
    """A parameterised benchmark program."""

    name: str
    description: str
    source_template: str  # format()-style template over the parameters
    reference: Callable[..., Any]  # ground-truth answer
    default_args: Tuple[Any, ...]

    @property
    def spec_arity(self) -> int:
        """How many integers a ``prog:NAME:ARG:...`` spec gives to replace
        the defaults: one per field of the template (the defaults fill
        exactly those), or 0 when a parameter is not an integer (qsort's
        list is defaults-only)."""
        if all(isinstance(arg, int) for arg in self.default_args):
            return len(self.default_args)
        return 0

    def build(self, *args: Any) -> Program:
        """Compile an instance of the program for the given arguments."""
        if not args:
            args = self.default_args
        return compile_program(self.source_template.format(*args))

    def expected(self, *args: Any) -> Any:
        if not args:
            args = self.default_args
        return self.reference(*args)


def _py_fib(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _py_nfib(n: int) -> int:
    if n < 2:
        return 1
    return 1 + _py_nfib(n - 1) + _py_nfib(n - 2)


def _py_tak(x: int, y: int, z: int) -> int:
    if not y < x:
        return z
    return _py_tak(
        _py_tak(x - 1, y, z), _py_tak(y - 1, z, x), _py_tak(z - 1, x, y)
    )


def _py_binomial(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    out = 1
    for i in range(min(k, n - k)):
        out = out * (n - i) // (i + 1)
    return out


def _py_tree_sum(depth: int) -> int:
    # Sum of node labels of a complete binary tree where a node at depth d
    # rooted with label v has children labelled v+1; root label 1.
    # tree-sum(d, v) = v + 2 * tree-sum(d-1, v+1); leaf contributes v.
    def rec(d: int, v: int) -> int:
        if d == 0:
            return v
        return v + rec(d - 1, v + 1) + rec(d - 1, v + 1)

    return rec(depth, 1)


def _py_qsort(values: Tuple[int, ...]) -> Tuple[int, ...]:
    return tuple(sorted(values))


def _py_nqueens(n: int) -> int:
    def rec(cols: Tuple[int, ...], row: int) -> int:
        if row == n:
            return 1
        total = 0
        for col in range(n):
            if all(
                col != c and abs(col - c) != row - r
                for r, c in enumerate(cols)
            ):
                total += rec(cols + (col,), row + 1)
        return total

    return rec((), 0)


def _py_sum_range(a: int, b: int) -> int:
    return sum(range(a, b))


def _py_matvec(n: int) -> int:
    # Deterministic integer "matrix-vector" reduction: A[i][j] = i + j,
    # x[j] = j + 1; answer = sum_i sum_j A[i][j] * x[j].
    return sum((i + j) * (j + 1) for i in range(n) for j in range(n))


_DEFS_FIB = """
(define (fib n)
  (if (< n 2)
      n
      (+ (fib (- n 1)) (fib (- n 2)))))
(fib {0})
"""

_DEFS_NFIB = """
(define (nfib n)
  (if (< n 2)
      1
      (+ 1 (nfib (- n 1)) (nfib (- n 2)))))
(nfib {0})
"""

_DEFS_TAK = """
(define (tak x y z)
  (if (not (< y x))
      z
      (tak (tak (- x 1) y z)
           (tak (- y 1) z x)
           (tak (- z 1) x y))))
(tak {0} {1} {2})
"""

_DEFS_BINOMIAL = """
(define (choose n k)
  (if (or (= k 0) (= k n))
      1
      (+ (choose (- n 1) (- k 1)) (choose (- n 1) k))))
(choose {0} {1})
"""

_DEFS_TREE_SUM = """
(define (tree-sum d v)
  (if (= d 0)
      v
      (+ v (tree-sum (- d 1) (+ v 1)) (tree-sum (- d 1) (+ v 1)))))
(tree-sum {0} 1)
"""

_DEFS_QSORT = """
(define (filter-lt pivot lst)
  (if (null? lst)
      '()
      (if (< (car lst) pivot)
          (cons (car lst) (local filter-lt pivot (cdr lst)))
          (local filter-lt pivot (cdr lst)))))
(define (filter-ge pivot lst)
  (if (null? lst)
      '()
      (if (< (car lst) pivot)
          (local filter-ge pivot (cdr lst))
          (cons (car lst) (local filter-ge pivot (cdr lst))))))
(define (qsort lst)
  (if (null? lst)
      '()
      (append (qsort (local filter-lt (car lst) (cdr lst)))
              (list (car lst))
              (qsort (local filter-ge (car lst) (cdr lst))))))
(qsort (quote {0}))
"""

_DEFS_NQUEENS = """
(define (safe? col cols row)
  (if (null? cols)
      #t
      (and (not (= col (car cols)))
           (not (= (abs (- col (car cols))) row))
           (local safe? col (cdr cols) (+ row 1)))))
(define (try-cols n col cols row)
  (if (= col n)
      0
      (+ (if (local safe? col cols 1)
             (place n (cons col cols) (+ row 1))
             0)
         (local try-cols n (+ col 1) cols row))))
(define (place n cols row)
  (if (= row n)
      1
      (try-cols n 0 cols row)))
(place {0} '() 0)
"""

_DEFS_SUM_RANGE = """
(define (sum-range a b)
  (if (>= a b)
      0
      (if (= (+ a 1) b)
          a
          (let ((mid (quotient (+ a b) 2)))
            (+ (sum-range a mid) (sum-range mid b))))))
(sum-range {0} {1})
"""

_DEFS_MATVEC = """
(define (dot-row i j n)
  (if (= j n)
      0
      (+ (* (+ i j) (+ j 1)) (local dot-row i (+ j 1) n))))
(define (mat-rows i n)
  (if (= i n)
      0
      (+ (dot-row i 0 n) (mat-rows (+ i 1) n))))
(mat-rows 0 {0})
"""


def _qsort_literal(values: Tuple[int, ...]) -> str:
    return "(" + " ".join(str(v) for v in values) + ")"


PROGRAMS: Dict[str, NamedProgram] = {
    "fib": NamedProgram(
        "fib",
        "Naive doubly-recursive Fibonacci; the canonical applicative fan-out.",
        _DEFS_FIB,
        _py_fib,
        (10,),
    ),
    "nfib": NamedProgram(
        "nfib",
        "nfib counts its own calls; the classic reduction-rate benchmark.",
        _DEFS_NFIB,
        _py_nfib,
        (10,),
    ),
    "tak": NamedProgram(
        "tak",
        "Takeuchi function; deep, heavily nested call tree.",
        _DEFS_TAK,
        _py_tak,
        (8, 4, 2),
    ),
    "binomial": NamedProgram(
        "binomial",
        "Pascal's-triangle binomial; unbalanced recursive fan-out.",
        _DEFS_BINOMIAL,
        _py_binomial,
        (10, 4),
    ),
    "tree-sum": NamedProgram(
        "tree-sum",
        "Complete binary tree fold; perfectly balanced call tree.",
        _DEFS_TREE_SUM,
        _py_tree_sum,
        (6,),
    ),
    "qsort": NamedProgram(
        "qsort",
        "Quicksort over a literal list; data-dependent tree shape.",
        _DEFS_QSORT,
        _py_qsort,
        ((7, 3, 9, 1, 8, 2, 6, 5, 4),),
    ),
    "nqueens": NamedProgram(
        "nqueens",
        "Counts n-queens placements; irregular search tree.",
        _DEFS_NQUEENS,
        _py_nqueens,
        (5,),
    ),
    "sum-range": NamedProgram(
        "sum-range",
        "Divide-and-conquer integer range sum; tunable balanced tree.",
        _DEFS_SUM_RANGE,
        _py_sum_range,
        (0, 64),
    ),
    "matvec": NamedProgram(
        "matvec",
        "Integer matrix-vector reduction; row tasks with local dot products.",
        _DEFS_MATVEC,
        _py_matvec,
        (6,),
    ),
}


def get_program(name: str, *args: Any) -> Program:
    """Build a compiled instance of the named library program."""
    named = PROGRAMS[name]
    if name == "qsort" and args:
        args = (_qsort_literal(args[0]),)
    elif name == "qsort":
        args = (_qsort_literal(named.default_args[0]),)
    return named.build(*args)


def expected_answer(name: str, *args: Any) -> Any:
    """Ground-truth answer for the named program instance."""
    return PROGRAMS[name].expected(*args)
