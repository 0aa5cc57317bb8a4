"""Tests for the sequential reference interpreter."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import (
    ArityError,
    EvalError,
    ParseError,
    RecursionBudgetError,
    TypeMismatchError,
    UnboundVariableError,
)
from repro.lang.compileprog import Program, compile_program
from repro.lang.interp import EvalStats, evaluate, run_program


class TestBasics:
    def test_literal(self):
        assert run_program("42") == 42

    def test_arith(self):
        assert run_program("(+ 1 (* 2 3))") == 7

    def test_if_true_false(self):
        assert run_program("(if (< 1 2) 'yes 'no)") == "yes"
        assert run_program("(if (< 2 1) 'yes 'no)") == "no"

    def test_if_only_false_is_false(self):
        assert run_program("(if 0 1 2)") == 1
        assert run_program("(if '() 1 2)") == 1

    def test_let_parallel(self):
        assert run_program("(let ((x 1) (y 2)) (+ x y))") == 3

    def test_let_bindings_do_not_see_each_other(self):
        src = "(let ((x 1)) (let ((x 2) (y x)) y))"
        assert run_program(src) == 1

    def test_and_or_short_circuit(self):
        # (car '()) would raise; short-circuiting must avoid it
        assert run_program("(and #f (car '()))") is False
        assert run_program("(or #t (car '()))") is True
        assert run_program("(and)") is True
        assert run_program("(or)") is False

    def test_and_returns_last_value(self):
        assert run_program("(and 1 2 3)") == 3

    def test_or_returns_first_truthy(self):
        assert run_program("(or #f 7 9)") == 7

    def test_quote(self):
        assert run_program("'(1 2 (3))") == (1, 2, (3,))

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError):
            run_program("nope")


class TestFunctions:
    def test_lambda_application(self):
        assert run_program("((lambda (x) (* x x)) 6)") == 36

    def test_closure_captures_environment(self):
        src = "(let ((a 10)) ((lambda (x) (+ x a)) 5))"
        assert run_program(src) == 15

    def test_higher_order(self):
        src = """
        (define (twice f x) (f (f x)))
        (twice (lambda (n) (* n 3)) 2)
        """
        assert run_program(src) == 18

    def test_global_function_as_value(self):
        src = """
        (define (inc n) (+ n 1))
        (define (apply-it f x) (f x))
        (apply-it inc 41)
        """
        assert run_program(src) == 42

    def test_arity_error_closure(self):
        with pytest.raises(ArityError):
            run_program("((lambda (x) x) 1 2)")

    def test_arity_error_global(self):
        with pytest.raises(ArityError):
            run_program("(define (f x) x) (f 1 2)")

    def test_apply_non_function(self):
        with pytest.raises(TypeMismatchError):
            run_program("(3 4)")

    def test_define_body_cannot_see_caller_locals(self):
        src = """
        (define (f) y)
        (let ((y 1)) (f))
        """
        with pytest.raises(UnboundVariableError):
            run_program(src)

    def test_recursion(self):
        src = """
        (define (fact n) (if (= n 0) 1 (* n (fact (- n 1)))))
        (fact 10)
        """
        assert run_program(src) == 3628800

    def test_mutual_recursion(self):
        src = """
        (define (is-even n) (if (= n 0) #t (is-odd (- n 1))))
        (define (is-odd n) (if (= n 0) #f (is-even (- n 1))))
        (is-even 10)
        """
        assert run_program(src) is True

    def test_local_application_same_value(self):
        src = """
        (define (sq x) (* x x))
        (+ (sq 3) (local sq 4))
        """
        assert run_program(src) == 25


class TestStats:
    def test_spawns_vs_locals(self):
        program = compile_program(
            """
            (define (sq x) (* x x))
            (+ (sq 2) (local sq 3))
            """
        )
        stats = EvalStats()
        evaluate(program, stats=stats)
        assert stats.spawns == 1
        assert stats.locals == 1

    def test_max_task_depth(self):
        program = compile_program(
            """
            (define (chain n) (if (= n 0) 0 (chain (- n 1))))
            (chain 5)
            """
        )
        stats = EvalStats()
        evaluate(program, stats=stats)
        # main spawns chain(5) at depth 1; chain(0) sits at depth 6
        assert stats.max_task_depth == 6

    def test_step_budget_enforced(self):
        src = """
        (define (loop n) (if (= n 0) 0 (loop (- n 1))))
        (loop 100000)
        """
        with pytest.raises(RecursionBudgetError):
            run_program(src, step_budget=1000)

    def test_if_charges_only_taken_branch(self):
        cheap = compile_program("(if #t 1 (work 1000))")
        stats = EvalStats()
        evaluate(cheap, stats=stats)
        assert stats.steps < 20


class TestProgramCompilation:
    def test_requires_one_main(self):
        with pytest.raises(ParseError):
            compile_program("(define (f x) x)")
        with pytest.raises(ParseError):
            compile_program("1 2")

    def test_duplicate_definition(self):
        with pytest.raises(ParseError):
            compile_program("(define (f) 1) (define (f) 2) (f)")

    def test_with_main(self):
        lib = compile_program("(define (sq x) (* x x)) (sq 2)")
        program = lib.with_main("(sq 9)")
        assert evaluate(program) == 81

    def test_evaluate_requires_main(self):
        lib = compile_program("(define (f) 1) (f)")
        with pytest.raises(EvalError):
            evaluate(Program(defs=lib.defs))


class TestDeterminacy:
    @given(st.integers(min_value=0, max_value=12))
    def test_repeat_evaluation_identical(self, n):
        program = compile_program(
            f"""
            (define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))
            (fib {n})
            """
        )
        assert evaluate(program) == evaluate(program)

    @given(
        st.integers(min_value=-20, max_value=20),
        st.integers(min_value=-20, max_value=20),
    )
    def test_arith_matches_python(self, a, b):
        assert run_program(f"(+ {a} {b})") == a + b
        assert run_program(f"(* {a} {b})") == a * b
